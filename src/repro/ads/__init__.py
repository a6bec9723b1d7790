"""The autonomous driving system (ADS) under attack.

This package is the Apollo-like software stack of paper Fig. 1: the fused
obstacles of the perception stage (``repro.perception``) feed obstacle
prediction, a longitudinal planner with comfortable and emergency braking,
and a PID-style actuation controller.  It also implements the safety model of
paper §II-C (stopping distance, safety envelope, and safety potential δ).
"""

from repro.ads.agent import AdsAgent
from repro.ads.pid import PIDController
from repro.ads.planning import LongitudinalPlanner, PlannerConfig
from repro.ads.prediction import ObstaclePredictor, PredictionConfig
from repro.ads.safety import SafetyModel, ground_truth_delta

__all__ = [
    "AdsAgent",
    "PIDController",
    "LongitudinalPlanner",
    "PlannerConfig",
    "ObstaclePredictor",
    "PredictionConfig",
    "SafetyModel",
    "ground_truth_delta",
]
