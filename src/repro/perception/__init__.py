"""The AV perception system (the attack's target).

This package reproduces the tracking-by-detection pipeline of paper §II-B and
Fig. 1:

* a simulated YOLOv3-class object detector with calibrated Gaussian
  bounding-box noise and exponential misdetection bursts
  (:mod:`repro.perception.detection`);
* per-object constant-velocity Kalman trackers ("F" in Fig. 1), whose states
  are rows of a pooled filter (:mod:`repro.perception.kalman`,
  :mod:`repro.perception.tracker`);
* Hungarian matching of detections to trackers ("M" in Fig. 1)
  (:mod:`repro.perception.hungarian`);
* the multi-object tracker that ties them together
  (:mod:`repro.perception.mot`);
* the image-to-world transformation ("T" in Fig. 1)
  (:mod:`repro.perception.transforms`);
* camera/LiDAR sensor fusion (:mod:`repro.perception.fusion`);
* and the full perception system facade (:mod:`repro.perception.pipeline`).

The detector, tracker, transform and fusion stages are each implemented once,
on plain-float rows, which every simulation lane calls directly: the
detector reads the camera's rendered rows (on an attacked run, the rows the
attacker delivers) and the transform's estimate rows are what fusion fuses
and what the attacker reads.  The tracker's ``step`` runs predict,
association and update for one tracker on the detector's rows: the tracker's
unit-test API, which no simulation lane calls.
"""

from repro.perception.detection import DetectorNoiseModel, SimulatedDetector
from repro.perception.fusion import FusionConfig, SensorFusion
from repro.perception.hungarian import hungarian_assignment
from repro.perception.kalman import KalmanFilter, KalmanPool
from repro.perception.mot import MultiObjectTracker, TrackerConfig
from repro.perception.pipeline import PerceptionConfig, PerceptionSystem
from repro.perception.tracker import ObjectTrack
from repro.perception.transforms import ImageToWorldTransform

__all__ = [
    "DetectorNoiseModel",
    "SimulatedDetector",
    "FusionConfig",
    "SensorFusion",
    "hungarian_assignment",
    "KalmanFilter",
    "KalmanPool",
    "MultiObjectTracker",
    "TrackerConfig",
    "PerceptionConfig",
    "PerceptionSystem",
    "ObjectTrack",
    "ImageToWorldTransform",
]
