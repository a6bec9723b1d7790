"""Per-run and per-campaign result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.attack_vectors import AttackVector
from repro.sim.actors import ActorKind

__all__ = ["RunResult", "CampaignResult"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation run within a campaign."""

    run_index: int
    seed: int
    scenario_id: str
    attacker_kind: str
    vector: Optional[AttackVector]
    target_kind: Optional[ActorKind]
    #: Whether the attack was actually launched during the run.
    attack_launched: bool
    #: Whether the ADS engaged emergency braking at any point.
    emergency_braking: bool
    #: Whether a physical collision occurred (the simulation halts on it).
    collision: bool
    #: Paper accident criterion: min ground-truth δ after attack start below 4 m.
    accident: bool
    #: Minimum ground-truth safety potential from the attack start to run end.
    min_true_delta_m: float
    #: Ground-truth safety potential at the end of the attack window.
    true_delta_at_attack_end_m: float
    #: Safety potential predicted by the safety hijacker at launch (NaN if unused).
    predicted_delta_m: float
    #: Attack window K decided by the attacker (frames).
    planned_k_frames: int
    #: Number of frames actually perturbed.
    frames_perturbed: int
    #: Frames spent actively shifting the perceived position (K').
    k_prime_frames: int
    #: Safety potential estimated by the malware at launch time.
    delta_at_launch_m: float


@dataclass
class CampaignResult:
    """All runs of one experimental campaign (same scenario + attack vector)."""

    campaign_id: str
    scenario_id: str
    attacker_kind: str
    vector: Optional[AttackVector]
    runs: List[RunResult] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def launched_runs(self) -> List[RunResult]:
        """Runs where the attacker actually fired."""
        return [r for r in self.runs if r.attack_launched]

    @property
    def emergency_braking_count(self) -> int:
        return sum(1 for r in self.runs if r.emergency_braking)

    @property
    def accident_count(self) -> int:
        return sum(1 for r in self.runs if r.accident)

    @property
    def emergency_braking_rate(self) -> float:
        return self.emergency_braking_count / self.n_runs if self.n_runs else 0.0

    @property
    def accident_rate(self) -> float:
        return self.accident_count / self.n_runs if self.n_runs else 0.0

    def median_planned_k(self) -> float:
        """Median attack window K over the runs that launched an attack."""
        launched = [r.planned_k_frames for r in self.launched_runs]
        return float(np.median(launched)) if launched else 0.0

    def median_k_prime(self) -> float:
        """Median number of shift frames K' over the runs that launched."""
        launched = [r.k_prime_frames for r in self.launched_runs]
        return float(np.median(launched)) if launched else 0.0

    def min_delta_values(self) -> List[float]:
        """Per-run minimum ground-truth safety potential (finite values only)."""
        return [
            r.min_true_delta_m for r in self.runs if np.isfinite(r.min_true_delta_m)
        ]
