"""Falsification objectives: score a campaign's stored runs.

An objective condenses one sweep point's runs (the
:class:`~repro.experiments.store.RunRecord` objects
:meth:`~repro.experiments.store.ExperimentStore.load_records` returns, the
same records tables and resume read) into a single scalar in ``[0, 1]`` —
higher means *closer to falsification*, so every sampler maximizes.
Built-ins (:data:`OBJECTIVES`, the names ``--objective`` accepts):

* ``attack_success`` (default) — the fraction of runs that produced the
  hazard their vector aims for (the shared
  :func:`~repro.experiments.metrics.attack_succeeded` §VI-C rule);
* ``time_to_violation`` — rewards *fast* violations: each successful run
  contributes ``1 - t/​cap`` (``t`` its wall-clock simulated duration,
  ``cap`` the normalization horizon), unsuccessful runs contribute 0;
* ``min_delta_margin`` — a *smooth* boundary signal for spaces where binary
  success is everywhere 0 or 1: how deeply the run pushed the ground-truth
  safety potential toward zero, ``1 - clamp(min_delta / scale, 0, 1)``
  averaged over runs (runs whose attack never fired score 0).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.experiments.metrics import attack_succeeded
from repro.experiments.store import RunRecord

__all__ = [
    "Objective",
    "AttackSuccessRate",
    "TimeToViolation",
    "MinDeltaMargin",
    "OBJECTIVES",
]


@runtime_checkable
class Objective(Protocol):
    """Scores one sweep point's runs; higher = closer to falsification."""

    #: The objective's :data:`OBJECTIVES` name (recorded in search manifests
    #: and reports).
    name: str

    def score(self, records: Sequence[RunRecord]) -> float:
        ...


class AttackSuccessRate:
    """Fraction of runs whose attack produced its intended hazard."""

    name = "attack_success"

    def score(self, records: Sequence[RunRecord]) -> float:
        if not records:
            return 0.0
        return sum(attack_succeeded(r.result) for r in records) / len(records)


class TimeToViolation:
    """Rewards violations that arrive *early* in the run.

    ``horizon_s`` is the normalization cap — typically the campaign's
    ``simulation.max_duration_s``.  A run that violates instantly scores 1, a
    violation at the horizon scores ~0, and a run with no violation scores 0;
    the point's score is the mean over its runs.
    """

    name = "time_to_violation"

    def __init__(self, horizon_s: float = 60.0):
        if not 0.0 < horizon_s < math.inf:
            raise ValueError(f"horizon_s must be positive and finite, got {horizon_s!r}")
        self.horizon_s = float(horizon_s)

    def score(self, records: Sequence[RunRecord]) -> float:
        if not records:
            return 0.0
        total = 0.0
        for record in records:
            if attack_succeeded(record.result):
                total += 1.0 - min(record.duration_s, self.horizon_s) / self.horizon_s
        return total / len(records)


class MinDeltaMargin:
    """How deeply runs pushed the ground-truth safety potential toward 0.

    ``scale_m`` is the margin considered "comfortably safe": a run whose
    minimum δ after attack start reaches 0 scores 1, one that never dips
    below ``scale_m`` scores 0.  Runs with no finite δ (the attack never
    launched) score 0.  Unlike binary success this degrades smoothly, which
    is what gradient-free samplers need on spaces where success is rare.
    """

    name = "min_delta_margin"

    def __init__(self, scale_m: float = 10.0):
        if not 0.0 < scale_m < math.inf:
            raise ValueError(f"scale_m must be positive and finite, got {scale_m!r}")
        self.scale_m = float(scale_m)

    def score(self, records: Sequence[RunRecord]) -> float:
        if not records:
            return 0.0
        total = 0.0
        for record in records:
            delta = record.result.min_true_delta_m
            if np.isfinite(delta):
                total += 1.0 - min(max(delta, 0.0), self.scale_m) / self.scale_m
        return total / len(records)


#: Objective name -> factory(**options): the names ``--objective`` and
#: ``SearchSpec.objective`` accept.
OBJECTIVES: Dict[str, Callable[..., Objective]] = {
    "attack_success": AttackSuccessRate,
    "time_to_violation": TimeToViolation,
    "min_delta_margin": MinDeltaMargin,
}
