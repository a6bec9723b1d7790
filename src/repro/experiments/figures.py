"""Figure data generators (paper Figs. 6, 7, and 8).

Each generator returns the plotted *data* (five-number summaries, binned
success probabilities, prediction/ground-truth pairs), which is what the
benchmark harness prints.  Fig. 5 lives in
:mod:`repro.experiments.characterization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import NeuralSafetyPredictor, SafetyPredictor
from repro.core.training import SafetyDataset
from repro.experiments.campaign import CampaignConfig
from repro.experiments.results import CampaignResult, RunResult
from repro.experiments.store import ExperimentStore
from repro.sim.actors import ActorKind
from repro.utils.stats import BoxplotStats, boxplot_stats

__all__ = [
    "Fig6Panel",
    "Fig7Panel",
    "Fig8Data",
    "fig6_panels",
    "fig7_panels",
    "fig7_panels_from_store",
    "fig8_data",
]


@dataclass(frozen=True)
class Fig6Panel:
    """One panel of paper Fig. 6: min-δ distributions with and without the SH."""

    panel_id: str
    with_sh: BoxplotStats
    without_sh: BoxplotStats
    accident_threshold_m: float = 4.0

    @property
    def median_improvement_m(self) -> float:
        """How much lower the median min-δ is with the safety hijacker."""
        return self.without_sh.median - self.with_sh.median


@dataclass(frozen=True)
class Fig7Panel:
    """One panel of paper Fig. 7: K' distributions per attack vector."""

    panel_id: str
    target_kind: ActorKind
    k_prime_by_vector: Dict[str, BoxplotStats]


@dataclass(frozen=True)
class Fig8Data:
    """Paper Fig. 8: safety-hijacker prediction quality vs. attack success."""

    #: (bin centre of |prediction error| in metres, success probability, count).
    binned_success: List[tuple[float, float, int]]
    #: (k, ground-truth delta, predicted delta) triples for the Fig. 8b curve.
    prediction_curve: List[tuple[int, float, float]]
    mean_absolute_error_m: float


def _finite_min_deltas(campaign: CampaignResult) -> List[float]:
    values = [r.min_true_delta_m for r in campaign.runs if np.isfinite(r.min_true_delta_m)]
    return values or [float(campaign.n_runs and 0.0)]


def fig6_panels(
    with_sh: Sequence[CampaignResult], without_sh: Sequence[CampaignResult]
) -> List[Fig6Panel]:
    """Pair up campaigns with and without the safety hijacker into Fig. 6 panels."""
    without_by_key = {
        (c.scenario_id, c.vector): c for c in without_sh
    }
    panels: List[Fig6Panel] = []
    for campaign in with_sh:
        key = (campaign.scenario_id, campaign.vector)
        counterpart = without_by_key.get(key)
        if counterpart is None:
            continue
        vector_name = campaign.vector.name.title() if campaign.vector else "Random"
        panels.append(
            Fig6Panel(
                panel_id=f"{campaign.scenario_id}-{vector_name}",
                with_sh=boxplot_stats(_finite_min_deltas(campaign)),
                without_sh=boxplot_stats(_finite_min_deltas(counterpart)),
            )
        )
    return panels


def fig7_panels(campaigns: Sequence[CampaignResult]) -> List[Fig7Panel]:
    """Group per-run K' values by target class and attack vector (Fig. 7)."""
    by_kind: Dict[ActorKind, Dict[str, List[float]]] = {
        ActorKind.VEHICLE: {},
        ActorKind.PEDESTRIAN: {},
    }
    for campaign in campaigns:
        for run in campaign.runs:
            if not run.attack_launched or run.vector is None or run.target_kind is None:
                continue
            by_kind[run.target_kind].setdefault(run.vector.name.title(), []).append(
                float(run.k_prime_frames)
            )
    panels: List[Fig7Panel] = []
    for kind, per_vector in by_kind.items():
        if not per_vector:
            continue
        panels.append(
            Fig7Panel(
                panel_id=f"K-prime-{kind.value}",
                target_kind=kind,
                k_prime_by_vector={
                    vector: boxplot_stats(values) for vector, values in per_vector.items()
                },
            )
        )
    return panels


def fig7_panels_from_store(
    store: ExperimentStore,
    configs: Optional[Sequence[CampaignConfig]] = None,
    allow_partial: bool = False,
) -> List[Fig7Panel]:
    """Build Fig. 7 panels from durably stored runs — no re-simulation.

    By default every campaign recorded in the store contributes its launched
    runs; ``configs`` narrows the selection.  Incomplete campaigns raise
    unless ``allow_partial=True``.
    """
    if configs is None:
        results = store.campaign_results(allow_partial=allow_partial)
    else:
        results = [
            store.campaign_result(config, allow_partial=allow_partial)
            for config in configs
        ]
    return fig7_panels(results)


def fig8_data(
    campaigns: Sequence[CampaignResult],
    predictor: Optional[SafetyPredictor] = None,
    dataset: Optional[SafetyDataset] = None,
    n_bins: int = 8,
) -> Fig8Data:
    """Prediction-error vs. success probability (8a) and the prediction curve (8b).

    Panel (a) uses the attacked runs of the provided campaigns: the prediction
    error is |predicted δ - ground-truth δ at the end of the attack window|
    and success is the paper's accident criterion.  Panel (b) evaluates the
    predictor on the collected training dataset, grouped by k.
    """
    errors: List[float] = []
    successes: List[bool] = []
    for campaign in campaigns:
        for run in campaign.runs:
            if not _usable_for_error(run):
                continue
            errors.append(abs(run.predicted_delta_m - run.true_delta_at_attack_end_m))
            successes.append(run.accident or run.emergency_braking)

    binned: List[tuple[float, float, int]] = []
    mae = float("nan")
    if errors:
        errors_arr = np.asarray(errors)
        successes_arr = np.asarray(successes, dtype=float)
        mae = float(np.mean(errors_arr))
        edges = np.linspace(0.0, max(errors_arr.max(), 1e-6), n_bins + 1)
        for low, high in zip(edges[:-1], edges[1:]):
            mask = (errors_arr >= low) & (errors_arr < high if high < edges[-1] else errors_arr <= high)
            count = int(mask.sum())
            if count == 0:
                continue
            binned.append(((low + high) / 2.0, float(successes_arr[mask].mean()), count))

    curve: List[tuple[int, float, float]] = []
    if predictor is not None and dataset is not None:
        for row, target in zip(dataset.inputs, dataset.targets):
            k = int(row[3])
            if isinstance(predictor, NeuralSafetyPredictor):
                predicted = float(predictor.predict_batch(row.reshape(1, -1))[0])
            else:
                from repro.core.safety_hijacker import AttackFeatures

                predicted = predictor.predict_delta(
                    AttackFeatures(
                        delta_m=float(row[0]),
                        relative_velocity_mps=float(row[1]),
                        relative_acceleration_mps2=float(row[2]),
                    ),
                    k,
                )
            curve.append((k, float(target[0]), predicted))
        curve.sort(key=lambda item: item[0])

    return Fig8Data(binned_success=binned, prediction_curve=curve, mean_absolute_error_m=mae)


def _usable_for_error(run: RunResult) -> bool:
    return (
        run.attack_launched
        and np.isfinite(run.predicted_delta_m)
        and np.isfinite(run.true_delta_at_attack_end_m)
    )
