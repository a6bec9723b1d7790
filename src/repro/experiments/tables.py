"""Table generators.

* :func:`table1_rows` regenerates the scenario-matching map of paper Table I
  directly from the implemented :class:`ScenarioMatcher` rules.
* :func:`table2_rows` turns a set of campaign results into the rows of paper
  Table II (median attack window K, run counts, emergency-braking and crash
  rates), and :func:`headline_findings` computes the paper's §I headline
  comparisons (RoboTack vs. random baseline, pedestrians vs. vehicles).
* :func:`fusion_defense_rows` / :func:`fusion_defense_from_store` build the
  defense-evaluation table beyond the paper: attack-success rate per
  (scenario, fusion policy) cell, comparing how each fusion-policy victim
  variant degrades the attack (the ROADMAP's fusion-defense workload).
* :func:`search_report_rows` / :func:`search_report_from_store` render a
  falsification search's per-iteration trajectory (best score, elite
  threshold, budget spent) from its durable ``iterations.jsonl`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attack_vectors import AttackVector
from repro.core.scenario_matcher import ScenarioMatcher
from repro.experiments.campaign import CampaignConfig
from repro.experiments.metrics import (
    CampaignSummary,
    attack_succeeded,
    combined_rates,
    summarize_campaign,
)
from repro.experiments.results import CampaignResult, RunResult
from repro.experiments.store import ExperimentStore
from repro.sim.actors import ActorKind
from repro.sim.road import Road

__all__ = [
    "Table1Row",
    "Table2Row",
    "FusionDefenseRow",
    "table1_rows",
    "table2_rows",
    "table2_from_store",
    "fusion_defense_rows",
    "fusion_defense_from_store",
    "SearchReportRow",
    "search_report_rows",
    "search_report_from_store",
    "headline_findings",
]


@dataclass(frozen=True)
class Table1Row:
    """One cell row of paper Table I."""

    trajectory: str
    in_ev_lane: bool
    vectors: tuple[str, ...]


@dataclass(frozen=True)
class Table2Row:
    """One row of paper Table II."""

    campaign_id: str
    median_k: float
    n_runs: int
    emergency_braking_count: int
    emergency_braking_rate: float
    crash_count: Optional[int]
    crash_rate: Optional[float]


def table1_rows(road: Road | None = None) -> List[Table1Row]:
    """Regenerate the scenario-matching map of paper Table I."""
    road = road or Road()
    matcher = ScenarioMatcher(road)
    rows: List[Table1Row] = []
    # (trajectory label, in-lane lateral, out-of-lane lateral, lateral velocity sign)
    # The in-lane probe sits slightly off the lane centre so that "towards the
    # lane centre" (moving in) versus "away from it" (moving out) is well defined.
    cases = [
        ("Moving In", 0.8, 3.5, -1.0),
        ("Keep", 0.8, 3.5, 0.0),
        ("Moving Out", 0.8, 3.5, 1.0),
    ]
    for label, in_lane_lateral, out_lane_lateral, velocity_sign in cases:
        for in_lane, lateral in ((True, in_lane_lateral), (False, out_lane_lateral)):
            # Lateral velocity towards the lane centre is "moving in".
            if velocity_sign == 0.0:
                lateral_velocity = 0.0
            else:
                towards_center = -1.0 if lateral >= 0 else 1.0
                lateral_velocity = towards_center if velocity_sign < 0 else -towards_center
            # An estimate row (distance, lateral, rel_velocity,
            # lateral_velocity, track_id, actor_id, kind, rel_acceleration,
            # age_frames) of a vehicle 30 m ahead.
            estimate = (30.0, lateral, -2.0, lateral_velocity, 1, 1, ActorKind.VEHICLE, 0.0, 10)
            vectors = matcher.candidate_vectors(estimate)
            rows.append(
                Table1Row(
                    trajectory=label,
                    in_ev_lane=in_lane,
                    vectors=tuple(v.name for v in vectors),
                )
            )
    return rows


def table2_rows(campaigns: Sequence[CampaignResult]) -> List[Table2Row]:
    """Build the rows of paper Table II from campaign results."""
    rows: List[Table2Row] = []
    for campaign in campaigns:
        summary: CampaignSummary = summarize_campaign(campaign)
        is_move_in = campaign.vector is AttackVector.MOVE_IN
        rows.append(
            Table2Row(
                campaign_id=summary.campaign_id,
                median_k=summary.median_k_frames,
                n_runs=summary.n_runs,
                emergency_braking_count=summary.emergency_braking_count,
                emergency_braking_rate=summary.emergency_braking_rate,
                crash_count=None if is_move_in else summary.accident_count,
                crash_rate=None if is_move_in else summary.accident_rate,
            )
        )
    return rows


def table2_from_store(
    store: ExperimentStore,
    configs: Optional[Sequence[CampaignConfig]] = None,
    allow_partial: bool = False,
) -> List[Table2Row]:
    """Build Table II rows from durably stored runs — no re-simulation.

    ``configs`` selects (and orders) specific campaigns; by default every
    campaign recorded in the store contributes a row.  Campaigns whose runs
    were produced by ``repro-campaign`` with ``--store`` (or any
    ``run_campaign(..., store=...)`` call) are read back from JSONL instead
    of being recomputed from in-memory lists or opaque pickles.  Incomplete
    (interrupted, not yet resumed) campaigns raise rather than contributing
    rates computed over a partial run set, unless ``allow_partial=True``.
    """
    if configs is None:
        results = store.campaign_results(allow_partial=allow_partial)
    else:
        results = [
            store.campaign_result(config, allow_partial=allow_partial)
            for config in configs
        ]
    return table2_rows(results)


@dataclass(frozen=True)
class FusionDefenseRow:
    """One (scenario, fusion policy) cell of the defense-evaluation table."""

    scenario_id: str
    fusion_policy: str
    n_campaigns: int
    n_runs: int
    attack_success_count: int
    attack_success_rate: float
    emergency_braking_rate: float

    def format_row(self) -> str:
        """A fixed-width text rendering (one line of the printed table)."""
        return (
            f"{self.scenario_id:<8s} {self.fusion_policy:<18s} "
            f"{self.n_campaigns:>4d} {self.n_runs:>6d} "
            f"{self.attack_success_rate:>8.1%} {self.emergency_braking_rate:>8.1%}"
        )


# The per-run success rule lives in repro.experiments.metrics.attack_succeeded
# (shared with the falsification objectives).


def fusion_defense_rows(
    campaigns: Sequence[Tuple[CampaignConfig, CampaignResult]],
) -> List[FusionDefenseRow]:
    """Aggregate attack success per (scenario, fusion policy) cell.

    Takes (config, result) pairs — the config carries the effective fusion
    policy (``CampaignConfig.fusion_policy``; defaulted configs count as
    ``late``), the result carries the runs.  Rows are sorted by scenario then
    policy, so a sweep over ``fusion.policy`` renders as a compact
    defense-comparison table: which policy degrades attack success, on which
    scenario, at what spurious-braking cost.
    """
    groups: Dict[Tuple[str, str], List[RunResult]] = {}
    campaign_counts: Dict[Tuple[str, str], int] = {}
    for config, result in campaigns:
        key = (config.scenario_id, config.fusion_policy)
        groups.setdefault(key, []).extend(result.runs)
        campaign_counts[key] = campaign_counts.get(key, 0) + 1
    rows: List[FusionDefenseRow] = []
    for scenario_id, policy in sorted(groups):
        runs = groups[(scenario_id, policy)]
        n_runs = len(runs)
        successes = sum(attack_succeeded(run) for run in runs)
        braking = sum(bool(run.emergency_braking) for run in runs)
        rows.append(
            FusionDefenseRow(
                scenario_id=scenario_id,
                fusion_policy=policy,
                n_campaigns=campaign_counts[(scenario_id, policy)],
                n_runs=n_runs,
                attack_success_count=successes,
                attack_success_rate=successes / n_runs if n_runs else 0.0,
                emergency_braking_rate=braking / n_runs if n_runs else 0.0,
            )
        )
    return rows


def fusion_defense_from_store(
    store: ExperimentStore, allow_partial: bool = False
) -> List[FusionDefenseRow]:
    """Build the fusion-defense table from every campaign recorded in a store.

    Reads the store's manifests (which round-trip ``CampaignConfig.fusion``)
    so each stored campaign lands in its (scenario, policy) cell — pre-refactor
    manifests carry no fusion entry and count as the ``late`` default.  Like
    :func:`table2_from_store`, incomplete campaigns raise unless
    ``allow_partial=True``.
    """
    pairs = [
        (config, store.campaign_result(config, allow_partial=allow_partial))
        for _, config in sorted(store.manifests().items())
    ]
    return fusion_defense_rows(pairs)


@dataclass(frozen=True)
class SearchReportRow:
    """One iteration of a falsification search, as recorded in the store."""

    iteration: int
    sampler: str
    objective: str
    n_points: int
    n_runs: int
    runs_spent_after: int
    elite_threshold: float
    best_score: float
    best_score_so_far: float
    reached_target: bool
    best_assignment: Dict[str, object]

    def format_row(self) -> str:
        """A fixed-width text rendering (one line of the printed table)."""
        marker = " *" if self.reached_target else ""
        return (
            f"{self.iteration:>4d} {self.n_points:>6d} {self.runs_spent_after:>10d} "
            f"{self.elite_threshold:>8.3f} {self.best_score:>8.3f} "
            f"{self.best_score_so_far:>8.3f}{marker}"
        )


def search_report_rows(records: Sequence[Dict[str, object]]) -> List[SearchReportRow]:
    """Turn a search's iteration records into report rows.

    ``records`` is what :meth:`ExperimentStore.load_search_iterations`
    returns — already iteration-sorted and deduplicated (last write wins), so
    a search that replayed an iteration after a crash still yields one row
    per iteration.
    """
    rows: List[SearchReportRow] = []
    for record in records:
        points = record.get("points", [])
        best_assignment: Dict[str, object] = {}
        if points:
            best_point = max(points, key=lambda p: (p["score"], -p["point_index"]))
            best_assignment = dict(best_point["assignment"])
        rows.append(
            SearchReportRow(
                iteration=int(record["iteration"]),
                sampler=str(record["sampler"]),
                objective=str(record["objective"]),
                n_points=int(record["n_points"]),
                n_runs=int(record["n_runs"]),
                runs_spent_after=int(record["runs_spent_after"]),
                elite_threshold=float(record["elite_threshold"]),
                best_score=float(record["best_score"]),
                best_score_so_far=float(record["best_score_so_far"]),
                reached_target=bool(record["reached_target"]),
                best_assignment=best_assignment,
            )
        )
    return rows


def search_report_from_store(
    store: ExperimentStore, search_hash: str
) -> List[SearchReportRow]:
    """Build the search-report table for one stored search, by its hash."""
    return search_report_rows(store.load_search_iterations(search_hash))


def headline_findings(
    robotack_campaigns: Sequence[CampaignResult],
    random_campaign: CampaignResult,
) -> Dict[str, float]:
    """Compute the paper's §I headline comparisons from campaign results.

    Keys:

    * ``robotack_eb_rate`` / ``random_eb_rate`` and their ratio
      (paper: 75.2 % vs 2.3 %, a 33x improvement);
    * ``robotack_crash_rate`` / ``random_crash_rate`` (paper: 52.6 % vs 0 %);
    * ``pedestrian_success_rate`` / ``vehicle_success_rate``
      (paper: 84.1 % vs 31.7 %).
    """
    eb_rate, crash_rate = combined_rates(robotack_campaigns)
    random_eb = random_campaign.emergency_braking_rate
    random_crash = random_campaign.accident_rate

    pedestrian_runs = [
        r
        for c in robotack_campaigns
        for r in c.runs
        if r.target_kind is ActorKind.PEDESTRIAN
    ]
    vehicle_runs = [
        r for c in robotack_campaigns for r in c.runs if r.target_kind is ActorKind.VEHICLE
    ]

    def success_rate(runs) -> float:
        if not runs:
            return 0.0
        # A run counts as a success when it produced the hazard the vector
        # aims for: an accident for Move_Out/Disappear, emergency braking for
        # Move_In (paper §VI-C) — the shared attack_succeeded rule.
        return sum(attack_succeeded(run) for run in runs) / len(runs)

    eb_ratio = eb_rate / random_eb if random_eb > 0 else float("inf")
    return {
        "robotack_eb_rate": eb_rate,
        "robotack_crash_rate": crash_rate,
        "random_eb_rate": random_eb,
        "random_crash_rate": random_crash,
        "eb_improvement_ratio": eb_ratio,
        "pedestrian_success_rate": success_rate(pedestrian_runs),
        "vehicle_success_rate": success_rate(vehicle_runs),
    }
