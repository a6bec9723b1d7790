"""Campaign-level metrics (the quantities reported throughout paper §VI)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.attack_vectors import AttackVector
from repro.experiments.results import CampaignResult

__all__ = [
    "CampaignSummary",
    "attack_succeeded",
    "summarize_campaign",
    "combined_rates",
]


def attack_succeeded(run) -> bool:
    """Whether a run produced the hazard its attack vector aims for.

    The paper's §VI-C success rule: the Move_In vector aims for spurious
    emergency braking, every other vector (and the vectorless baselines) for
    an accident.  ``run`` is anything exposing ``vector`` /
    ``emergency_braking`` / ``accident`` — a :class:`RunResult`, which is
    also what a stored :class:`~repro.experiments.store.RunRecord` carries.
    This single rule is shared by the defense tables and the falsification
    objectives, so "attack success" means the same thing in every report.
    """
    if run.vector is AttackVector.MOVE_IN:
        return bool(run.emergency_braking)
    return bool(run.accident)


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics of one campaign (one row of paper Table II)."""

    campaign_id: str
    scenario_id: str
    attacker_kind: str
    vector: str
    n_runs: int
    median_k_frames: float
    emergency_braking_count: int
    emergency_braking_rate: float
    accident_count: int
    accident_rate: float
    median_k_prime_frames: float

    def format_row(self) -> str:
        """Human-readable row in the style of paper Table II."""
        crash_text = (
            f"{self.accident_count} ({self.accident_rate:.1%})"
            if self.vector != "move_in"
            else "—"
        )
        return (
            f"{self.campaign_id:28s} K={self.median_k_frames:5.1f} "
            f"runs={self.n_runs:4d} "
            f"EB={self.emergency_braking_count:4d} ({self.emergency_braking_rate:6.1%}) "
            f"crashes={crash_text}"
        )


def summarize_campaign(campaign: CampaignResult) -> CampaignSummary:
    """Aggregate a campaign into one Table-II-style row."""
    return CampaignSummary(
        campaign_id=campaign.campaign_id,
        scenario_id=campaign.scenario_id,
        attacker_kind=campaign.attacker_kind,
        vector=campaign.vector.value if campaign.vector is not None else "random",
        n_runs=campaign.n_runs,
        median_k_frames=campaign.median_planned_k(),
        emergency_braking_count=campaign.emergency_braking_count,
        emergency_braking_rate=campaign.emergency_braking_rate,
        accident_count=campaign.accident_count,
        accident_rate=campaign.accident_rate,
        median_k_prime_frames=campaign.median_k_prime(),
    )


def combined_rates(campaigns: Sequence[CampaignResult]) -> tuple[float, float]:
    """Overall emergency-braking and accident rates across several campaigns.

    Matches how the paper aggregates its headline numbers (75.2 % forced
    emergency braking over 851 runs; 52.6 % accidents over the 568 runs that
    exclude Move_In campaigns).
    """
    total_runs = sum(c.n_runs for c in campaigns)
    if total_runs == 0:
        return 0.0, 0.0
    eb_rate = sum(c.emergency_braking_count for c in campaigns) / total_runs
    crash_campaigns = [
        c for c in campaigns if c.vector is None or c.vector.value != "move_in"
    ]
    crash_runs = sum(c.n_runs for c in crash_campaigns)
    crash_rate = (
        sum(c.accident_count for c in crash_campaigns) / crash_runs if crash_runs else 0.0
    )
    return eb_rate, crash_rate
