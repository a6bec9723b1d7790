"""Adaptive falsification: closed-loop search for attack-success boundaries.

Where ``repro.sim.sweeps`` *enumerates* a parameter space blindly, this
package *searches* it: an :class:`AdaptiveSampler` proposes batches of sweep
assignments, the :class:`FalsificationLoop` executes them through the
ordinary campaign runtime against an :class:`ExperimentStore`, an
:class:`Objective` scores the stored outcomes, and the scores feed back into
the next proposal.  Checkpoints under the store root make every search
resume-safe — a killed process picks up mid-iteration without re-proposing.

Entry points: :func:`run_falsification_search` /
``repro-campaign search`` (CLI).
"""

from repro.search.loop import (
    FalsificationLoop,
    SearchPoint,
    SearchResult,
    SearchSpec,
    axes_from_json,
    axes_to_json,
    run_falsification_search,
    search_spec_hash,
)
from repro.search.objectives import (
    OBJECTIVES,
    AttackSuccessRate,
    MinDeltaMargin,
    Objective,
    TimeToViolation,
)
from repro.search.samplers import (
    SEARCH_SAMPLERS,
    AdaptiveSampler,
    BanditSampler,
    CrossEntropySampler,
    RandomSearchSampler,
)

__all__ = [
    "AdaptiveSampler",
    "RandomSearchSampler",
    "CrossEntropySampler",
    "BanditSampler",
    "SEARCH_SAMPLERS",
    "Objective",
    "AttackSuccessRate",
    "TimeToViolation",
    "MinDeltaMargin",
    "OBJECTIVES",
    "SearchSpec",
    "SearchPoint",
    "SearchResult",
    "FalsificationLoop",
    "run_falsification_search",
    "search_spec_hash",
    "axes_to_json",
    "axes_from_json",
]
