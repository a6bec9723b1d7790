"""Benchmark: adaptive falsification vs blind random search on DS-3.

The falsification engine's reason to exist is sample efficiency: finding the
attack-success region of a parameter space in fewer simulation runs than a
blind sweep.  This benchmark pins that claim on the paper's DS-3 (parked
vehicle) scenario under the Move_In vector, searching the detector-degradation
plane for a ``>= 95%`` emergency-braking success pocket.

The landscape (measured at 30 runs/point) has a genuine structure: success is
near-certain only where ``detector.sigma_scale`` is high *and*
``detector.misdetection_scale`` is low — roughly 2% of the plane — with a
broad 0.5-0.8 plateau elsewhere.  At 20 runs/point the 0.95 target needs
19/20 successes, which the plateau essentially never produces by luck, so
reaching the target means actually locating the pocket.

Everything is seeded and store-backed: both searches are deterministic, so
the gate (cross-entropy spends at most half of random's run budget) is a
regression bound on the sampler, not a statistical coin flip.  The run count
per point is fixed at 20 — independent of ``REPRO_BENCH_RUNS`` — because the
binomial noise floor is part of the problem being benchmarked.
``REPRO_BENCH_JOBS`` still fans the simulation runs out over workers.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import BENCH_JOBS
from repro.core.attack_vectors import AttackVector
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    clear_caches,
)
from repro.experiments.store import ExperimentStore
from repro.search import FalsificationLoop, SearchResult, SearchSpec

from repro.sim.sweeps import ParameterSpace, Uniform

# The detector-degradation plane searched for the attack-success pocket.
SPACE = ParameterSpace(
    {
        "detector.sigma_scale": Uniform(0.25, 12.0),
        "detector.misdetection_scale": Uniform(0.5, 8.0),
    }
)

TARGET_SCORE = 0.95  # 19/20 successful runs at a point
RUNS_PER_POINT = 20
BUDGET_RUNS = 1600  # 80 points — an 8x10 grid's worth of simulation budget
SEARCH_SEED = 1


def _search(sampler: str, store_root: Path) -> SearchResult:
    base = CampaignConfig(
        campaign_id="bench-search",
        scenario_id="DS-3",
        attacker=AttackerKind.ROBOTACK,
        vector=AttackVector.MOVE_IN,
        n_runs=RUNS_PER_POINT,
        seed=2020,
        predictor=PredictorKind.KINEMATIC,
    )
    spec = SearchSpec(
        base=base,
        space=SPACE,
        sampler=sampler,
        objective="attack_success",
        budget_runs=BUDGET_RUNS,
        batch_points=8,
        seed=SEARCH_SEED,
        target_score=TARGET_SCORE,
        sampler_options=(
            {"min_sigma": 0.12, "smoothing": 0.5} if sampler == "ce" else {}
        ),
    )
    clear_caches()
    loop = FalsificationLoop(spec, ExperimentStore(store_root), executor=BENCH_JOBS)
    return loop.run()


def test_cross_entropy_halves_random_search_budget(tmp_path):
    ce = _search("ce", tmp_path / "ce")
    random_ = _search("random", tmp_path / "random")

    print("\nAdaptive falsification on DS-3 Move_In (target EB rate >= 0.95):")
    for result in (ce, random_):
        status = "reached" if result.reached_target else "exhausted budget"
        print(
            f"  {result.spec.sampler:>6}: {result.runs_spent:>5} runs "
            f"({result.iterations_completed} iterations, {status}, "
            f"best score {result.best_score:.2f})"
        )

    # The adaptive sampler must actually find the pocket...
    assert ce.reached_target
    assert ce.best_score >= TARGET_SCORE
    assert ce.best_assignment is not None
    # ...and spend at most half the runs blind random search needed (random
    # exhausts its full budget here without reaching the target).
    assert ce.runs_spent <= 0.5 * random_.runs_spent
