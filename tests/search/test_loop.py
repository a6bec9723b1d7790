"""Integration tests for the falsification loop against the real simulator.

All campaigns here run the ``none`` attacker with very short simulations, so
each search point is cheap; the contracts under test are orchestration
contracts, not attack efficacy:

* golden regression — ``search --sampler random`` evaluates exactly the
  points (and produces bit-identical run results) of a plain ``sweep`` with
  the random sampler at the same seed;
* crash/resume — a search killed mid-iteration by a faulting executor
  resumes without re-proposing and finishes with a checkpoint bit-identical
  to an uninterrupted search;
* budget/target accounting, step-wise ``max_iterations`` resumes, and the
  store-backed ``search_report`` table.
"""

import dataclasses
import json
import math

import pytest

from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    clear_caches,
    run_campaigns,
)
from repro.experiments.store import ExperimentStore, config_hash
from repro.experiments.tables import search_report_from_store
from repro.runtime import FaultInjectingExecutor, InjectedFault
from repro.search import FalsificationLoop, SearchSpec, search_spec_hash
from repro.search.loop import axes_from_json, axes_to_json
from repro.search.objectives import OBJECTIVES
from repro.sim.config import SimulationConfig
from repro.sim.sweeps import ParameterSpace, Uniform, expand_campaigns, sweep_campaigns

SPACE = ParameterSpace(
    {
        "variation.lead_gap_offset_m": Uniform(-8.0, 8.0),
        "variation.lead_speed_offset_mps": Uniform(-0.8, 0.8),
    }
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _base(n_runs: int = 2, seed: int = 11) -> CampaignConfig:
    # Short benign runs keep the loop fast; orchestration is length-agnostic.
    return CampaignConfig(
        campaign_id="search-ds1",
        scenario_id="DS-1",
        attacker=AttackerKind.NONE,
        n_runs=n_runs,
        seed=seed,
        simulation=SimulationConfig(max_duration_s=1.5),
    )


def _spec(**overrides) -> SearchSpec:
    options = dict(
        base=_base(),
        space=SPACE,
        sampler="ce",
        objective="min_delta_margin",
        budget_runs=12,
        batch_points=3,
        seed=5,
    )
    options.update(overrides)
    return SearchSpec(**options)


def assert_runs_identical(a, b) -> None:
    for name in type(a).__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, float) and math.isnan(left):
            assert isinstance(right, float) and math.isnan(right), name
        else:
            assert left == right, (name, left, right)


class TestGoldenRandomEqualsSweep:
    def test_random_search_is_bit_identical_to_random_sweep(self, tmp_path):
        n_points, search_seed = 4, 9
        spec = _spec(
            sampler="random",
            seed=search_seed,
            batch_points=n_points,
            budget_runs=n_points * 2,
        )
        store = ExperimentStore(tmp_path / "search")
        result = FalsificationLoop(spec, store).run()
        assert result.iterations_completed == 1

        # The plain sweep at the same sampler seed over the same space.
        sweep_configs = sweep_campaigns(
            _base(), SPACE, sampler="random", n=n_points, seed=search_seed
        )
        sweep_results = run_campaigns(sweep_configs, use_cache=False)

        # Same points: reconstruct the search's configs from the sweep's
        # assignments (only the campaign-id prefix differs by design).
        searched = expand_campaigns(
            dataclasses.replace(_base(), campaign_id="search-ds1-i000"),
            SPACE.random(n_points, seed=search_seed),
        )
        for search_config, sweep_config, sweep_result in zip(
            searched, sweep_configs, sweep_results
        ):
            assert search_config.variation == sweep_config.variation
            stored = store.campaign_result(search_config)
            assert stored.n_runs == sweep_result.n_runs
            for left, right in zip(stored.runs, sweep_result.runs):
                assert_runs_identical(left, right)


class TestBudgetAndTarget:
    def test_budget_accounting_truncates_last_batch(self, tmp_path):
        # 12-run budget at 2 runs/point: 3 points, then only 3 more fit.
        spec = _spec(budget_runs=12, batch_points=3)
        result = FalsificationLoop(spec, ExperimentStore(tmp_path)).run()
        assert result.runs_spent == 12
        assert result.iterations_completed == 2
        assert [row.n_points for row in
                search_report_from_store(ExperimentStore(tmp_path), result.search_hash)] == [3, 3]

    def test_target_stops_early(self, tmp_path):
        OBJECTIVES.register(
            "const_one_for_tests",
            lambda: type("ConstOne", (), {
                "name": "const_one_for_tests",
                "score": staticmethod(lambda records: 1.0),
            })(),
            description="test objective scoring every point 1.0",
            overwrite=True,
        )
        spec = _spec(objective="const_one_for_tests", target_score=0.5, budget_runs=30)
        result = FalsificationLoop(spec, ExperimentStore(tmp_path)).run()
        assert result.reached_target
        assert result.iterations_completed == 1
        assert result.runs_spent == 6
        assert result.best_score == 1.0

    def test_max_iterations_steps_then_resumes(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = _spec(budget_runs=12, batch_points=3)
        first = FalsificationLoop(spec, store).run(max_iterations=1)
        assert first.iterations_completed == 1
        assert first.runs_spent == 6
        second = FalsificationLoop(spec, store).run()
        assert second.iterations_completed == 2
        assert second.runs_spent == 12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            _spec(budget_runs=1)  # cannot fund a single 2-run point
        with pytest.raises(ValueError):
            _spec(batch_points=0)
        with pytest.raises(ValueError):
            _spec(target_score=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            _spec(seed=-1)
        with pytest.raises(ValueError):
            FalsificationLoop(_spec(), store=None)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_engine_other_than_batch_is_rejected(self, tmp_path, engine):
        FalsificationLoop(_spec(), ExperimentStore(tmp_path), engine="batch")
        with pytest.raises(ValueError, match="unknown engine"):
            FalsificationLoop(_spec(), ExperimentStore(tmp_path), engine=engine)


class TestCrashResume:
    def test_faulted_search_resumes_bit_identically(self, tmp_path):
        spec = _spec()
        clean_store = ExperimentStore(tmp_path / "clean")
        clean = FalsificationLoop(spec, clean_store).run()

        crash_store = ExperimentStore(tmp_path / "crash")
        # Die after 4 work items: on the default batch engine each 2-run
        # point is one chunk, so this is partway through the second iteration.
        with pytest.raises(InjectedFault):
            FalsificationLoop(
                spec, crash_store, executor=FaultInjectingExecutor(4)
            ).run()
        state = crash_store.load_search_state(clean.search_hash)
        assert state is not None and state["phase"] == "proposed"
        assert state["pending"] is not None

        resumed = FalsificationLoop(spec, crash_store).run()
        assert resumed.runs_spent == clean.runs_spent
        assert resumed.best_score == clean.best_score
        assert resumed.best_assignment == clean.best_assignment

        # The durable checkpoint — sampler RNG stream included — must be
        # bit-identical to the never-interrupted search's.
        clean_state = clean_store.load_search_state(clean.search_hash)
        crash_state = crash_store.load_search_state(clean.search_hash)
        assert json.dumps(crash_state, sort_keys=True) == json.dumps(
            clean_state, sort_keys=True
        )

        # And so must the iteration report.
        clean_rows = search_report_from_store(clean_store, clean.search_hash)
        crash_rows = search_report_from_store(crash_store, clean.search_hash)
        assert crash_rows == clean_rows

    def test_completed_search_rerun_is_a_no_op(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = _spec()
        first = FalsificationLoop(spec, store).run()
        before = store.load_search_state(first.search_hash)
        again = FalsificationLoop(spec, store).run()
        assert again.iterations_completed == first.iterations_completed
        assert again.runs_spent == first.runs_spent
        assert store.load_search_state(first.search_hash) == before


class TestSpecHashAndManifest:
    def test_hash_is_deterministic_and_spec_sensitive(self):
        assert search_spec_hash(_spec()) == search_spec_hash(_spec())
        assert search_spec_hash(_spec()) != search_spec_hash(_spec(sampler="random"))
        assert search_spec_hash(_spec()) != search_spec_hash(_spec(seed=6))
        assert search_spec_hash(_spec()) != search_spec_hash(_spec(budget_runs=14))
        other_space = ParameterSpace(
            {"variation.lead_gap_offset_m": Uniform(-4.0, 4.0)}
        )
        assert search_spec_hash(_spec()) != search_spec_hash(_spec(space=other_space))

    def test_axes_json_round_trip(self):
        assert axes_from_json(axes_to_json(SPACE)) == SPACE

    def test_manifest_records_spec(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = _spec(budget_runs=6, batch_points=3)
        result = FalsificationLoop(spec, store).run()
        manifest = store.load_search_manifest(result.search_hash)
        assert manifest["spec"]["sampler"] == "ce"
        assert manifest["spec"]["base_config_hash"] == config_hash(spec.base)
        assert axes_from_json(manifest["spec"]["axes"]) == SPACE
        assert store.search_hashes() == [result.search_hash]
