"""Property and concurrency tests for the durable experiment store.

* round-trip: ``RunRecord`` → JSONL+NPZ → ``RunRecord`` is lossless across
  arbitrary seeds, scenarios, float oddities (NaN, inf), events, and traces;
* concurrency: many writer processes appending to the *same* campaign log
  never corrupt or interleave records (flock-guarded single-write appends);
* hygiene: torn tail lines are tolerated, every record kind written by a
  newer schema is rejected, and queries filter across campaigns.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import NeuralSafetyPredictor
from repro.experiments.results import RunResult
from repro.experiments.store import (
    SCHEMA_VERSION,
    ExperimentStore,
    RunRecord,
    records_equal,
    resolve_store,
)
from repro.runtime import ParallelExecutor
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: What ``ScenarioVariation`` accepts for its speed scales and delay.
non_negative_floats = st.floats(min_value=0.0, allow_infinity=False, width=64)
measure_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def run_results(draw, run_index: int):
    vector = draw(st.sampled_from(list(AttackVector) + [None]))
    return RunResult(
        run_index=run_index,
        seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        scenario_id=draw(st.sampled_from(["DS-1", "DS-2", "DS-7", "DS-X"])),
        attacker_kind=draw(st.sampled_from(["robotack", "random", "none"])),
        vector=vector,
        target_kind=draw(st.sampled_from(list(ActorKind) + [None])),
        attack_launched=draw(st.booleans()),
        emergency_braking=draw(st.booleans()),
        collision=draw(st.booleans()),
        accident=draw(st.booleans()),
        min_true_delta_m=draw(measure_floats),
        true_delta_at_attack_end_m=draw(measure_floats),
        predicted_delta_m=draw(measure_floats),
        planned_k_frames=draw(st.integers(min_value=0, max_value=10**6)),
        frames_perturbed=draw(st.integers(min_value=0, max_value=10**6)),
        k_prime_frames=draw(st.integers(min_value=0, max_value=10**6)),
        delta_at_launch_m=draw(measure_floats),
    )


@st.composite
def run_records(draw):
    run_index = draw(st.integers(min_value=0, max_value=10**6))
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["emergency_brake", "collision", "attack_started", "attack_ended"]
                ),
                st.integers(min_value=0, max_value=10**4),
                finite_floats,
                st.dictionaries(
                    st.text(min_size=1, max_size=12), finite_floats, max_size=3
                ),
            ),
            max_size=6,
        )
    )
    trace = st.lists(measure_floats, max_size=40).map(
        lambda values: np.asarray(values, dtype=np.float64)
    )
    return RunRecord(
        config_hash=draw(st.sampled_from(["a" * 64, "b" * 64])),
        campaign_id=draw(st.text(min_size=1, max_size=24)),
        run_index=run_index,
        seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        variation=ScenarioVariation(
            ego_speed_scale=draw(non_negative_floats),
            lead_gap_offset_m=draw(finite_floats),
            lead_speed_offset_mps=draw(finite_floats),
            pedestrian_delay_s=draw(non_negative_floats),
            pedestrian_speed_scale=draw(non_negative_floats),
            npc_seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        ),
        result=draw(run_results(run_index)),
        steps_executed=draw(st.integers(min_value=0, max_value=10**4)),
        duration_s=draw(finite_floats),
        halted_on_collision=draw(st.booleans()),
        events=tuple(events),
        true_delta_trace=draw(trace),
        perceived_delta_trace=draw(trace),
        ego_speed_trace=draw(trace),
    )


# --------------------------------------------------------------------- #
# Round-trip properties
# --------------------------------------------------------------------- #


class TestRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(record=run_records())
    def test_append_then_load_is_lossless(self, record):
        with tempfile.TemporaryDirectory() as root:
            store = ExperimentStore(root)
            store.append(record)
            loaded = store.load_records(record.config_hash)
            assert len(loaded) == 1
            assert records_equal(record, loaded[0])

    @settings(max_examples=20, deadline=None)
    @given(record=run_records())
    def test_json_dict_round_trip(self, record):
        payload = json.loads(json.dumps(record.to_json_dict()))
        rebuilt = RunRecord.from_json_dict(
            payload,
            record.true_delta_trace,
            record.perceived_delta_trace,
            record.ego_speed_trace,
        )
        assert records_equal(record, rebuilt)

    def test_reappend_same_index_last_write_wins(self, tmp_path, example_record):
        store = ExperimentStore(tmp_path)
        store.append(example_record)
        import dataclasses

        updated = dataclasses.replace(example_record, steps_executed=999)
        store.append(updated)
        loaded = store.load_records(example_record.config_hash)
        assert len(loaded) == 1
        assert loaded[0].steps_executed == 999

    def test_load_without_traces_skips_npz(self, tmp_path, example_record):
        store = ExperimentStore(tmp_path)
        store.append(example_record)
        (record,) = store.load_records(example_record.config_hash, with_traces=False)
        assert record.true_delta_trace.size == 0
        assert record.result.run_index == example_record.result.run_index

    def test_torn_tail_line_is_tolerated(self, tmp_path, example_record):
        store = ExperimentStore(tmp_path)
        store.append(example_record)
        path = tmp_path / "runs" / f"{example_record.config_hash}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"run_index": 7, "truncat')  # simulated crash mid-write
        loaded = store.load_records(example_record.config_hash)
        assert len(loaded) == 1
        assert records_equal(example_record, loaded[0])

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path, example_record):
        # A writer killed mid-append leaves a newline-less tail; the next
        # append must not glue onto it (that would hide its own record too).
        store = ExperimentStore(tmp_path)
        path = tmp_path / "runs" / f"{example_record.config_hash}.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text('{"run_index": 7, "truncat')
        store.append(example_record)
        loaded = store.load_records(example_record.config_hash)
        assert len(loaded) == 1
        assert records_equal(example_record, loaded[0])

    def test_newer_schema_is_rejected(self, tmp_path, example_record):
        store = ExperimentStore(tmp_path)
        store.append(example_record)
        _bump_schema(tmp_path / "runs" / f"{example_record.config_hash}.jsonl")
        with pytest.raises(ValueError, match="newer schema"):
            store.load_records(example_record.config_hash)


@pytest.fixture
def example_record():
    return _make_record("c" * 64, run_index=4, salt=1)


# --------------------------------------------------------------------- #
# Concurrent writers
# --------------------------------------------------------------------- #


def _make_record(config_hash_: str, run_index: int, salt: int) -> RunRecord:
    """A deterministic record with a multi-kilobyte JSONL line.

    The events list is deliberately long so a single record's line exceeds
    the pipe-buffer size under which plain O_APPEND writes happen to be
    atomic — interleaving would corrupt the JSON and fail the reload.
    """
    rng = np.random.default_rng([run_index, salt])
    events = tuple(
        ("emergency_brake", i, float(i) * 0.1, {"perceived_delta_m": float(rng.uniform())})
        for i in range(150)
    )
    return RunRecord(
        config_hash=config_hash_,
        campaign_id="concurrency",
        run_index=run_index,
        seed=int(rng.integers(0, 2**62)),
        variation=ScenarioVariation(npc_seed=run_index),
        result=RunResult(
            run_index=run_index,
            seed=run_index,
            scenario_id="DS-1",
            attacker_kind="none",
            vector=None,
            target_kind=ActorKind.VEHICLE,
            attack_launched=False,
            emergency_braking=False,
            collision=False,
            accident=False,
            min_true_delta_m=float(rng.uniform(4.0, 60.0)),
            true_delta_at_attack_end_m=float("nan"),
            predicted_delta_m=float("nan"),
            planned_k_frames=0,
            frames_perturbed=0,
            k_prime_frames=0,
            delta_at_launch_m=float("nan"),
        ),
        steps_executed=100 + run_index,
        duration_s=float(run_index),
        halted_on_collision=False,
        events=events,
        true_delta_trace=rng.uniform(0.0, 100.0, size=300),
        perceived_delta_trace=rng.uniform(0.0, 100.0, size=300),
        ego_speed_trace=rng.uniform(0.0, 15.0, size=300),
    )


_CONCURRENCY_HASH = "d" * 64
_RUNS_PER_WORKER = 8


def _append_worker(task) -> int:
    root, worker_id = task
    store = ExperimentStore(root)
    for i in range(_RUNS_PER_WORKER):
        run_index = worker_id * _RUNS_PER_WORKER + i
        store.append(_make_record(_CONCURRENCY_HASH, run_index, salt=worker_id))
    return worker_id


class TestConcurrentWriters:
    def test_parallel_workers_never_corrupt_or_interleave(self, tmp_path):
        n_workers = 4
        with ParallelExecutor(max_workers=n_workers) as executor:
            done = executor.map(
                _append_worker, [(str(tmp_path), w) for w in range(n_workers)]
            )
        assert sorted(done) == list(range(n_workers))

        store = ExperimentStore(tmp_path)
        # Every line must parse (load_records silently drops only torn tails;
        # count equality proves nothing was torn or interleaved).
        path = tmp_path / "runs" / f"{_CONCURRENCY_HASH}.jsonl"
        lines = [line for line in path.read_text().splitlines() if line]
        assert len(lines) == n_workers * _RUNS_PER_WORKER
        for line in lines:
            json.loads(line)

        records = store.load_records(_CONCURRENCY_HASH)
        assert [r.run_index for r in records] == list(
            range(n_workers * _RUNS_PER_WORKER)
        )
        for record in records:
            worker_id = record.run_index // _RUNS_PER_WORKER
            expected = _make_record(_CONCURRENCY_HASH, record.run_index, salt=worker_id)
            assert records_equal(record, expected)


# --------------------------------------------------------------------- #
# Dataset records and the model registry
# --------------------------------------------------------------------- #

_COLLECTION_HASH = "c" * 64


class TestDatasetRecords:
    def test_append_then_load_round_trips_floats_exactly(self, tmp_path):
        store = ExperimentStore(tmp_path)
        inputs = [[0.1 + 0.2, -3.725290298461914e-09, 1e308, 42.0]]
        targets = [17.000000000000004]
        store.append_dataset_point(_COLLECTION_HASH, 3, inputs, targets)
        points = store.load_dataset_points(_COLLECTION_HASH)
        assert points == {3: (inputs, targets)}

    def test_empty_sample_batch_is_a_recorded_point(self, tmp_path):
        # A grid point whose scripted attack never fired still checkpoints
        # (with zero rows) so a resume does not re-simulate it.
        store = ExperimentStore(tmp_path)
        store.append_dataset_point(_COLLECTION_HASH, 0, [], [])
        assert store.dataset_point_indices(_COLLECTION_HASH) == {0}
        assert store.load_dataset_points(_COLLECTION_HASH) == {0: ([], [])}

    def test_reappend_same_point_last_write_wins(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.append_dataset_point(_COLLECTION_HASH, 1, [[1.0]], [1.0])
        store.append_dataset_point(_COLLECTION_HASH, 1, [[2.0]], [2.0])
        assert store.load_dataset_points(_COLLECTION_HASH) == {1: ([[2.0]], [2.0])}

    def test_dataset_manifest_is_idempotent(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.write_dataset_manifest(_COLLECTION_HASH, {"n_points": 4})
        store.write_dataset_manifest(_COLLECTION_HASH, {"n_points": 999})
        manifest = store.load_dataset_manifest(_COLLECTION_HASH)
        assert manifest["n_points"] == 4
        assert manifest["collection_hash"] == _COLLECTION_HASH

    def test_collections_are_isolated(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.append_dataset_point("a" * 64, 0, [[1.0]], [1.0])
        assert store.dataset_point_indices("b" * 64) == set()


class TestModelRegistry:
    _MODEL_HASH = "d" * 64

    def _publish(self, store, content="weights"):
        def write(staging):
            (staging / "artifact.txt").write_text(content)

        return store.publish_model(self._MODEL_HASH, write, {"scenario_id": "DS-2"})

    def test_publish_is_atomic_and_readable(self, tmp_path):
        store = ExperimentStore(tmp_path)
        final = self._publish(store)
        assert store.has_model(self._MODEL_HASH)
        assert (final / "artifact.txt").read_text() == "weights"
        metadata = store.load_model_metadata(self._MODEL_HASH)
        assert metadata["model_hash"] == self._MODEL_HASH
        assert metadata["scenario_id"] == "DS-2"
        # No staging leftovers.
        assert not list((tmp_path / "models").glob(".tmp-*"))

    def test_republish_same_hash_is_a_no_op(self, tmp_path):
        store = ExperimentStore(tmp_path)
        self._publish(store, content="first")
        self._publish(store, content="second")  # content-addressed: same artifact
        assert (store.model_dir(self._MODEL_HASH) / "artifact.txt").read_text() == "first"

    def test_spec_index_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec_hash = "e" * 64
        assert store.resolve_model_spec(spec_hash) is None
        store.register_model_spec(spec_hash, self._MODEL_HASH, {"scenario_id": "DS-2"})
        assert store.resolve_model_spec(spec_hash) == self._MODEL_HASH

    def test_model_hashes_excludes_index_and_staging(self, tmp_path):
        store = ExperimentStore(tmp_path)
        self._publish(store)
        store.register_model_spec("f" * 64, self._MODEL_HASH)
        (tmp_path / "models" / ".tmp-leftover").mkdir()
        assert store.model_hashes() == [self._MODEL_HASH]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_published_model_is_durable_before_its_index_entry(self, tmp_path, monkeypatch):
        # Write-ahead, as for a run line and its NPZ: every file and directory
        # of the model reaches disk before the rename publishes it, and
        # models/ after it, so a durable index entry implies a durable model.
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.readlink(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store = ExperimentStore(tmp_path.resolve())
        predictor = NeuralSafetyPredictor.untrained(rng=np.random.default_rng(0))
        final = store.publish_model(
            self._MODEL_HASH, lambda staging: predictor.save(staging / "predictor"), {}
        )
        store.register_model_spec("e" * 64, self._MODEL_HASH)

        staging = final.parent / f".tmp-{self._MODEL_HASH}-{os.getpid()}"
        tree = [final, *final.rglob("*")]
        assert len(tree) == 7  # 3 directories, 4 files
        renamed = synced.index(str(final.parent))
        assert {str(staging / path.relative_to(final)) for path in tree} <= set(synced[:renamed])
        assert str(final.parent / "index") in synced[renamed + 1:]


# --------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------- #


class TestQueries:
    def test_iter_records_filters_across_campaigns(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.append(_make_record("e" * 64, run_index=0, salt=0))
        store.append(_make_record("f" * 64, run_index=1, salt=0))
        assert len(list(store.iter_records())) == 2
        assert len(list(store.iter_records(scenario_id="DS-1"))) == 2
        assert list(store.iter_records(scenario_id="DS-9")) == []
        assert len(list(store.iter_records(campaign_id="concurrency"))) == 2

    def test_empty_store_queries(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert store.run_indices("0" * 64) == set()
        assert store.load_records("0" * 64) == []
        assert list(store.iter_records()) == []
        assert store.manifests() == {}
        assert store.incomplete_campaigns() == []
        assert store.campaign_results() == []


class TestResolveStore:
    """The one resolver behind every ``store=`` argument."""

    def test_none_means_no_store(self):
        assert resolve_store(None) is None

    def test_store_instances_pass_through(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert resolve_store(store) is store

    @pytest.mark.parametrize("as_root", [str, Path], ids=["str", "path"])
    def test_root_paths_open_a_store(self, tmp_path, as_root):
        store = resolve_store(as_root(tmp_path / "store"))
        assert isinstance(store, ExperimentStore)
        assert store.root == tmp_path / "store"


class TestConsumers:
    """The table/figure layer reads stored runs instead of re-simulating."""

    def test_tables_and_summaries_come_from_stored_runs(self, tmp_path):
        from repro.experiments.campaign import AttackerKind, CampaignConfig, run_campaign
        from repro.experiments.figures import fig7_panels_from_store
        from repro.experiments.tables import table2_from_store
        from repro.sim.config import SimulationConfig

        config = CampaignConfig(
            campaign_id="store-consumers",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=77,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        store = ExperimentStore(tmp_path)
        executed = run_campaign(config, store=store)

        (row,) = table2_from_store(store)
        assert row.campaign_id == "store-consumers"
        assert row.n_runs == 2
        assert row.emergency_braking_count == executed.emergency_braking_count

        (summary,) = store.summaries()
        assert summary.campaign_id == "store-consumers"
        assert summary.n_runs == 2

        # Benign campaigns launch no attacks, so Fig. 7 has no panels — but
        # the store-backed path must still assemble without re-simulating.
        assert fig7_panels_from_store(store) == []
        assert fig7_panels_from_store(store, [config]) == []

    def test_incomplete_campaigns_are_rejected_by_aggregators(self, tmp_path):
        from repro.experiments.campaign import AttackerKind, CampaignConfig, run_campaign
        from repro.experiments.figures import fig7_panels_from_store
        from repro.experiments.tables import table2_from_store
        from repro.runtime import FaultInjectingExecutor, InjectedFault
        from repro.sim.config import SimulationConfig

        config = CampaignConfig(
            campaign_id="partial",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=3,
            seed=13,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        store = ExperimentStore(tmp_path)
        with pytest.raises(InjectedFault):
            # One run per work item, so the fault leaves one run stored.
            run_campaign(
                config, store=store, executor=FaultInjectingExecutor(1), batch_size=1
            )

        # Rates over 1 of 3 runs would be silently wrong statistics.
        with pytest.raises(ValueError, match="incomplete"):
            table2_from_store(store)
        with pytest.raises(ValueError, match="incomplete"):
            fig7_panels_from_store(store)
        with pytest.raises(ValueError, match="incomplete"):
            store.summaries()
        with pytest.raises(ValueError, match="incomplete"):
            store.campaign_result(config)
        # Explicit opt-in (and the resume machinery) still see partial data.
        (row,) = table2_from_store(store, allow_partial=True)
        assert row.n_runs == 1
        assert store.campaign_result(config, allow_partial=True).n_runs == 1

    def test_requested_unknown_hash_raises(self, tmp_path):
        store = ExperimentStore(tmp_path)
        with pytest.raises(KeyError, match="no manifest stored"):
            store.campaign_results(config_hashes=["0" * 64])

    def test_fusion_defense_table_from_swept_store(self, tmp_path):
        """A fusion.policy sweep written through a store renders the defense
        table end to end: each stored campaign lands in its policy cell."""
        from repro.experiments.campaign import AttackerKind, CampaignConfig, run_campaign
        from repro.experiments.tables import fusion_defense_from_store
        from repro.sim.config import SimulationConfig
        from repro.sim.sweeps import Choice, ParameterSpace, sweep_campaigns

        base = CampaignConfig(
            campaign_id="fusion-defense",
            scenario_id="DS-1",
            attacker=AttackerKind.RANDOM,
            vector=AttackVector.MOVE_IN,
            n_runs=2,
            seed=5,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        space = ParameterSpace(
            {"fusion.policy": Choice(("late", "consistency_gated"))}
        )
        configs = sweep_campaigns(base, space, sampler="grid")
        assert [c.fusion_policy for c in configs] == ["late", "consistency_gated"]

        store = ExperimentStore(tmp_path)
        for config in configs:
            run_campaign(config, store=store)

        rows = fusion_defense_from_store(store)
        assert [(r.scenario_id, r.fusion_policy) for r in rows] == [
            ("DS-1", "consistency_gated"),
            ("DS-1", "late"),
        ]
        for row in rows:
            assert row.n_campaigns == 1
            assert row.n_runs == 2
            assert 0.0 <= row.attack_success_rate <= 1.0

        # The manifests round-trip the fusion config, so a fresh store handle
        # (a later analysis session) renders the same table.
        rows_again = fusion_defense_from_store(ExperimentStore(tmp_path))
        assert rows_again == rows


# --------------------------------------------------------------------- #
# Schema checks — one per record kind
# --------------------------------------------------------------------- #


def _bump_schema(path) -> None:
    """Rewrite a stored document or log as if a newer store had written it."""
    if path.suffix == ".jsonl":
        lines = [json.loads(line) for line in path.read_text().splitlines() if line]
    else:
        lines = [json.loads(path.read_text())]
    for payload in lines:
        payload["schema"] = SCHEMA_VERSION + 1
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(payload) + "\n" for payload in lines))
    else:
        path.write_text(json.dumps(lines[0], indent=2))


_HASH = "a" * 64


def _campaign_manifest(store):
    from repro.experiments.campaign import AttackerKind, CampaignConfig

    config = CampaignConfig(
        campaign_id="schema", scenario_id="DS-1", attacker=AttackerKind.NONE, n_runs=1
    )
    return store.root / "manifests" / f"{store.write_manifest(config)}.json"


def _model_registry(store):
    store.publish_model(_HASH, lambda staging: None, {"scenario_id": "DS-2"})
    return store.model_dir(_HASH) / "registry.json"


def _model_index(store):
    store.register_model_spec(_HASH, _HASH)
    return store.root / "models" / "index" / f"{_HASH}.json"


def _search_manifest(store):
    store.write_search_manifest(_HASH, {"spec": {}})
    return store.search_dir(_HASH) / "manifest.json"


def _search_state(store):
    store.save_search_state(_HASH, {"phase": "observed"})
    return store.search_dir(_HASH) / "state.json"


def _run_line(store):
    store.append(_make_record(_HASH, run_index=0, salt=0))
    return store.root / "runs" / f"{_HASH}.jsonl"


def _dataset_line(store):
    store.append_dataset_point(_HASH, 0, [[1.0]], [1.0])
    return store.root / "datasets" / f"{_HASH}.jsonl"


def _iteration_line(store):
    store.append_search_iteration(_HASH, {"iteration": 0})
    return store.search_dir(_HASH) / "iterations.jsonl"


def _dataset_manifest(store):
    store.write_dataset_manifest(_HASH, {"n_points": 1})
    return store.root / "manifests" / "datasets" / f"{_HASH}.json"


#: (record kind, writer returning the written path, readers that must reject it)
_RECORD_KINDS = [
    ("run line", _run_line,
     [lambda s: s.load_records(_HASH), lambda s: s.run_indices(_HASH)]),
    ("dataset line", _dataset_line,
     [lambda s: s.load_dataset_points(_HASH), lambda s: s.dataset_point_indices(_HASH)]),
    ("iteration line", _iteration_line, [lambda s: s.load_search_iterations(_HASH)]),
    ("campaign manifest", _campaign_manifest,
     [lambda s: s.manifests(), lambda s: s.campaign_results(allow_partial=True),
      lambda s: s.incomplete_campaigns()]),
    ("dataset manifest", _dataset_manifest, [lambda s: s.load_dataset_manifest(_HASH)]),
    ("model registry", _model_registry, [lambda s: s.load_model_metadata(_HASH)]),
    ("model index", _model_index, [lambda s: s.resolve_model_spec(_HASH)]),
    ("search manifest", _search_manifest, [lambda s: s.load_search_manifest(_HASH)]),
    ("search state", _search_state, [lambda s: s.load_search_state(_HASH)]),
]


class TestSchemaVersion:
    @pytest.mark.parametrize(
        "write, readers", [kind[1:] for kind in _RECORD_KINDS],
        ids=[kind[0] for kind in _RECORD_KINDS],
    )
    def test_newer_schema_is_rejected(self, tmp_path, write, readers):
        store = ExperimentStore(tmp_path)
        path = write(store)
        for read in readers:
            read(store)  # the current schema reads back
        _bump_schema(path)
        for read in readers:
            with pytest.raises(ValueError, match="newer schema"):
                read(store)

    @pytest.mark.parametrize(
        "write", [kind[1] for kind in _RECORD_KINDS],
        ids=[kind[0] for kind in _RECORD_KINDS],
    )
    def test_every_record_starts_with_its_schema(self, tmp_path, write):
        # Documents are indent-2 JSON and log lines compact JSON, both with
        # ``schema`` first: the byte layout existing stores were written in.
        path = write(ExperimentStore(tmp_path))
        if path.suffix == ".jsonl":
            expected = f'{{"schema":{SCHEMA_VERSION},'
        else:
            expected = f'{{\n  "schema": {SCHEMA_VERSION},\n'
        assert path.read_text().startswith(expected)
