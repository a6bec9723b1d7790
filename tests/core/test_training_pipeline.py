"""Tests for the parallel, store-backed oracle training pipeline.

Covers the pipeline's contracts:

* collected datasets match golden digests pinned on the scalar reference
  loop, before collection moved to the batch engine, and an oracle trained
  on a fixed synthetic dataset matches a golden digest of its predictions
  and loss curves;
* serial, parallel, and store-assembled dataset collection are bit-identical
  (per-point seeding + grid-order assembly);
* an interrupted collection resumes from the store's dataset records and
  yields exactly the uninterrupted dataset;
* a trained predictor published into the content-addressed model registry
  reloads to bit-identical predictions, and campaign processes resolve it by
  training-spec hash instead of retraining.

Plus the `_label_for_run` frame-0 clamp regression, and that a collection
lane's victim is the one the scenario's campaigns attack.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor, NeuralSafetyPredictor
from repro.core.training import (
    _CLEAR_ROAD_DELTA_M,
    _build_grid_point,
    _expand_jobs,
    _label_for_run,
    SafetyDataset,
    collect_safety_dataset,
    collection_hash_for,
    dataset_content_hash,
    expand_training_grid,
    load_registered_predictor,
    train_and_register_predictor,
    train_neural_safety_predictor,
    training_spec_hash,
)
from repro.experiments.campaign import AttackerKind, CampaignConfig, _build_run_setup
from repro.experiments.store import ExperimentStore
from repro.perception.fusion import CameraOnlyFusion, FusionConfig
from repro.runtime import (
    FaultInjectingExecutor,
    InjectedFault,
    ParallelExecutor,
    SerialExecutor,
)
from repro.sim import scenarios as scenarios_module
from repro.sim.scenarios import build_scenario, register_scenario

_SCENARIO = "DS-2"
_VECTOR = AttackVector.DISAPPEAR
_DELTAS = (42.0, 36.0)
_KS = (12, 24)


def _collect(**kwargs):
    return collect_safety_dataset(
        scenario_id=_SCENARIO,
        vector=_VECTOR,
        delta_inject_values=_DELTAS,
        k_values=_KS,
        seed=17,
        **kwargs,
    )


def assert_datasets_identical(left, right):
    np.testing.assert_array_equal(left.inputs, right.inputs)
    np.testing.assert_array_equal(left.targets, right.targets)


class TestGridExpansion:
    def test_points_are_indexed_in_grid_order(self):
        grid = expand_training_grid((10.0, 8.0), (3, 5), repeats=2)
        assert [point[0] for point in grid] == list(range(8))
        assert grid[0][1:] == (10.0, 3)
        assert grid[1][1:] == (10.0, 3)  # the repeat rides next to its sibling
        assert grid[2][1:] == (10.0, 5)
        assert grid[-1][1:] == (8.0, 5)

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            expand_training_grid((1.0,), (1,), repeats=0)


#: ``dataset_content_hash`` of ``collect_safety_dataset(..., seed=17,
#: repeats=1)``, computed on the scalar ``Simulator`` loop before collection
#: ran on the batch engine.  The last grid's -100 m trigger never fires, so
#: that dataset holds one sample.
_GOLDEN_DATASETS = {
    "DS-2-Disappear": ("DS-2", AttackVector.DISAPPEAR, (55.0, 30.0), (10, 28),
                       "056ab587795de474d78557505d7ee4a0383468146085f45563026a95dacb7a3a"),
    "DS-1-Move_Out": ("DS-1", AttackVector.MOVE_OUT, (28.0, 12.0), (30, 58),
                      "5bc4e53faec269372c1bf382a9d9a1fcd8270d6afff59321581995061848a444"),
    "DS-3-Move_In": ("DS-3", AttackVector.MOVE_IN, (20.0, 0.0), (12, 55),
                     "b561fbd90bc1dfcc2cdd069e970c17f941866b36c1d1f34eb31d5722ca4d4bac"),
    "DS-7-Disappear": ("DS-7", AttackVector.DISAPPEAR, (45.0, 22.0), (10, 28),
                       "55fd99113ce704f81c1a9f0c6caba3b0985026e0eaba47fc6aa9b107ff9887aa"),
    "DS-2-Disappear-unreached": ("DS-2", AttackVector.DISAPPEAR, (55.0, -100.0), (10,),
                                 "b9b0112c3852f377063ef1b41722229111b4ecc3a66d1aaeec96d598615a3c65"),
}


@pytest.mark.parametrize("case", list(_GOLDEN_DATASETS))
def test_collected_dataset_matches_golden_digest(case):
    scenario_id, vector, deltas, ks, digest = _GOLDEN_DATASETS[case]
    dataset = collect_safety_dataset(scenario_id, vector, deltas, ks, seed=17, repeats=1)
    assert dataset_content_hash(dataset) == digest


#: SHA-256 over a trained oracle's predictions on a fixed probe (float64
#: bytes) and then ``repr`` of its loss curves.  It pins the whole training
#: numerics: He init, dropout masks, the loss gradient and the Adam update, in
#: their draw and evaluation order.  Like perfbench's pinned oracle
#: predictions, it depends on the host's BLAS kernels.
_GOLDEN_TRAINED_ORACLE = "e84af9d00f04abe327e392e3960341e34f4aa37f26f09d3c17b5a60b6c5fd700"


def test_trained_oracle_matches_golden_digest():
    rng = np.random.default_rng(2020)
    inputs = rng.normal(size=(200, 4)) * [10.0, 3.0, 1.0, 15.0] + [20.0, -2.0, 0.0, 30.0]
    targets = inputs[:, :1] - 0.5 * inputs[:, 3:4] + rng.normal(size=(200, 1))
    dataset = SafetyDataset(AttackVector.DISAPPEAR, "synthetic", inputs, targets)
    predictor, result = train_neural_safety_predictor(dataset, epochs=30, seed=7)
    probe = np.random.default_rng(7).normal(size=(64, 4)) * 10.0
    digest = hashlib.sha256()
    predictions = predictor.predict_batch(probe)
    digest.update(np.ascontiguousarray(predictions, dtype=np.float64).tobytes())
    digest.update(repr([result.history.train_loss, result.history.validation_loss]).encode())
    assert digest.hexdigest() == _GOLDEN_TRAINED_ORACLE


class TestCollectionVictim:
    def test_grid_point_victim_is_the_campaign_victim(self):
        """A scenario's own fusion policy holds for the oracle's collection
        lanes as for its campaigns (the collection once built a late-fusion
        victim for every scenario)."""

        @register_scenario("TEST-CAMERA-ONLY", description="DS-2, camera-only victim")
        def _build(variation):
            scenario = build_scenario("DS-2", variation)
            scenario.fusion_config = FusionConfig(policy="camera_only")
            return scenario

        try:
            (job,) = _expand_jobs((55.0,), (10,), 17, repeats=1)
            _, ads, _, _ = _build_grid_point("TEST-CAMERA-ONLY", _VECTOR, job)
            config = CampaignConfig("x", "TEST-CAMERA-ONLY", AttackerKind.ROBOTACK,
                                    vector=_VECTOR, n_runs=1)
            campaign_ads = _build_run_setup(
                config, 0, predictor=KinematicSafetyPredictor(_VECTOR)
            ).ads
        finally:
            del scenarios_module._SCENARIOS["TEST-CAMERA-ONLY"]
            del scenarios_module._DESCRIPTIONS["TEST-CAMERA-ONLY"]
        assert type(ads.perception.fusion) is CameraOnlyFusion
        assert type(campaign_ads.perception.fusion) is CameraOnlyFusion
        assert ads.perception.config == campaign_ads.perception.config


class TestParallelCollection:
    def test_parallel_collection_bit_identical_to_serial(self):
        serial = _collect()
        with ParallelExecutor(max_workers=2) as executor:
            parallel = _collect(executor=executor)
        assert_datasets_identical(serial, parallel)

    @pytest.mark.parametrize("stored", [False, True], ids=["storeless", "stored"])
    def test_out_of_order_chunks_assemble_in_grid_order(self, tmp_path, stored):
        class LastFirst(SerialExecutor):
            """Two workers' worth of chunks, completed last to first."""

            workers = 2

            def imap(self, fn, items):
                return reversed(list(super().imap(fn, items)))

        serial = _collect()
        reordered = _collect(executor=LastFirst(), store=tmp_path if stored else None)
        assert_datasets_identical(serial, reordered)

    def test_store_assembled_dataset_bit_identical_to_serial(self, tmp_path):
        serial = _collect()
        stored = _collect(store=ExperimentStore(tmp_path))
        assert_datasets_identical(serial, stored)

    def test_store_accepts_root_path(self, tmp_path):
        stored = _collect(store=tmp_path)
        assert stored.n_samples >= 1
        assert list(tmp_path.glob("datasets/*.jsonl"))

    def test_collection_writes_manifest(self, tmp_path):
        store = ExperimentStore(tmp_path)
        _collect(store=store)
        collection_hash_ = collection_hash_for(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1
        )
        manifest = store.load_dataset_manifest(collection_hash_)
        assert manifest["scenario_id"] == _SCENARIO
        assert manifest["vector"] == _VECTOR.name
        assert manifest["n_points"] == len(_DELTAS) * len(_KS)

    def test_interrupted_collection_resumes_bit_identical(self, tmp_path):
        clean = _collect()
        store = ExperimentStore(tmp_path)
        # Work items are chunks: two workers split the 4 points into two
        # 2-point chunks, and the fault lands after the first one.
        executor = FaultInjectingExecutor(1, inner=ParallelExecutor(max_workers=2))
        try:
            with pytest.raises(InjectedFault):
                _collect(store=store, executor=executor)
        finally:
            executor.close()
        collection_hash_ = collection_hash_for(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1
        )
        done = store.dataset_point_indices(collection_hash_)
        assert len(done) == 2  # exactly the checkpointed grid points

        resumed = _collect(store=store)
        assert_datasets_identical(resumed, clean)
        # The resume recomputed only the missing points; all are now stored,
        # each appended once.
        assert store.dataset_point_indices(collection_hash_) == set(range(4))
        (log,) = tmp_path.glob("datasets/*.jsonl")
        assert len(log.read_text().splitlines()) == 4

    def test_completed_collection_runs_nothing_on_reload(self, tmp_path):
        store = ExperimentStore(tmp_path)
        first = _collect(store=store)
        # A fault executor that dies on the first item proves nothing runs.
        second = _collect(store=store, executor=FaultInjectingExecutor(0))
        assert_datasets_identical(first, second)

    def test_different_seeds_use_disjoint_collections(self, tmp_path):
        store = ExperimentStore(tmp_path)
        _collect(store=store)
        other = collect_safety_dataset(
            scenario_id=_SCENARIO,
            vector=_VECTOR,
            delta_inject_values=_DELTAS,
            k_values=_KS,
            seed=18,
            store=store,
        )
        assert len(list(tmp_path.glob("datasets/*.jsonl"))) == 2
        assert other.n_samples >= 1


class TestLabelForRunClamp:
    """Regression: an attack launched on frame 0 must not read the trace tail."""

    @staticmethod
    def _attacker(start_frame):
        return SimpleNamespace(
            record=SimpleNamespace(launched=True, start_frame=start_frame)
        )

    def test_frame_zero_attack_reads_window_from_trace_start(self):
        # Rising trace: the minimum lives at the start; the old -1 slice start
        # read [last element] instead (trace[-1:] when k+15 >= len).
        trace = [float(value) for value in range(10, 40)]
        result = SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(0), 20)
        assert label == 10.0

    def test_frame_zero_short_window_is_not_empty(self):
        # With a short window the old trace[-1 : k+14] slice was *empty* and
        # the run was silently dropped from the dataset.
        trace = [30.0, 29.0, 28.0, 27.0] + [26.0] * 40
        result = SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(0), 5)
        assert label == 26.0

    def test_move_in_frame_zero_uses_first_finite_perceived_delta(self):
        trace = [float(_CLEAR_ROAD_DELTA_M)] * 3 + [12.5] + [11.0] * 30
        result = SimpleNamespace(true_delta_trace=[], perceived_delta_trace=trace)
        label = _label_for_run(AttackVector.MOVE_IN, result, self._attacker(0), 10)
        assert label == 12.5

    def test_move_in_label_saturates_when_shift_never_completes(self):
        trace = [float(_CLEAR_ROAD_DELTA_M)] * 40
        result = SimpleNamespace(true_delta_trace=[], perceived_delta_trace=trace)
        label = _label_for_run(AttackVector.MOVE_IN, result, self._attacker(5), 4)
        assert label == _CLEAR_ROAD_DELTA_M

    def test_later_frames_unchanged(self):
        trace = [50.0, 40.0, 30.0, 20.0, 10.0] + [45.0] * 40
        result = SimpleNamespace(true_delta_trace=trace, perceived_delta_trace=[])
        label = _label_for_run(AttackVector.DISAPPEAR, result, self._attacker(3), 2)
        assert label == 10.0

    def test_unlaunched_attack_has_no_label(self):
        result = SimpleNamespace(true_delta_trace=[1.0], perceived_delta_trace=[1.0])
        attacker = SimpleNamespace(record=SimpleNamespace(launched=False, start_frame=None))
        assert _label_for_run(AttackVector.DISAPPEAR, result, attacker, 5) is None


class TestModelRegistry:
    def _train(self, store, executor=None, epochs=8, seed=17):
        return train_and_register_predictor(
            _SCENARIO, _VECTOR, _DELTAS, _KS,
            seed=seed, repeats=1, epochs=epochs, executor=executor, store=store,
        )

    def test_artifact_without_store_is_not_persisted(self):
        artifact = train_and_register_predictor(
            _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1, epochs=4
        )
        assert artifact.model_hash is None
        assert artifact.model_dir is None
        assert isinstance(artifact.predictor, NeuralSafetyPredictor)

    def test_registered_predictor_reloads_bit_identical(self, tmp_path):
        store = ExperimentStore(tmp_path)
        artifact = self._train(store)
        assert store.has_model(artifact.model_hash)

        loaded = load_registered_predictor(store, artifact.spec_hash)
        assert loaded is not None
        raw = np.random.default_rng(5).normal(size=(12, 4)) * 10.0
        np.testing.assert_array_equal(
            loaded.predict_batch(raw), artifact.predictor.predict_batch(raw)
        )

    def test_registry_metadata_records_provenance_and_curves(self, tmp_path):
        store = ExperimentStore(tmp_path)
        artifact = self._train(store, epochs=6)
        metadata = store.load_model_metadata(artifact.model_hash)
        assert metadata["scenario_id"] == _SCENARIO
        assert metadata["vector"] == _VECTOR.name
        assert metadata["dataset_hash"] == artifact.dataset_hash
        assert len(metadata["train_loss"]) == 6
        assert len(metadata["validation_loss"]) == 6

    def test_model_hash_covers_dataset_and_training_config(self, tmp_path):
        store = ExperimentStore(tmp_path)
        base = self._train(store, epochs=4)
        more_epochs = self._train(store, epochs=5)
        other_seed = self._train(store, epochs=4, seed=23)
        hashes = {base.model_hash, more_epochs.model_hash, other_seed.model_hash}
        assert len(hashes) == 3
        assert sorted(store.model_hashes()) == sorted(hashes)

    @pytest.mark.parametrize(
        "bad",
        [dict(epochs=0), dict(repeats=0), dict(learning_rate=0.0), dict(seed=-1),
         dict(train_seed=-1)],
        ids=lambda bad: next(iter(bad)),
    )
    def test_untrainable_spec_fails_before_collecting(self, tmp_path, bad):
        options = dict(seed=17, repeats=1, epochs=4, store=ExperimentStore(tmp_path))
        with pytest.raises(ValueError):
            train_and_register_predictor(
                _SCENARIO, _VECTOR, _DELTAS, _KS, **{**options, **bad}
            )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("learning_rate", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_learning_rate_fails_before_collecting(self, tmp_path, learning_rate):
        # An infinite rate once trained and registered an oracle whose
        # second-epoch loss and predictions were NaN.
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            train_and_register_predictor(
                _SCENARIO, _VECTOR, _DELTAS, _KS, seed=17, repeats=1, epochs=2,
                learning_rate=learning_rate, store=ExperimentStore(tmp_path),
            )
        assert not list(tmp_path.iterdir())

    def test_unknown_spec_resolves_to_none(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec_hash = training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS)
        assert load_registered_predictor(store, spec_hash) is None

    def test_dataset_content_hash_is_content_sensitive(self):
        dataset = _collect()
        other = _collect()
        assert dataset_content_hash(dataset) == dataset_content_hash(other)
        perturbed = _collect()
        perturbed.targets[0, 0] += 1e-9
        assert dataset_content_hash(perturbed) != dataset_content_hash(dataset)

    def test_spec_hash_is_stable_and_spec_sensitive(self):
        base = training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=10)
        assert base == training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=10)
        assert base != training_spec_hash(_SCENARIO, _VECTOR, _DELTAS, _KS, epochs=11)
        assert base != training_spec_hash(
            _SCENARIO, AttackVector.MOVE_OUT, _DELTAS, _KS, epochs=10
        )
