"""Tests for the campaign runner, predictor training, and detector characterization.

These tests run real (but short) simulations, so they are the slowest part of
the unit suite; campaigns are kept to a handful of runs.
"""

import dataclasses
import math
import shutil

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor, NeuralSafetyPredictor
from repro.core.training import collect_safety_dataset, train_neural_safety_predictor
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _run_batch_chunk,
    baseline_random_campaign,
    get_or_train_predictor,
    run_campaign,
    run_single_experiment,
    run_single_experiment_record,
    standard_campaigns,
)
from repro.experiments.store import ExperimentStore
from repro.experiments.characterization import characterize_detector
from repro.perception.fusion import FUSION_POLICIES, FusionConfig, SensorFusion
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.sim.actors import ActorKind
from repro.sim.config import SimulationConfig


class TestCampaignConfig:
    def test_robotack_requires_vector(self):
        with pytest.raises(ValueError):
            CampaignConfig(
                campaign_id="x", scenario_id="DS-1", attacker=AttackerKind.ROBOTACK, vector=None
            )

    def test_positive_runs_required(self):
        with pytest.raises(ValueError):
            CampaignConfig(
                campaign_id="x",
                scenario_id="DS-5",
                attacker=AttackerKind.RANDOM,
                n_runs=0,
            )

    def test_non_negative_seed_required(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            CampaignConfig(
                campaign_id="x", scenario_id="DS-1", attacker=AttackerKind.NONE, seed=-5
            )

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_positive_training_epochs_required(self, epochs):
        # A zero-epoch oracle once failed only after its whole collection ran.
        with pytest.raises(ValueError, match="training_epochs must be at least 1"):
            CampaignConfig(
                campaign_id="x", scenario_id="DS-2", attacker=AttackerKind.ROBOTACK,
                vector=AttackVector.DISAPPEAR, training_epochs=epochs,
            )

    def test_camera_rate_must_match_perception_frame_period(self):
        with pytest.raises(ValueError, match="camera_rate_hz=10 is not supported"):
            CampaignConfig(
                campaign_id="x",
                scenario_id="DS-1",
                attacker=AttackerKind.NONE,
                simulation=SimulationConfig(camera_rate_hz=10),
            )
        config = CampaignConfig(
            campaign_id="x",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            simulation=SimulationConfig(camera_rate_hz=15, lidar_rate_hz=5),
        )
        assert config.simulation.dt == 1.0 / 15.0

    def test_standard_campaigns_cover_paper_table(self):
        campaigns = standard_campaigns(n_runs=5)
        assert len(campaigns) == 6
        scenario_vector_pairs = {(c.scenario_id, c.vector) for c in campaigns}
        assert ("DS-1", AttackVector.DISAPPEAR) in scenario_vector_pairs
        assert ("DS-4", AttackVector.MOVE_IN) in scenario_vector_pairs

    def test_baseline_random_campaign_is_ds5(self):
        config = baseline_random_campaign(n_runs=3)
        assert config.scenario_id == "DS-5"
        assert config.attacker is AttackerKind.RANDOM


class TestCampaignFusionConfig:
    """The fusion field's store-compat contract: defaulted configs hash as
    before the fusion-policy refactor, so existing stores stay addressable."""

    def _default_configs(self):
        return [
            CampaignConfig(campaign_id="pin-1", scenario_id="DS-1", attacker=AttackerKind.NONE),
            CampaignConfig(
                campaign_id="pin-2",
                scenario_id="DS-2",
                attacker=AttackerKind.ROBOTACK,
                vector=AttackVector.DISAPPEAR,
                n_runs=5,
                seed=11,
            ),
        ]

    def test_defaulted_config_hashes_are_pinned(self):
        # Captured from the pre-refactor cache_key(); a change here breaks
        # content-addressing of every store written before the refactor.
        from repro.experiments.store import config_hash

        c1, c2 = self._default_configs()
        assert config_hash(c1) == (
            "49cccc6f4125928c200b776a102bd1f9228b4fb25dc062e69ab7eb14e571e3da"
        )
        assert config_hash(c2) == (
            "54cbdcad3969285571d1ae77adb40891a5ea5eb5f4b28daac486c450e7fd7b3f"
        )

    def test_fusion_config_changes_hash(self):
        from repro.experiments.store import config_hash
        from repro.perception.fusion import FusionConfig

        base, _ = self._default_configs()
        with_fusion = dataclasses.replace(base, fusion=FusionConfig(policy="lidar_only"))
        assert config_hash(with_fusion) != config_hash(base)
        # Even an all-default FusionConfig is a distinct (explicit) choice.
        with_default_fusion = dataclasses.replace(base, fusion=FusionConfig())
        assert config_hash(with_default_fusion) != config_hash(base)

    def test_fusion_policy_property(self):
        from repro.perception.fusion import FusionConfig

        base, _ = self._default_configs()
        assert base.fusion_policy == "late"
        gated = dataclasses.replace(base, fusion=FusionConfig(policy="consistency_gated"))
        assert gated.fusion_policy == "consistency_gated"

    def test_json_round_trip_with_fusion(self):
        from repro.perception.fusion import FusionConfig

        base, _ = self._default_configs()
        config = dataclasses.replace(
            base, fusion=FusionConfig(policy="consistency_gated", camera_weight=0.4)
        )
        rebuilt = CampaignConfig.from_json_dict(config.to_json_dict())
        assert rebuilt == config
        assert rebuilt.fusion.policy == "consistency_gated"
        assert rebuilt.fusion.camera_weight == 0.4

    def test_legacy_manifest_without_fusion_key_round_trips(self):
        # Manifests written before the refactor have no "fusion" entry.
        base, _ = self._default_configs()
        payload = base.to_json_dict()
        assert payload["fusion"] is None
        del payload["fusion"]
        rebuilt = CampaignConfig.from_json_dict(payload)
        assert rebuilt == base
        assert rebuilt.fusion is None
        assert rebuilt.fusion_policy == "late"


class TestRunSingleExperiment:
    def test_golden_run_has_no_hazard(self):
        config = CampaignConfig(
            campaign_id="golden-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=1,
            seed=3,
        )
        result = run_single_experiment(config, run_index=0)
        assert not result.attack_launched
        assert not result.emergency_braking
        assert not result.collision
        assert not result.accident
        assert result.min_true_delta_m > 4.0

    def test_runs_are_reproducible_for_same_seed(self):
        config = CampaignConfig(
            campaign_id="repro-ds2",
            scenario_id="DS-2",
            attacker=AttackerKind.NONE,
            n_runs=1,
            seed=5,
        )
        a = run_single_experiment(config, run_index=0)
        b = run_single_experiment(config, run_index=0)
        assert a.min_true_delta_m == pytest.approx(b.min_true_delta_m)
        assert a.seed == b.seed

    def test_different_run_indices_vary_initial_conditions(self):
        config = CampaignConfig(
            campaign_id="vary-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=5,
        )
        a = run_single_experiment(config, run_index=0)
        b = run_single_experiment(config, run_index=1)
        assert a.seed != b.seed

    def test_robotack_kinematic_run_records_attack_metadata(self):
        config = CampaignConfig(
            campaign_id="ds2-disappear-kin",
            scenario_id="DS-2",
            attacker=AttackerKind.ROBOTACK,
            vector=AttackVector.DISAPPEAR,
            n_runs=1,
            seed=9,
            predictor=PredictorKind.KINEMATIC,
        )
        result = run_single_experiment(config, run_index=0)
        if result.attack_launched:
            assert result.planned_k_frames > 0
            assert result.frames_perturbed > 0
            assert result.vector is AttackVector.DISAPPEAR


class TestRunCampaign:
    def test_campaign_caching(self):
        config = CampaignConfig(
            campaign_id="cache-ds1",
            scenario_id="DS-1",
            attacker=AttackerKind.NONE,
            n_runs=2,
            seed=13,
        )
        first = run_campaign(config)
        second = run_campaign(config)
        assert first is second
        uncached = run_campaign(config, use_cache=False)
        assert uncached is not first
        assert uncached.n_runs == first.n_runs

    def test_random_campaign_runs_end_to_end(self):
        config = CampaignConfig(
            campaign_id="random-ds5-smoke",
            scenario_id="DS-5",
            attacker=AttackerKind.RANDOM,
            n_runs=2,
            seed=21,
        )
        campaign = run_campaign(config, use_cache=False)
        assert campaign.n_runs == 2


def _results_equal(a, b) -> bool:
    """Field-wise RunResult equality that treats NaN == NaN (dataclass ``==``
    fails on the NaN-valued attack metrics even for identical runs)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


class TestBatchEngine:
    def _config(self, **overrides) -> CampaignConfig:
        defaults = dict(
            campaign_id="batch-engine-ds3",
            scenario_id="DS-3",
            attacker=AttackerKind.NONE,
            n_runs=5,
            seed=33,
        )
        defaults.update(overrides)
        return CampaignConfig(**defaults)

    def test_batch_records_match_scalar_records(self):
        config = self._config()
        scalar = [run_single_experiment_record(config, index) for index in range(3)]
        batch = _run_batch_chunk(config, [0, 1, 2])
        assert [record.run_index for record in batch] == [0, 1, 2]
        for a, b in zip(scalar, batch):
            assert a.seed == b.seed
            assert _results_equal(a.result, b.result)
            assert a.events == b.events
            assert np.array_equal(a.true_delta_trace, b.true_delta_trace)
            assert np.array_equal(a.perceived_delta_trace, b.perceived_delta_trace)
            assert np.array_equal(a.ego_speed_trace, b.ego_speed_trace)
            assert a.steps_executed == b.steps_executed
            assert a.halted_on_collision == b.halted_on_collision

    def test_batch_campaign_matches_scalar_campaign(self):
        """One run per chunk and the default chunking give the same runs."""
        config = self._config()
        one_lane = run_campaign(config, use_cache=False, batch_size=1)
        batch = run_campaign(config, use_cache=False)
        assert batch.n_runs == one_lane.n_runs == config.n_runs
        assert all(
            _results_equal(a, b) for a, b in zip(one_lane.runs, batch.runs)
        )

    def test_scalar_store_resumes_under_batch_engine(self, tmp_path):
        """Records do not depend on the chunking, so a store partly filled
        by ``run_single_experiment_record`` is finished by 3-run chunks with
        identical merged results."""
        config = self._config(campaign_id="batch-resume-ds3", n_runs=4)
        store = ExperimentStore(tmp_path / "mixed")
        store.write_manifest(config)
        store.append(run_single_experiment_record(config, 2))
        mixed = run_campaign(config, store=store, batch_size=3)
        full = run_campaign(config, store=tmp_path / "batch-only", batch_size=3)
        assert mixed.n_runs == full.n_runs == config.n_runs
        assert all(_results_equal(a, b) for a, b in zip(mixed.runs, full.runs))

    def test_default_engine_runs_a_custom_fuse_fusion_policy(self):
        """A plug-in policy with its own ``fuse`` runs in every lane: the
        default chunking and one run per chunk agree."""

        class NearestOnly(SensorFusion):
            def fuse(self, estimates, lidar, ego_speed_mps, frame_dt_s):
                return super().fuse(estimates, lidar, ego_speed_mps, frame_dt_s)[:1]

        FUSION_POLICIES["nearest_only"] = NearestOnly
        try:
            config = self._config(
                campaign_id="custom-fusion", scenario_id="DS-2",
                attacker=AttackerKind.RANDOM, n_runs=3,
                fusion=FusionConfig(policy="nearest_only"),
            )
            default = run_campaign(config, use_cache=False)
            one_lane = run_campaign(config, use_cache=False, batch_size=1)
        finally:
            del FUSION_POLICIES["nearest_only"]
        assert default.n_runs == one_lane.n_runs == 3
        assert all(_results_equal(a, b) for a, b in zip(default.runs, one_lane.runs))

    def test_default_engine_splits_runs_across_workers(self):
        """A default 30-run campaign is one chunk serially, and is split so
        that each of two workers gets one; the results are the same."""

        class Recording:
            def imap(self, fn, items):
                self.items = list(items)
                return super().imap(fn, self.items)

        class RecordingSerial(Recording, SerialExecutor):
            pass

        class RecordingParallel(Recording, ParallelExecutor):
            pass

        config = self._config(
            campaign_id="split-ds3", n_runs=30,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        serial_executor = RecordingSerial()
        serial = run_campaign(config, use_cache=False, executor=serial_executor)
        with RecordingParallel(max_workers=2) as parallel_executor:
            parallel = run_campaign(config, use_cache=False, executor=parallel_executor)
        assert serial_executor.items == [list(range(30))]
        assert len(parallel_executor.items) >= 2
        assert sorted(sum(parallel_executor.items, [])) == list(range(30))
        assert all(_results_equal(a, b) for a, b in zip(serial.runs, parallel.runs))

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            run_campaign(self._config(), engine=engine)

    def test_non_positive_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_campaign(self._config(), batch_size=0)


class TestPredictorTraining:
    def test_kinematic_predictor_from_registry(self):
        predictor = get_or_train_predictor(
            "DS-1", AttackVector.DISAPPEAR, kind=PredictorKind.KINEMATIC
        )
        assert isinstance(predictor, KinematicSafetyPredictor)

    def test_zero_epochs_fail_before_any_simulation_without_a_store(self, monkeypatch):
        """A store-less neural oracle checks its training spec before it
        collects, as a store-backed one does."""
        from repro.sim.batch import BatchSimulator

        def forbidden(self):  # pragma: no cover - must not run
            raise AssertionError("an untrainable spec must not simulate")

        monkeypatch.setattr(BatchSimulator, "run", forbidden)
        with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
            get_or_train_predictor("DS-2", AttackVector.DISAPPEAR, training_epochs=0)

    def test_storeless_oracle_collects_on_the_callers_executor(self):
        """Without a store, a RoboTack campaign and ``get_or_train_predictor``
        both collect the oracle's dataset on the executor they were given."""
        from repro.experiments.campaign import clear_caches

        class RecordingSerial(SerialExecutor):
            def __init__(self):
                self.calls = []

            def imap(self, fn, items):
                items = list(items)
                self.calls.append((fn.func.__name__, len(items)))
                return super().imap(fn, items)

        config = CampaignConfig(
            campaign_id="storeless-oracle", scenario_id="DS-2",
            attacker=AttackerKind.ROBOTACK, vector=AttackVector.DISAPPEAR,
            n_runs=1, training_epochs=1,
            simulation=SimulationConfig(max_duration_s=1.0),
        )
        campaign_executor, oracle_executor = RecordingSerial(), RecordingSerial()
        clear_caches()
        try:
            run_campaign(config, use_cache=False, executor=campaign_executor)
            clear_caches()
            get_or_train_predictor(
                "DS-2", AttackVector.DISAPPEAR, training_epochs=1, executor=oracle_executor
            )
        finally:
            clear_caches()
        # DS-2's 48 grid points are two chunks (32 + 16 lanes) serially.
        assert campaign_executor.calls == [("_collect_chunk", 2), ("_run_batch_chunk", 1)]
        assert oracle_executor.calls == [("_collect_chunk", 2)]

    def test_collect_dataset_and_train_small(self):
        dataset = collect_safety_dataset(
            scenario_id="DS-2",
            vector=AttackVector.DISAPPEAR,
            delta_inject_values=(42.0, 36.0),
            k_values=(12, 24),
            seed=17,
        )
        assert dataset.n_samples >= 2
        assert dataset.inputs.shape[1] == 4
        predictor, result = train_neural_safety_predictor(dataset, epochs=20, seed=17)
        assert isinstance(predictor, NeuralSafetyPredictor)
        assert result.history.train_loss[-1] <= result.history.train_loss[0] * 1.5

    def test_dataset_merge(self):
        dataset = collect_safety_dataset(
            scenario_id="DS-2",
            vector=AttackVector.DISAPPEAR,
            delta_inject_values=(42.0,),
            k_values=(12,),
            seed=18,
        )
        merged = dataset.merged_with(dataset)
        assert merged.n_samples == 2 * dataset.n_samples

    def test_merge_different_vectors_rejected(self):
        dataset = collect_safety_dataset(
            scenario_id="DS-2",
            vector=AttackVector.DISAPPEAR,
            delta_inject_values=(42.0,),
            k_values=(12,),
            seed=19,
        )
        other = collect_safety_dataset(
            scenario_id="DS-2",
            vector=AttackVector.MOVE_OUT,
            delta_inject_values=(42.0,),
            k_values=(12,),
            seed=19,
        )
        with pytest.raises(ValueError):
            dataset.merged_with(other)


class TestStoreBackedPredictor:
    """The train-once/deploy-many path: campaigns load oracles from the store."""

    def test_predictor_loads_from_registry_instead_of_retraining(self, tmp_path, monkeypatch):
        from repro.experiments import campaign as campaign_module
        from repro.experiments.campaign import clear_caches
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore(tmp_path)
        clear_caches()
        trained = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=3, store=store
        )
        assert isinstance(trained, NeuralSafetyPredictor)
        assert store.model_hashes()  # the oracle was published

        # A "new process": wipe the in-memory cache and forbid retraining.
        clear_caches()

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a registered oracle must be loaded, not retrained")

        monkeypatch.setattr(campaign_module, "train_and_register_predictor", forbidden)
        loaded = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=3, store=store
        )
        raw = np.random.default_rng(0).normal(size=(8, 4)) * 10.0
        np.testing.assert_array_equal(loaded.predict_batch(raw), trained.predict_batch(raw))
        clear_caches()

    def test_each_store_receives_its_own_published_model(self, tmp_path):
        # The oracle is memoized by model hash, but a second store whose
        # registry lacks it must still get the publish-to-registry side effect.
        from repro.experiments.campaign import clear_caches
        from repro.experiments.store import ExperimentStore

        store_a = ExperimentStore(tmp_path / "a")
        store_b = ExperimentStore(tmp_path / "b")
        clear_caches()
        from_a = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=2, store=store_a
        )
        from_b = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=2, store=store_b
        )
        assert store_a.model_hashes() == store_b.model_hashes() != []
        assert from_a is from_b
        clear_caches()

    def test_same_model_in_two_stores_is_one_memoized_oracle(self, tmp_path):
        from repro.experiments import campaign as campaign_module
        from repro.experiments.campaign import clear_caches
        from repro.experiments.store import ExperimentStore

        clear_caches()
        get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=2,
            store=ExperimentStore(tmp_path / "a"),
        )
        shutil.copytree(tmp_path / "a" / "models", tmp_path / "b" / "models")
        # A "new process" that meets the same registered model in two stores.
        clear_caches()
        from_a = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=2,
            store=ExperimentStore(tmp_path / "a"),
        )
        from_b = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, seed=17, training_epochs=2,
            store=ExperimentStore(tmp_path / "b"),
        )
        assert isinstance(from_a, NeuralSafetyPredictor)
        assert from_a is from_b
        assert len(campaign_module._PREDICTOR_CACHE) == 1
        clear_caches()

    def test_default_arguments_train_the_oracle_a_default_campaign_looks_up(self, tmp_path):
        from repro.experiments.campaign import oracle_spec_hash

        store = ExperimentStore(tmp_path)
        get_or_train_predictor("DS-2", AttackVector.DISAPPEAR, store=store)
        model_hash = store.resolve_model_spec(oracle_spec_hash("DS-2", AttackVector.DISAPPEAR))
        assert model_hash is not None
        assert store.model_hashes() == [model_hash]

    def test_kinematic_predictor_ignores_the_store(self, tmp_path):
        from repro.experiments.store import ExperimentStore

        predictor = get_or_train_predictor(
            "DS-1", AttackVector.DISAPPEAR, kind=PredictorKind.KINEMATIC,
            store=ExperimentStore(tmp_path),
        )
        assert isinstance(predictor, KinematicSafetyPredictor)
        assert not (tmp_path / "models").exists()


class TestCharacterization:
    def test_fig5_report_structure(self):
        report = characterize_detector(duration_s=25.0, seed=3)
        assert set(report.per_class) == {ActorKind.VEHICLE, ActorKind.PEDESTRIAN}
        for characterization in report.per_class.values():
            assert characterization.n_frames_observed > 0
            assert characterization.misdetection_burst_fit.rate > 0
            assert characterization.center_error_x_fit.sigma > 0

    def test_kmax_derived_from_characterization(self):
        report = characterize_detector(duration_s=25.0, seed=3)
        assert report.k_max_frames(ActorKind.VEHICLE) >= 1
        assert report.k_max_frames(ActorKind.PEDESTRIAN) >= 1

    def test_pedestrian_center_noise_wider_than_vehicle(self):
        report = characterize_detector(duration_s=40.0, seed=4)
        vehicle = report.per_class[ActorKind.VEHICLE]
        pedestrian = report.per_class[ActorKind.PEDESTRIAN]
        assert pedestrian.center_error_x_fit.sigma > vehicle.center_error_x_fit.sigma

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            characterize_detector(duration_s=0.0)
