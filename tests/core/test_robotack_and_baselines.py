"""Tests for the RoboTack orchestrator (Algorithm 1) and the baseline attackers."""

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.baselines import RandomAttacker, RoboTackWithoutSafetyHijacker
from repro.core.robotack import RoboTack, RoboTackConfig
from repro.core.safety_hijacker import KinematicSafetyPredictor, SafetyHijacker
from repro.perception.detection import DetectorConfig, DetectorNoiseModel
from repro.perception.fusion import FusionConfig
from repro.perception.pipeline import PerceptionConfig
from repro.sensors.camera import CameraSensor
from repro.sim.scenarios import ScenarioVariation, build_scenario

FRAME_DT = 1.0 / 15.0


def quiet_noise(base: DetectorNoiseModel) -> DetectorNoiseModel:
    """A nearly noise-free detector model (for deterministic matcher tests)."""
    return DetectorNoiseModel(
        center_noise_mu_x=0.0,
        center_noise_sigma_x=0.005,
        center_noise_mu_y=0.0,
        center_noise_sigma_y=0.005,
        misdetection_start_probability=1e-9,
        misdetection_burst_p99_frames=base.misdetection_burst_p99_frames,
    )


def quiet_config(vector: AttackVector) -> RoboTackConfig:
    """RoboTack configuration whose own perception is essentially noise-free."""
    detector = DetectorConfig(
        vehicle_noise=quiet_noise(DetectorNoiseModel.vehicle_default()),
        pedestrian_noise=quiet_noise(DetectorNoiseModel.pedestrian_default()),
    )
    return RoboTackConfig(
        allowed_vectors=(vector,),
        perception=PerceptionConfig(
            detector=detector, fusion=FusionConfig(policy="camera_only")
        ),
    )


class _NeverAttackPredictor:
    def predict_delta(self, features, k):
        return 1000.0


def drive_with_attacker(scenario, attacker, n_frames=260, ego_speed=12.5):
    """Feed clean camera frames of a constant-speed drive to the attacker."""
    camera = CameraSensor()
    delivered_frames = []
    for _ in range(n_frames):
        snapshot = scenario.world.snapshot()
        frame = camera.capture(snapshot)
        delivered_frames.append(attacker.process_frame(frame, ego_speed_mps=ego_speed, dt=FRAME_DT))
        scenario.world.step(FRAME_DT, ego_acceleration_mps2=0.0)
    return delivered_frames


def make_robotack(scenario, vector, rng_seed=0):
    predictor = KinematicSafetyPredictor(vector)
    hijacker = SafetyHijacker(predictor)
    config = RoboTackConfig(allowed_vectors=(vector,))
    return RoboTack(scenario.road, hijacker, config, rng=np.random.default_rng(rng_seed))


class TestRoboTack:
    def test_never_attacks_when_oracle_predicts_no_benefit(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        hijacker = SafetyHijacker(_NeverAttackPredictor())
        attacker = RoboTack(
            scenario.road,
            hijacker,
            RoboTackConfig(allowed_vectors=(AttackVector.DISAPPEAR,)),
            rng=np.random.default_rng(0),
        )
        drive_with_attacker(scenario, attacker, n_frames=200)
        assert not attacker.record.launched

    def test_attacks_when_target_close_enough(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        # Driving at constant speed closes the gap until the oracle fires.
        frames = drive_with_attacker(scenario, attacker, n_frames=260)
        assert attacker.record.launched
        assert attacker.record.vector is AttackVector.DISAPPEAR
        assert attacker.record.target_actor_id == scenario.target_actor_id
        assert attacker.record.planned_k_frames > 0
        # During the attack the delivered frames omit the target.
        start = attacker.record.start_frame - 1
        attacked_frame = frames[start]
        assert attacked_frame.object_for_actor(scenario.target_actor_id) is None

    def test_single_episode_per_run(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        drive_with_attacker(scenario, attacker, n_frames=350)
        assert attacker.record.frames_perturbed <= attacker.record.planned_k_frames
        assert not attacker.attack_active
        assert attacker._attack_completed

    def test_replica_stops_once_the_episode_is_over(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        drive_with_attacker(scenario, attacker, n_frames=350)
        assert attacker.episode_over
        replica_calls = []
        attacker.perception.detector.detect = lambda *args: replica_calls.append(args)
        camera = CameraSensor()
        frame = camera.capture(scenario.world.snapshot())
        assert attacker.process_frame(frame, ego_speed_mps=12.5, dt=FRAME_DT) is frame
        assert replica_calls == []

    def test_split_hook_composes_to_process_frame(self):
        """frame_for_replica -> replica -> frame_to_deliver is process_frame,
        with the replica stepped on its row cores as a simulation lane steps
        it."""
        delivered = {}
        for mode in ("whole", "split"):
            scenario = build_scenario("DS-1", ScenarioVariation.nominal())
            attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
            camera = CameraSensor()
            frames = []
            for _ in range(260):
                frame = camera.capture(scenario.world.snapshot())
                if mode == "whole":
                    out = attacker.process_frame(frame, ego_speed_mps=12.5, dt=FRAME_DT)
                else:
                    observed = attacker.frame_for_replica(frame)
                    tracker = attacker.perception.tracker
                    tracker.pool.predict_tracks((tracker,))
                    rows, measurements = [], []
                    tracker.track_rows(
                        attacker.perception.detector.detect_rows(observed.rows()),
                        rows, measurements,
                    )
                    tracker.pool.update_rows(rows, measurements)
                    estimates = attacker.perception.transform.transform(tracker.observed)
                    out = attacker.frame_to_deliver(observed, estimates, 12.5)
                frames.append(tuple((o.kind, o.bbox) for o in out.objects))
                scenario.world.step(FRAME_DT, ego_acceleration_mps2=0.0)
            assert attacker.record.launched
            delivered[mode] = frames
        assert delivered["whole"] == delivered["split"]

    def test_respects_scenario_matcher_rules(self):
        # Move_In is not applicable to an in-path lead vehicle that keeps its lane.
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        predictor = KinematicSafetyPredictor(AttackVector.MOVE_IN)
        attacker = RoboTack(
            scenario.road,
            SafetyHijacker(predictor),
            quiet_config(AttackVector.MOVE_IN),
            rng=np.random.default_rng(1),
        )
        drive_with_attacker(scenario, attacker, n_frames=200)
        assert not attacker.record.launched

    def test_attack_record_features_captured(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        drive_with_attacker(scenario, attacker, n_frames=260)
        record = attacker.record
        assert record.features_at_launch is not None
        assert record.features_at_launch.delta_m > 0
        assert np.isfinite(record.predicted_delta_m)


class TestRandomAttacker:
    def test_attacks_at_random_time_with_random_duration(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = RandomAttacker(
            scenario.road,
            RoboTackConfig(allowed_vectors=(AttackVector.DISAPPEAR,)),
            rng=np.random.default_rng(3),
            start_window_frames=(10, 30),
            candidate_target_actor_ids=[scenario.target_actor_id],
        )
        drive_with_attacker(scenario, attacker, n_frames=150)
        assert attacker.record.launched
        assert attacker.record.start_frame >= 10
        assert 15 <= attacker.record.planned_k_frames <= 85

    def test_fizzles_when_chosen_target_not_visible(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = RandomAttacker(
            scenario.road,
            rng=np.random.default_rng(4),
            start_window_frames=(5, 10),
            candidate_target_actor_ids=[10**9],
        )
        drive_with_attacker(scenario, attacker, n_frames=80)
        assert not attacker.record.launched
        # A fizzled random attack can never launch: its replica stops.
        assert attacker.episode_over

    def test_invalid_start_window_rejected(self, road):
        with pytest.raises(ValueError):
            RandomAttacker(road, start_window_frames=(50, 10))


class TestRoboTackWithoutSafetyHijacker:
    def test_uses_matcher_but_random_timing(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = RoboTackWithoutSafetyHijacker(
            scenario.road,
            RoboTackConfig(allowed_vectors=(AttackVector.DISAPPEAR,)),
            rng=np.random.default_rng(5),
            start_window_frames=(20, 40),
        )
        drive_with_attacker(scenario, attacker, n_frames=200)
        assert attacker.record.launched
        assert attacker.record.vector is AttackVector.DISAPPEAR
        # The random timing ignores the safety potential entirely.
        assert np.isnan(attacker.record.predicted_delta_m)

    def test_matcher_blocks_inapplicable_vector(self):
        scenario = build_scenario("DS-3", ScenarioVariation.nominal())
        attacker = RoboTackWithoutSafetyHijacker(
            scenario.road,
            quiet_config(AttackVector.MOVE_OUT),
            rng=np.random.default_rng(6),
            start_window_frames=(20, 40),
        )
        drive_with_attacker(scenario, attacker, n_frames=200)
        # A parked car outside the ego lane cannot be "moved out".
        assert not attacker.record.launched
