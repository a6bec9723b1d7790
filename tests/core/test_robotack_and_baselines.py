"""Tests for the RoboTack orchestrator (Algorithm 1) and the baseline attackers."""

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.baselines import RandomAttacker, RoboTackWithoutSafetyHijacker
from repro.core.robotack import RoboTack, RoboTackConfig
from repro.core.safety_hijacker import KinematicSafetyPredictor, SafetyHijacker
from repro.experiments.campaign import build_ads_agent
from repro.perception.detection import DetectorConfig, DetectorNoiseModel
from repro.perception.fusion import FusionConfig
from repro.perception.pipeline import PerceptionConfig
from repro.sensors.camera import CameraSensor
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind
from repro.sim.scenarios import ScenarioVariation, build_scenario
from repro.sim.simulator import Simulator

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


#: The actor-id field of a camera row (``CameraSensor.render_rows``).
ACTOR_ID = 2


def attacked_lane(scenario, attacker, n_frames):
    """A simulation lane of ``scenario`` under ``attacker``, at most
    ``n_frames`` camera frames long, against the scenario's victim ADS."""
    ads = build_ads_agent(scenario, np.random.default_rng(0))
    config = SimulationConfig(max_duration_s=n_frames * FRAME_DT)
    return Simulator(scenario, ads, config=config, attacker=attacker,
                     rng=np.random.default_rng(1))


def run_lane(scenario, attacker, n_frames):
    """Run ``attacker`` on :func:`attacked_lane` and return the result."""
    return attacked_lane(scenario, attacker, n_frames).run()


def spy(monkeypatch, owner, name, record):
    """Wrap ``owner.name`` and return the list that gets ``record(args,
    result)`` of each call.  A lane binds the victim's ``detect_rows`` in
    ``start()``, so a spy set before ``run()`` sees every frame."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args):
        out = inner(*args)
        calls.append(record(args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _first_arg(args, out):
    return args[0]


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
        run_lane(scenario, attacker, n_frames=200)
        assert not attacker.record.launched

    def test_attacks_when_target_close_enough(self, monkeypatch):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        lane = attacked_lane(scenario, attacker, n_frames=260)
        # The rows the victim's detector read, one list per frame.
        received = spy(monkeypatch, lane.ads.perception.detector, "detect_rows", _first_arg)
        # Following the lead vehicle closes the gap until the oracle fires.
        lane.run()
        assert attacker.record.launched
        assert attacker.record.vector is AttackVector.DISAPPEAR
        assert attacker.record.target_actor_id == scenario.target_actor_id
        assert attacker.record.planned_k_frames > 0
        # During the attack the delivered frames omit the target.
        attacked_frame = received[attacker.record.start_frame - 1]
        assert not any(row[ACTOR_ID] == scenario.target_actor_id for row in attacked_frame)

    def test_single_episode_per_run(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        result = run_lane(scenario, attacker, n_frames=350)
        assert attacker.record.frames_perturbed <= attacker.record.planned_k_frames
        assert not attacker.attack_active
        assert attacker._attack_completed
        kinds = [event.kind for event in result.events]
        assert kinds.count(EventKind.ATTACK_STARTED) == kinds.count(EventKind.ATTACK_ENDED) == 1

    def test_replica_stops_once_the_episode_is_over(self, monkeypatch):
        """The lane runs the replica every frame until the episode is over,
        then calls neither the replica nor the attacker again: the victim
        reads the camera's own rows."""
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        lane = attacked_lane(scenario, attacker, n_frames=350)
        rendered = spy(monkeypatch, CameraSensor, "render_rows", lambda args, out: out)
        replica_frames = spy(monkeypatch, attacker.perception.detector, "detect_rows",
                             lambda args, out: attacker._frame_count)
        received = spy(monkeypatch, lane.ads.perception.detector, "detect_rows", _first_arg)
        result = lane.run()
        assert attacker.episode_over
        last_frame = attacker.record.start_frame + attacker.record.frames_perturbed - 1
        assert attacker._frame_count == last_frame < result.steps_executed
        assert replica_frames == list(range(1, last_frame))
        assert len(received) == len(rendered) == result.steps_executed
        assert all(delivered is clean for delivered, clean in
                   zip(received[last_frame:], rendered[last_frame:]))

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
        run_lane(scenario, attacker, n_frames=200)
        assert not attacker.record.launched

    def test_attack_record_features_captured(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        attacker = make_robotack(scenario, AttackVector.DISAPPEAR)
        run_lane(scenario, attacker, n_frames=260)
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
        run_lane(scenario, attacker, n_frames=150)
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
        run_lane(scenario, attacker, n_frames=80)
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
        run_lane(scenario, attacker, n_frames=200)
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
        run_lane(scenario, attacker, n_frames=200)
        # A parked car outside the ego lane cannot be "moved out".
        assert not attacker.record.launched
