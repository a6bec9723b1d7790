"""Scalar-vs-batch engine equivalence: the batch engine's golden-trace gate.

The vectorized :class:`~repro.sim.batch.BatchSimulator` is only usable as a
drop-in campaign engine because it reproduces the reference
:class:`~repro.sim.simulator.Simulator` *bit for bit*: same traces, same
events, same halt behaviour, for every scenario and with or without an
attacker in the loop.  These tests pin that contract — no tolerances.

Event comparisons use ``(kind, step_index, time_s)`` signatures rather than
full event details: the two engines run against independently built scenarios
whose actors draw fresh ids from the module-global actor-id counter, so the
``actor_id`` recorded in COLLISION details legitimately differs between the
two arms of one comparison.
"""

import dataclasses

import numpy as np
import pytest

from repro.ads.agent import AdsAgent
from repro.ads.planning import PlannerConfig
from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_attacker,
    _build_run_setup,
    build_ads_agent,
    standard_campaigns,
)
from repro.geometry import Vec2
from repro.perception.detection import DetectorDegradation
from repro.perception.fusion import FusionConfig, SensorFusion, list_fusion_policies
from repro.perception.pipeline import PerceptionConfig
from repro.sensors.camera import CameraSensor
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.events import EventKind
from repro.sim.scenarios import build_scenario, list_scenario_ids
from repro.sim.simulator import Simulator
from repro.sim.waypoints import Waypoint, WaypointRoute

_ADS_SEED = 1
_SIM_SEED = 2
_ATTACK_SEED = 7


def _benign_setup(scenario_id, fusion=None):
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED), fusion=fusion)
    return scenario, ads, None, np.random.default_rng(_SIM_SEED)


def _attacked_setup(scenario_id, fusion=None):
    """The campaign layer's exact seeding chain, with the random attacker."""
    config = CampaignConfig(
        campaign_id=f"eq-{scenario_id}",
        scenario_id=scenario_id,
        attacker=AttackerKind.RANDOM,
        vector=AttackVector.MOVE_IN,
        n_runs=1,
        seed=_ATTACK_SEED,
    )
    rng = np.random.default_rng(_ATTACK_SEED)
    scenario = build_scenario(scenario_id)
    ads = build_ads_agent(
        scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1))), fusion=fusion
    )
    attacker = _build_attacker(
        config, scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
    )
    return scenario, ads, attacker, np.random.default_rng(int(rng.integers(0, 2**31 - 1)))


_SETUPS = {"benign": _benign_setup, "attacked": _attacked_setup}


def _event_signature(result):
    return [(e.kind, e.step_index, e.time_s) for e in result.events.events]


def _assert_bit_identical(scalar, batch):
    assert scalar.events.true_delta_trace == batch.events.true_delta_trace
    assert scalar.events.perceived_delta_trace == batch.events.perceived_delta_trace
    assert scalar.events.ego_speed_trace == batch.events.ego_speed_trace
    assert _event_signature(scalar) == _event_signature(batch)
    assert scalar.steps_executed == batch.steps_executed
    assert scalar.duration_s == batch.duration_s
    assert scalar.halted_on_collision == batch.halted_on_collision
    scalar_ego = scalar.final_snapshot.ego
    batch_ego = batch.final_snapshot.ego
    assert scalar_ego.position.x == batch_ego.position.x
    assert scalar_ego.position.y == batch_ego.position.y
    assert scalar_ego.speed == batch_ego.speed


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("mode", sorted(_SETUPS))
    def test_single_lane_matches_scalar(self, scenario_id, mode):
        setup = _SETUPS[mode]
        scenario, ads, attacker, rng = setup(scenario_id)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = setup(scenario_id)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_multi_lane_lockstep_is_independent(self):
        """All scenarios in one batch: lanes finish at different steps, and no
        lane's presence perturbs any other lane's result."""
        scenario_ids = list_scenario_ids()
        scalars = []
        for scenario_id in scenario_ids:
            scenario, ads, attacker, rng = _benign_setup(scenario_id)
            scalars.append(Simulator(scenario, ads, attacker=attacker, rng=rng).run())
        specs = []
        for scenario_id in scenario_ids:
            scenario, ads, attacker, rng = _benign_setup(scenario_id)
            specs.append(
                BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            )
        batches = BatchSimulator(specs).run()
        assert len(batches) == len(scalars)
        # Mixed durations force lanes to drop out of the lockstep loop early.
        assert len({result.steps_executed for result in batches}) > 1
        for scalar, batch in zip(scalars, batches):
            _assert_bit_identical(scalar, batch)

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one run spec"):
            BatchSimulator([])

    @pytest.mark.parametrize("scenario_id", list_scenario_ids())
    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar(self, scenario_id, policy):
        """Every non-default fusion policy is bit-identical scalar vs batch
        (the default ``late`` policy is covered by every other test here)."""
        fusion = FusionConfig(policy=policy)
        scenario, ads, attacker, rng = _benign_setup(scenario_id, fusion=fusion)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = _benign_setup(scenario_id, fusion=fusion)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    @pytest.mark.parametrize("policy", [p for p in list_fusion_policies() if p != "late"])
    def test_non_default_policies_match_scalar_under_attack(self, policy):
        """Same gate with the random attacker in the loop (DS-2 hosts the
        pedestrian variant of the perception stack)."""
        fusion = FusionConfig(policy=policy)
        scenario, ads, attacker, rng = _attacked_setup("DS-2", fusion=fusion)
        scalar = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        scenario, ads, attacker, rng = _attacked_setup("DS-2", fusion=fusion)
        batch = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
        ).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_camera_only_agent_is_supported(self):
        """A ``use_lidar=False`` agent resolves to the camera_only policy and
        runs bit-identically on the batch engine (it used to be rejected)."""
        def setup():
            scenario = build_scenario("DS-1")
            ads = AdsAgent(
                road=scenario.road,
                planner_config=PlannerConfig(cruise_speed_mps=scenario.cruise_speed_mps),
                perception_config=PerceptionConfig(use_lidar=False),
                rng=np.random.default_rng(_ADS_SEED),
            )
            return scenario, ads, np.random.default_rng(_SIM_SEED)

        scenario, ads, rng = setup()
        scalar = Simulator(scenario, ads, rng=rng).run()
        scenario, ads, rng = setup()
        batch = BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_custom_fusion_policy_is_rejected(self):
        """The batch engine has plain-float ports of the built-in fusion
        policies only; a third-party policy (here: a SensorFusion subclass it
        has no port for) must fail loudly instead of silently running the
        base-class port and diverging from the scalar path."""

        class CustomFusion(SensorFusion):
            pass

        scenario = build_scenario("DS-1")
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        ads.perception.fusion = CustomFusion()
        with pytest.raises(ValueError, match="built-in"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads)])

    def test_spawn_overlap_halts_batch_lane_at_step_zero(self):
        """The step-0 collision check is mirrored in the batch engine."""
        scenario = build_scenario("DS-1")
        target = next(
            actor
            for actor in scenario.world.actors
            if actor.actor_id == scenario.target_actor_id
        )
        ego = scenario.world.ego
        target.route = WaypointRoute([Waypoint(Vec2(ego.position.x, ego.position.y), 0.0)])
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        result = BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, rng=np.random.default_rng(_SIM_SEED))]
        ).run()[0]
        assert result.halted_on_collision
        assert result.steps_executed == 0
        assert len(result.events.true_delta_trace) == 1
        kinds = [(e.kind, e.step_index) for e in result.events.events]
        assert (EventKind.COLLISION, 0) in kinds
        assert (EventKind.SIMULATION_HALTED, 0) in kinds


# --------------------------------------------------------------------------- #
# Attacked lanes: RoboTack, its ablations, and a protocol-only black box
# --------------------------------------------------------------------------- #

#: The six (scenario, vector) pairs of paper Table II.
_TABLE2_PAIRS = [(config.scenario_id, config.vector) for config in standard_campaigns()]
#: Runs per attacked campaign compared engine against engine.
_ATTACKED_RUNS = 3


def _campaign(scenario_id, attacker, vector=None, degradation=None):
    return CampaignConfig(
        campaign_id=f"eq-{scenario_id}-{attacker.value}",
        scenario_id=scenario_id,
        attacker=attacker,
        vector=vector,
        n_runs=_ATTACKED_RUNS,
        seed=_ATTACK_SEED,
        predictor=PredictorKind.KINEMATIC,
        detector_degradation=degradation,
    )


def _log_target_lookups(attacker):
    """Log (frame index, target box, misses) for every frame the trajectory
    hijacker perturbs: the replica's view of the target at that moment."""
    log = []
    hijacker = attacker.trajectory_hijacker
    perturb = hijacker.perturb_frame

    def logged(frame, attacker_track):
        seen = None
        if attacker_track is not None:
            seen = (attacker_track.bbox, attacker_track.consecutive_misses)
        log.append((frame.frame_index, seen))
        return perturb(frame, attacker_track)

    hijacker.perturb_frame = logged
    return log


def _lane(config, run_index, wrap=None):
    """One run of ``config`` through the campaign layer's seeding chain."""
    predictor = None
    if config.attacker is AttackerKind.ROBOTACK:
        predictor = KinematicSafetyPredictor(config.vector)
    setup = _build_run_setup(config, run_index, predictor=predictor)
    lookups = [] if setup.attacker is None else _log_target_lookups(setup.attacker)
    attacker = setup.attacker if wrap is None else wrap(setup.attacker)
    return setup, attacker, lookups


def _run_both(lanes, wrap=None):
    """Each (config, run index) alone on the scalar engine, then all of them
    as the lanes of one batch; returns (result, attacker, lookups) per lane."""
    scalar = []
    for config, index in lanes:
        setup, attacker, lookups = _lane(config, index, wrap)
        result = Simulator(setup.scenario, setup.ads, config=config.simulation,
                           attacker=attacker, rng=setup.sim_rng).run()
        scalar.append((result, attacker, lookups))
    built = [_lane(config, index, wrap) for config, index in lanes]
    results = BatchSimulator([
        BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=attacker,
                     rng=setup.sim_rng)
        for setup, attacker, _ in built
    ]).run()
    batch = [(result, attacker, lookups)
             for result, (_, attacker, lookups) in zip(results, built)]
    return scalar, batch


def _record_signature(attacker):
    # Actor ids come from a module-global counter (see the module docstring),
    # so the target is compared by kind, not id.
    record = attacker.record
    return repr(dataclasses.replace(record, target_actor_id=None))


def _assert_attacked_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for (s_result, s_attacker, s_log), (b_result, b_attacker, b_log) in zip(scalar, batch):
        _assert_bit_identical(s_result, b_result)
        if s_attacker is not None:
            inner_s = getattr(s_attacker, "inner", s_attacker)
            inner_b = getattr(b_attacker, "inner", b_attacker)
            assert _record_signature(inner_s) == _record_signature(inner_b)
        assert s_log == b_log


def _launched(lanes):
    return [attacker for _, attacker, _ in lanes
            if attacker is not None and attacker.record.launched]


class _ProtocolOnlyAttacker:
    """Implements only the ``CameraAttacker`` protocol: a black box that
    passes every frame through to an inner attacker and reports its state."""

    def __init__(self, inner):
        self.inner = inner
        self.frames_seen = 0

    def process_frame(self, frame, ego_speed_mps, dt):
        self.frames_seen += 1
        return self.inner.process_frame(frame, ego_speed_mps=ego_speed_mps, dt=dt)

    @property
    def attack_active(self):
        return self.inner.attack_active

    @property
    def target_actor_id(self):
        return self.inner.target_actor_id

    @property
    def record(self):
        return self.inner.record


class TestAttackedScalarBatchEquivalence:
    """RoboTack and its baselines on the batch engine: traces, events, the
    attack record and every target-track lookup of the trajectory hijacker
    must match the scalar loop exactly."""

    @pytest.mark.parametrize("scenario_id, vector", _TABLE2_PAIRS)
    def test_robotack_table2_pairs(self, scenario_id, vector):
        config = _campaign(scenario_id, AttackerKind.ROBOTACK, vector)
        scalar, batch = _run_both([(config, index) for index in range(_ATTACKED_RUNS)])
        _assert_attacked_identical(scalar, batch)
        assert _launched(batch)

    def test_robotack_without_safety_hijacker(self):
        lanes = [(_campaign("DS-1", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), 0),
                 (_campaign("DS-2", AttackerKind.ROBOTACK_NO_SH, AttackVector.MOVE_OUT), 0),
                 (_campaign("DS-3", AttackerKind.ROBOTACK_NO_SH, AttackVector.MOVE_IN), 0)]
        scalar, batch = _run_both(lanes)
        _assert_attacked_identical(scalar, batch)
        assert _launched(batch)

    def test_degraded_detector_move_in(self):
        degradation = DetectorDegradation(sigma_scale=6, misdetection_scale=4)
        config = _campaign("DS-3", AttackerKind.ROBOTACK, AttackVector.MOVE_IN, degradation)
        scalar, batch = _run_both([(config, index) for index in range(_ATTACKED_RUNS)])
        _assert_attacked_identical(scalar, batch)
        assert _launched(batch)

    def test_mixed_attacked_and_benign_lanes(self):
        """Attacked and benign lanes in one batch, halting at different steps.

        Covers both moments the perturbation reads the replica's target
        track: on the launch frame it sees this frame's updated tracks, on
        every later attack frame the track as the previous frame left it.
        """
        lanes = [(_campaign(scenario_id, AttackerKind.ROBOTACK, vector), 0)
                 for scenario_id, vector in _TABLE2_PAIRS]
        lanes += [(_campaign("DS-5", AttackerKind.RANDOM), 1),
                  (_campaign("DS-2", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), 1)]
        lanes += [(_campaign(scenario_id, AttackerKind.NONE), 0)
                  for scenario_id in list_scenario_ids()]
        scalar, batch = _run_both(lanes)
        _assert_attacked_identical(scalar, batch)
        assert len({result.steps_executed for result, _, _ in batch}) > 1
        launch_reads = later_reads = 0
        for _, attacker, lookups in batch:
            if attacker is None or not attacker.record.launched:
                continue
            launch_frame = attacker.record.start_frame - 1
            for frame_index, seen in lookups:
                if seen is not None:
                    launch_reads += frame_index == launch_frame
                    later_reads += frame_index > launch_frame
        assert launch_reads and later_reads

    def test_protocol_only_attacker_runs_as_a_black_box(self):
        config = _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR)
        scalar, batch = _run_both([(config, index) for index in range(2)],
                                  wrap=_ProtocolOnlyAttacker)
        _assert_attacked_identical(scalar, batch)
        assert _launched(batch)
        for result, attacker, _ in batch:
            assert attacker.frames_seen == result.steps_executed

    def test_stock_replica_runs_in_the_batch_port(self):
        """A RoboTack lane never calls its scalar replica pipeline on the
        batch engine, and every Kalman row is back in the pool at the end."""
        lanes = [_lane(_campaign("DS-3", AttackerKind.ROBOTACK, AttackVector.MOVE_IN), index)
                 for index in range(_ATTACKED_RUNS)]
        for _, attacker, _ in lanes:
            attacker.perception.process = None  # any call would raise
        simulator = BatchSimulator([
            BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=attacker,
                         rng=setup.sim_rng)
            for setup, attacker, _ in lanes
        ])
        simulator.run()
        assert any(attacker.record.launched for _, attacker, _ in lanes)
        pool = simulator._pool
        assert sorted(pool._free) == list(range(pool.states.shape[0]))

    @pytest.mark.parametrize("variant", ["overridden_hook", "used_attacker"])
    def test_non_stock_attackers_fall_back_to_black_box(self, variant):
        """A subclass that overrides the frame hook, or an attacker whose
        replica already holds state, runs as a black box on every frame."""
        config = _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR)

        def wrap(attacker):
            if variant == "overridden_hook":
                class Hooked(type(attacker)):
                    def process_frame(self, frame, ego_speed_mps, dt):
                        self.frames_seen = getattr(self, "frames_seen", 0) + 1
                        return super().process_frame(frame, ego_speed_mps, dt)
                attacker.__class__ = Hooked
            else:
                scenario = build_scenario("DS-2")
                frame = CameraSensor().capture(scenario.world.snapshot())
                for _ in range(5):
                    attacker.process_frame(frame, ego_speed_mps=10.0, dt=1.0 / 15.0)
            return attacker

        scalar, batch = _run_both([(config, index) for index in range(2)], wrap=wrap)
        _assert_attacked_identical(scalar, batch)
        if variant == "overridden_hook":
            for result, attacker, _ in batch:
                assert attacker.frames_seen == result.steps_executed
