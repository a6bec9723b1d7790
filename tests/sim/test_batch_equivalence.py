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

A batch wider than ``LOCKSTEP_LANES`` runs as consecutive lockstep groups; the
multi-lane cases run at the default width and again with groups of 4 lanes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import KinematicSafetyPredictor
from repro.core.training import _build_grid_point, _expand_jobs, _point_samples
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
from repro.sensors.camera import CameraSensor
from repro.sim import batch as batch_module
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
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


class _DropLidarFusion(SensorFusion):
    """A fusion policy with its own ``step`` (it drops the LiDAR scan), so a
    batch runs its lane on the reference Simulator."""

    def step(self, camera_estimates, lidar_scan, ego_speed_mps, frame_dt_s):
        return super().step(camera_estimates, None, ego_speed_mps, frame_dt_s)


@pytest.fixture(params=[None, 4], ids=["default_width", "width_4"])
def lockstep_groups(request, monkeypatch):
    """Run a test at the default ``LOCKSTEP_LANES`` and at 4 lanes per group;
    returns the width of every lockstep group the batches then step."""
    if request.param is not None:
        monkeypatch.setattr(batch_module, "LOCKSTEP_LANES", request.param)
    widths = []
    run_group = BatchSimulator._run_group

    def recorded(simulator, lanes):
        widths.append(len(lanes))
        return run_group(simulator, lanes)

    monkeypatch.setattr(BatchSimulator, "_run_group", recorded)
    return widths


def _assert_grouped(widths, n_batched):
    """The batched lanes ran as consecutive groups of at most LOCKSTEP_LANES."""
    width = batch_module.LOCKSTEP_LANES
    assert widths == [min(width, n_batched - start) for start in range(0, n_batched, width)]


def _assert_pool_free(simulator):
    """Every Kalman row is back in the batch's shared pool."""
    pool = simulator._pool
    assert sorted(pool._free) == list(range(pool.states.shape[0]))


def _event_signature(result):
    return [(e.kind, e.step_index, e.time_s) for e in result.events.events]


def _assert_bit_identical(scalar, batch):
    assert scalar.scenario_id == batch.scenario_id
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

    def test_multi_lane_lockstep_is_independent(self, lockstep_groups):
        """All scenarios in one batch, with a custom-``step`` fusion lane on
        the reference engine among them: lanes finish at different steps, no
        lane's presence perturbs any other lane's result, and results come
        back in spec order."""
        scenario_ids = list_scenario_ids()

        def setups():
            for index, scenario_id in enumerate(scenario_ids):
                yield _benign_setup(scenario_id)
                if index == 1:
                    scenario, ads, attacker, rng = _benign_setup("DS-1")
                    ads.perception.fusion = _DropLidarFusion(ads.perception.config.fusion)
                    yield scenario, ads, attacker, rng

        scalars = [Simulator(scenario, ads, attacker=attacker, rng=rng).run()
                   for scenario, ads, attacker, rng in setups()]
        simulator = BatchSimulator([
            BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            for scenario, ads, attacker, rng in setups()
        ])
        batches = simulator.run()
        assert len(batches) == len(scalars)
        # Mixed durations force lanes to drop out of the lockstep loop early.
        assert len({result.steps_executed for result in batches}) > 1
        for scalar, batch in zip(scalars, batches):
            _assert_bit_identical(scalar, batch)
        _assert_pool_free(simulator)
        _assert_grouped(lockstep_groups, len(scenario_ids))

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

    @staticmethod
    def _mixed_batch_matches_scalar(policy_type):
        """A batch of ported lanes around one ``policy_type`` victim (attacked
        DS-1) matches each lane's own scalar run, and that victim's run
        differs from a late-fusion one, so its own policy really ran."""
        lanes = [("DS-1", "benign", None), ("DS-1", "attacked", policy_type),
                 ("DS-2", "attacked", None)]

        def setups():
            for scenario_id, mode, fusion_type in lanes:
                scenario, ads, attacker, rng = _SETUPS[mode](scenario_id)
                if fusion_type is not None:
                    ads.perception.fusion = fusion_type()
                yield scenario, ads, attacker, rng

        scalars = [Simulator(scenario, ads, attacker=attacker, rng=rng).run()
                   for scenario, ads, attacker, rng in setups()]
        batch = BatchSimulator([
            BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            for scenario, ads, attacker, rng in setups()
        ]).run()
        assert len(batch) == len(scalars)
        for scalar, result in zip(scalars, batch):
            _assert_bit_identical(scalar, result)
        scenario, ads, attacker, rng = _SETUPS["attacked"]("DS-1")
        late = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        assert scalars[1].events.perceived_delta_trace != late.events.perceived_delta_trace

    def test_custom_step_fusion_policy_runs_on_a_reference_lane(self):
        """The batch engine calls a policy's row-level ``fuse`` core, which is
        what ``step`` runs only while it is the shared adapter; a lane whose
        policy has its own ``step`` (here: a SensorFusion subclass that drops
        the LiDAR scan) runs on the reference Simulator, in spec order among
        the ported lanes."""
        self._mixed_batch_matches_scalar(_DropLidarFusion)

    def test_protocol_only_fusion_policy_runs_on_a_reference_lane(self):
        """Same for a policy that implements just the FusionPolicy protocol."""

        class ProtocolOnly:
            config = FusionConfig()

            def reset(self):
                pass

            def step(self, camera_estimates, lidar_scan, ego_speed_mps, frame_dt_s):
                return []

        self._mixed_batch_matches_scalar(ProtocolOnly)

    @pytest.mark.parametrize("mode", sorted(_SETUPS))
    def test_blend_weight_subclass_matches_scalar(self, mode):
        """A built-in subclass that only overrides the blend weights keeps the
        shared ``step`` adapter, so the batch engine runs it through the same
        core: bit-identical to the scalar loop, and different from ``late``."""

        class CameraDistrustingFusion(SensorFusion):
            def _blend_weights(self, track):
                return (0.2, 0.05)

        def run(engine, fusion_type):
            scenario, ads, attacker, rng = _SETUPS[mode]("DS-1")
            ads.perception.fusion = fusion_type(ads.perception.config.fusion)
            if engine == "scalar":
                return Simulator(scenario, ads, attacker=attacker, rng=rng).run()
            return BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
            ).run()[0]

        scalar = run("scalar", CameraDistrustingFusion)
        _assert_bit_identical(scalar, run("batch", CameraDistrustingFusion))
        late = run("scalar", SensorFusion)
        assert scalar.events.perceived_delta_trace != late.events.perceived_delta_trace

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


class TestFreshVictimAgent:
    """The batch engine's camera-stage ports start from empty state, so a
    victim agent that already ran must be reset before it joins a batch."""

    @staticmethod
    def _warmed_setup(reset):
        """The benign DS-1 setup after a 3 s scalar run with the same agent."""
        scenario, ads, _, rng = _benign_setup("DS-1")
        warm_up = SimulationConfig(max_duration_s=3.0)
        Simulator(build_scenario("DS-1"), ads, config=warm_up,
                  rng=np.random.default_rng(_SIM_SEED)).run()
        if reset:
            ads.reset()
        return scenario, ads, rng

    def test_warmed_agent_is_rejected(self):
        scenario, ads, rng = self._warmed_setup(reset=False)
        with pytest.raises(ValueError, match="fresh victim agent"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)])

    @pytest.mark.parametrize("stage", ["detector", "tracker", "transform"])
    def test_each_stateful_camera_stage_is_checked(self, stage):
        scenario, ads, _, rng = _benign_setup("DS-1")
        perception = ads.perception
        if stage == "detector":
            perception.detector._burst_remaining[1] = 3
        elif stage == "tracker":
            perception.tracker.tracks[1] = object()
        else:
            perception.transform._history[1] = object()
        with pytest.raises(ValueError, match="fresh victim agent"):
            BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)])

    def test_reset_agent_matches_scalar(self):
        scenario, ads, rng = self._warmed_setup(reset=True)
        scalar = Simulator(scenario, ads, rng=rng).run()
        scenario, ads, rng = self._warmed_setup(reset=True)
        batch = BatchSimulator([BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]).run()[0]
        _assert_bit_identical(scalar, batch)

    def test_rejected_batch_retries_after_reset(self):
        """A batch rejected for a warmed agent has taken no draw from any
        spec's generator: once that agent is reset, the same specs give every
        lane its scalar result, the fresh lane before it included."""
        scenario, ads, _, rng = _benign_setup("DS-1")
        warm_scenario, warm_ads, warm_rng = self._warmed_setup(reset=False)
        specs = [BatchRunSpec(scenario=scenario, ads=ads, rng=rng),
                 BatchRunSpec(scenario=warm_scenario, ads=warm_ads, rng=warm_rng)]
        with pytest.raises(ValueError, match="fresh victim agent") as rejected:
            BatchSimulator(specs)
        warm_ads.reset()
        batch = BatchSimulator(specs).run()
        scenario, ads, _, rng = _benign_setup("DS-1")
        _assert_bit_identical(Simulator(scenario, ads, rng=rng).run(), batch[0])
        scenario, ads, rng = self._warmed_setup(reset=True)
        _assert_bit_identical(Simulator(scenario, ads, rng=rng).run(), batch[1])
        assert "spec 1's camera perception" in str(rejected.value)


class TestOneAgentAndAttackerPerLane:
    """Two lanes that shared one agent, attacker or scenario would drive one
    tracker, planner, attack record or world, so such a batch is rejected."""

    def test_shared_victim_agent_is_rejected(self):
        setups = [_benign_setup(scenario_id) for scenario_id in ("DS-1", "DS-2", "DS-1")]
        shared_ads = setups[0][1]
        with pytest.raises(ValueError, match="specs 0 and 2 share one victim agent"):
            BatchSimulator([
                BatchRunSpec(scenario=scenario, ads=shared_ads if index == 2 else ads, rng=rng)
                for index, (scenario, ads, _, rng) in enumerate(setups)
            ])

    def test_shared_scenario_is_rejected(self):
        """Each lane drives its scenario's own world."""
        setups = [_benign_setup("DS-1") for _ in range(2)]
        shared_scenario = setups[0][0]
        with pytest.raises(ValueError, match="specs 0 and 1 share one scenario"):
            BatchSimulator([
                BatchRunSpec(scenario=shared_scenario, ads=ads, rng=rng)
                for _, ads, _, rng in setups
            ])

    def test_shared_attacker_is_rejected(self):
        setups = [_attacked_setup(scenario_id) for scenario_id in ("DS-1", "DS-2")]
        shared_attacker = setups[0][2]
        with pytest.raises(ValueError, match="specs 0 and 1 share one attacker"):
            BatchSimulator([
                BatchRunSpec(scenario=scenario, ads=ads, attacker=shared_attacker, rng=rng)
                for scenario, ads, _, rng in setups
            ])


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
    simulator = BatchSimulator([
        BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=attacker,
                     rng=setup.sim_rng)
        for setup, attacker, _ in built
    ])
    results = simulator.run()
    _assert_pool_free(simulator)
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


#: The oracle's training-collection lanes (scripted attacks), as
#: (scenario, vector, delta_inject, k).  Each is the first point of its
#: golden collection grid in ``tests/core/test_training_pipeline.py``.  A
#: 200 m trigger is above any reachable delta, so the attack launches on the
#: first matched target; a -100 m trigger is never reached.
_SCRIPTED_CASES = {
    "DS-2-Disappear": ("DS-2", AttackVector.DISAPPEAR, 55.0, 10),
    "DS-1-Move_Out": ("DS-1", AttackVector.MOVE_OUT, 28.0, 30),
    "DS-3-Move_In": ("DS-3", AttackVector.MOVE_IN, 20.0, 12),
    "DS-7-Disappear-degraded": ("DS-7", AttackVector.DISAPPEAR, 45.0, 10),
    "DS-3-Move_In-trigger_200m": ("DS-3", AttackVector.MOVE_IN, 200.0, 12),
    "DS-2-Disappear-trigger_-100m": ("DS-2", AttackVector.DISAPPEAR, -100.0, 10),
}
_COLLECTION_SEED = 17


def _scripted_lane(case):
    """One collection grid point, built by the training module's own per-job
    setup (same constructors, same seeds); logs the target lookups and every
    scenario-matcher verdict with the frame it was made on."""
    scenario_id, vector, delta_inject, k_frames = _SCRIPTED_CASES[case]
    (job,) = _expand_jobs((delta_inject,), (k_frames,), _COLLECTION_SEED, repeats=1)
    scenario, ads, attacker, rng = _build_grid_point(scenario_id, vector, job)
    lookups = _log_target_lookups(attacker)
    matches = []
    match = attacker.scenario_matcher.match

    def logged(estimate):
        verdict = match(estimate)
        matches.append((attacker._frame_count, verdict))
        return verdict

    attacker.scenario_matcher.match = logged
    return job, scenario, ads, attacker, rng, lookups, matches


@pytest.fixture(scope="module")
def scripted_batch():
    """Every scripted-attack case as the lanes of one batch, by case name."""
    lanes = [_scripted_lane(case) for case in _SCRIPTED_CASES]
    simulator = BatchSimulator([
        BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
        for _, scenario, ads, attacker, rng, _, _ in lanes
    ])
    results = simulator.run()
    _assert_pool_free(simulator)
    return dict(zip(_SCRIPTED_CASES, zip(results, lanes)))


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

    def test_mixed_attacked_and_benign_lanes(self, lockstep_groups):
        """Attacked and benign lanes in one batch, halting at different steps;
        with groups of 4 lanes, the groups split RoboTack, random, no-SH and
        benign lanes.

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
        _assert_grouped(lockstep_groups, len(lanes))
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
        _assert_pool_free(simulator)

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

    @pytest.mark.parametrize("case", list(_SCRIPTED_CASES))
    def test_scripted_attack_lane_matches_scalar(self, scripted_batch, case):
        """A training-collection lane, run alone on the scalar loop, matches
        its lane in the batch of all cases: traces, events, attack record,
        target lookups, matcher verdicts and the collected sample."""
        vector = _SCRIPTED_CASES[case][1]
        job, scenario, ads, attacker, rng, lookups, matches = _scripted_lane(case)
        if case.startswith("DS-7"):  # the fog detector reaches the attacker
            assert scenario.detector_config is not None
            assert attacker.config.perception.detector == scenario.detector_config
        result = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        b_result, (_, _, _, b_attacker, _, b_lookups, b_matches) = scripted_batch[case]
        _assert_attacked_identical([(result, attacker, lookups)],
                                   [(b_result, b_attacker, b_lookups)])
        assert matches == b_matches
        # What the collected sample reads: the label and the launch features.
        samples = _point_samples(vector, job, b_result, b_attacker)
        assert repr(_point_samples(vector, job, result, attacker)) == repr(samples)
        record = b_attacker.record
        for field in ("start_frame", "features_at_launch", "frames_perturbed",
                      "shift_frames_k_prime"):
            assert repr(getattr(attacker.record, field)) == repr(getattr(record, field))

        matched = [frame for frame, verdict in b_matches if verdict is vector]
        assert matched, "the target must reach the scenario matcher"
        if case.endswith("_-100m"):
            assert not record.launched and samples[1:] == ([], [])
        else:
            assert record.launched and record.frames_perturbed and samples[2]
        if case.endswith("_200m"):
            assert record.start_frame == matched[0]
