"""Regression tests for the simulation-loop bookkeeping fixes.

Pins the loop-level guarantees, for a run alone (``Simulator.run``) and as
a batch lane where applicable:

* a scenario whose actors spawn already overlapping halts at step 0 instead
  of driving the ego through them for the full duration;
* on a collision halt the impact snapshot still gets a trace entry, so the
  traces are exactly one entry longer than ``steps_executed`` and
  ``min_true_delta_from_attack`` sees the value at impact;
* a run that ends (duration elapsed or collision halt) while an attack is
  still active closes the interval with a final ``ATTACK_ENDED`` event;
* the run's ``SimulationConfig`` sets the ego's acceleration limits.

Each run here is also pinned as a :class:`GoldenDigest` (``GOLDEN_LOOP``),
computed by the scalar step loop this repository had before
``Simulator.run`` became a one-lane batch.
"""

import numpy as np
import pytest
from test_golden_traces import GoldenDigest

from repro.experiments.campaign import build_ads_agent
from repro.geometry import Vec2
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind
from repro.sim.scenarios import build_scenario
from repro.sim.simulator import Simulator
from repro.sim.waypoints import Waypoint, WaypointRoute

_ADS_SEED = 1
_SIM_SEED = 2


def _move_target(scenario, x, y):
    """Park the scenario's target actor at (x, y), stationary."""
    target = next(
        actor
        for actor in scenario.world.actors
        if actor.actor_id == scenario.target_actor_id
    )
    target.route = WaypointRoute([Waypoint(Vec2(x, y), 0.0)])
    return target


def _overlap_scenario():
    scenario = build_scenario("DS-1")
    ego = scenario.world.ego
    _move_target(scenario, ego.position.x, ego.position.y)
    return scenario


def _imminent_collision_scenario():
    """A stationary vehicle parked inside the ego's stopping distance."""
    scenario = build_scenario("DS-1")
    ego = scenario.world.ego
    _move_target(scenario, ego.position.x + 10.0, ego.position.y)
    return scenario


class _AlwaysOnAttacker:
    """Minimal CameraAttacker whose attack never ends on its own."""

    target_actor_id = None

    def __init__(self):
        self.attack_active = False

    def process_frame(self, frame, ego_speed_mps, dt):
        self.attack_active = True
        return frame


def _kinds(result):
    return [(event.kind, event.step_index) for event in result.events.events]


#: The runs below per case, computed by the scalar loop.
GOLDEN_LOOP = {
    "impact": GoldenDigest(
        steps=7, min_delta_m=-22.544, final_speed_mps=10.765,
        events=(("emergency_brake", 2), ("collision", 7), ("simulation_halted", 7)),
        traces_sha256="6258659104674341a2cf89da8e61af4fb15388d9896e4ce9772f042bbb70705b",
    ),
    "open_attack": GoldenDigest(
        steps=525, min_delta_m=9.821, final_speed_mps=6.95,
        events=(("attack_started", 0), ("attack_ended", 525)),
        traces_sha256="98cca44a4ef235054d6f45a07453c0bc17b9c9fa2fce654c6bd3b2ad69dadd19",
    ),
    ("accel", "default"): GoldenDigest(
        steps=375, min_delta_m=12.536, final_speed_mps=12.579,
        events=(),
        traces_sha256="c11e245b9300bf9d18de010caaad62a1eff34dc028f7e024c4e781733c3b8884",
    ),
    ("accel", "limits"): GoldenDigest(
        steps=375, min_delta_m=12.536, final_speed_mps=12.572,
        events=(),
        traces_sha256="ef6046c95e171e228b3f2b5c5ae50207f216f86eb966ea09c02370087d7d93f9",
    ),
    ("decel", "default"): GoldenDigest(
        steps=525, min_delta_m=-2.544, final_speed_mps=0.0,
        events=(
            ("emergency_brake", 2),
            ("emergency_brake", 68),
            ("emergency_brake", 110),
            ("emergency_brake", 129),
            ("emergency_brake", 151),
            ("emergency_brake", 176),
            ("emergency_brake", 201),
            ("emergency_brake", 230),
        ),
        traces_sha256="5687495bf1f7d677783e129af732646c1cb0172aa9298d9ef8e8dc2d63febbce",
    ),
    ("decel", "limits"): GoldenDigest(
        steps=46, min_delta_m=-2.544, final_speed_mps=3.721,
        events=(("emergency_brake", 2), ("collision", 46), ("simulation_halted", 46)),
        traces_sha256="c41b22ed1008fa4b474e1e1c9f1f1fee715192b9c733ee586472371e56dfcd6a",
    ),
}


def _assert_golden(result, key):
    digest = GoldenDigest.of(result)
    assert digest == GOLDEN_LOOP[key], f"{key}: expected {GOLDEN_LOOP[key]}, got {digest}"


class TestSpawnOverlapHalt:
    def test_simulator_halts_at_step_zero(self):
        scenario = _overlap_scenario()
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        result = Simulator(scenario, ads, rng=np.random.default_rng(_SIM_SEED)).run()
        assert result.halted_on_collision
        assert result.steps_executed == 0
        assert len(result.events.true_delta_trace) == 1
        assert (EventKind.COLLISION, 0) in _kinds(result)
        assert (EventKind.SIMULATION_HALTED, 0) in _kinds(result)


class TestCollisionStepTraceEntry:
    @pytest.mark.parametrize("engine", ["simulator", "batch"])
    def test_impact_snapshot_is_traced(self, engine):
        scenario = _imminent_collision_scenario()
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        rng = np.random.default_rng(_SIM_SEED)
        if engine == "simulator":
            result = Simulator(scenario, ads, rng=rng).run()
        else:
            result = BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, rng=rng)]
            ).run()[0]
        _assert_golden(result, "impact")
        assert result.halted_on_collision
        assert result.steps_executed > 0
        # One trace entry per pre-step snapshot plus one for the impact
        # snapshot the loop previously dropped on the floor.
        assert len(result.events.true_delta_trace) == result.steps_executed + 1
        assert len(result.events.perceived_delta_trace) == result.steps_executed + 1
        assert len(result.events.ego_speed_trace) == result.steps_executed + 1
        assert (EventKind.COLLISION, result.steps_executed) in _kinds(result)
        # The impact entry reflects the braking ego at the moment of contact.
        assert result.events.ego_speed_trace[-1] < result.events.ego_speed_trace[0]


class TestOpenAttackIntervalClosed:
    @pytest.mark.parametrize("engine", ["simulator", "batch"])
    def test_run_end_closes_active_attack(self, engine):
        scenario = build_scenario("DS-1")
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        attacker = _AlwaysOnAttacker()
        rng = np.random.default_rng(_SIM_SEED)
        if engine == "simulator":
            result = Simulator(scenario, ads, attacker=attacker, rng=rng).run()
        else:
            result = BatchSimulator(
                [BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)]
            ).run()[0]
        _assert_golden(result, "open_attack")
        kinds = [event.kind for event in result.events.events]
        assert kinds.count(EventKind.ATTACK_STARTED) == 1
        assert kinds.count(EventKind.ATTACK_ENDED) == 1
        # Started and ended are properly ordered and the interval is closed at
        # the final snapshot, not left dangling.
        started = next(
            e for e in result.events.events if e.kind is EventKind.ATTACK_STARTED
        )
        ended = next(
            e for e in result.events.events if e.kind is EventKind.ATTACK_ENDED
        )
        assert started.step_index < ended.step_index
        assert ended.step_index == result.steps_executed


def _parked_ahead_scenario():
    """A stationary vehicle 30 m ahead: the planner brakes at its 6 m/s^2."""
    scenario = build_scenario("DS-1")
    ego = scenario.world.ego
    _move_target(scenario, ego.position.x + 30.0, ego.position.y)
    return scenario


class TestEgoLimitsFromConfig:
    """``simulation.max_decel_mps2`` / ``max_accel_mps2`` bound the ego, run
    alone and as a batch lane (the ego once clamped with its own defaults, 6
    and 2)."""

    CASES = {
        # The planner brakes at 6 m/s^2 for the parked car; capped at 3 the
        # ego no longer stops in time.
        "decel": (_parked_ahead_scenario, SimulationConfig(max_decel_mps2=3.0)),
        # The planner accelerates at up to 1.2 m/s^2 after the pedestrian.
        "accel": (lambda: build_scenario("DS-2"), SimulationConfig(max_accel_mps2=0.5)),
    }

    @staticmethod
    def _run(make_scenario, config, engine):
        scenario = make_scenario()
        ads = build_ads_agent(scenario, np.random.default_rng(_ADS_SEED))
        rng = np.random.default_rng(_SIM_SEED)
        if engine == "simulator":
            return Simulator(scenario, ads, config=config, rng=rng).run()
        return BatchSimulator(
            [BatchRunSpec(scenario=scenario, ads=ads, rng=rng)], config=config
        ).run()[0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_config_limits_bind_alone_and_in_a_batch(self, case):
        make_scenario, limits = self.CASES[case]
        default = self._run(make_scenario, SimulationConfig(), "simulator")
        alone = self._run(make_scenario, limits, "simulator")
        batch = self._run(make_scenario, limits, "batch")
        _assert_golden(default, (case, "default"))
        _assert_golden(alone, (case, "limits"))
        _assert_golden(batch, (case, "limits"))
        # Every step's speed change stays inside the configured limits...
        changes = np.diff(alone.events.ego_speed_trace) / limits.dt
        assert changes.min() >= -limits.max_decel_mps2 - 1e-9
        assert changes.max() <= limits.max_accel_mps2 + 1e-9
        # ...which the planner asked to exceed, so the run differs...
        assert alone.events.ego_speed_trace != default.events.ego_speed_trace
        # ...and the lone run and the batch lane agree bit for bit.
        assert alone.events.true_delta_trace == batch.events.true_delta_trace
        assert alone.events.perceived_delta_trace == batch.events.perceived_delta_trace
        assert alone.events.ego_speed_trace == batch.events.ego_speed_trace
        assert _kinds(alone) == _kinds(batch)
        assert alone.final_snapshot.ego.position == batch.final_snapshot.ego.position
        assert alone.final_snapshot.ego.velocity == batch.final_snapshot.ego.velocity
