"""End-to-end integration tests: golden runs and attacked runs through the simulator.

These tests exercise the full stack (scenario -> sensors -> perception -> ADS ->
vehicle dynamics) exactly as the experiment campaigns do, and verify the
paper's qualitative behaviours:

* golden (unattacked) runs complete without emergency braking or accidents;
* a well-timed Disappear attack on the DS-2 pedestrian creates a safety hazard;
* a Move_In attack on the DS-3 parked vehicle forces emergency braking without
  any real obstacle in the lane;
* the baseline random attacker rarely achieves anything.
"""

import math

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.training import ScriptedAttacker
from repro.experiments.campaign import build_ads_agent
from repro.sim.actors import longitudinal_gap
from repro.sim.events import EventKind
from repro.sim.scenarios import ScenarioVariation, build_scenario
from repro.sim.simulator import Simulator


def run_scenario(scenario_id, attacker_factory=None, seed=7, variation=None):
    scenario = build_scenario(scenario_id, variation or ScenarioVariation.nominal())
    ads = build_ads_agent(scenario, np.random.default_rng(seed))
    attacker = attacker_factory(scenario) if attacker_factory else None
    simulator = Simulator(
        scenario, ads, attacker=attacker, rng=np.random.default_rng(seed + 1)
    )
    return simulator.run(), attacker, scenario


class TestGoldenRuns:
    @pytest.mark.parametrize("scenario_id", ["DS-1", "DS-2", "DS-3", "DS-4", "DS-5"])
    def test_no_hazard_without_attack(self, scenario_id):
        result, _, _ = run_scenario(scenario_id)
        assert not result.emergency_braking_occurred
        assert not result.collision_occurred
        assert not result.accident_occurred()

    def test_ds1_ev_settles_behind_lead_vehicle(self):
        _, _, scenario = run_scenario("DS-1")
        # The lane stops stepping its world when the run ends.
        world = scenario.world
        lead = world.actor_by_id(scenario.target_actor_id)
        gap = longitudinal_gap(world.ego, lead)
        # The EV follows roughly 15-30 m behind at approximately the TV speed.
        assert 12.0 < gap < 32.0
        assert world.ego.speed_mps == pytest.approx(math.hypot(lead.vx, lead.vy), abs=1.5)

    def test_ds2_ev_keeps_safe_distance_from_crossing_pedestrian(self):
        result, _, _ = run_scenario("DS-2")
        assert result.min_true_delta_from_attack() > 4.0

    def test_ds4_ev_slows_near_pedestrian(self):
        result, _, _ = run_scenario("DS-4")
        # The caution rule caps the speed near the walking pedestrian (paper: 35 kph).
        assert min(result.ego_speed_trace) < 11.0

    def test_traces_recorded_every_step(self):
        result, _, _ = run_scenario("DS-1")
        assert len(result.true_delta_trace) == result.steps_executed
        assert len(result.ego_speed_trace) == result.steps_executed


class TestScriptedAttacks:
    def test_disappear_attack_on_pedestrian_creates_hazard(self):
        def attacker_factory(scenario):
            return ScriptedAttacker(
                scenario.road,
                AttackVector.DISAPPEAR,
                delta_inject_m=36.0,
                k_frames=28,
                rng=np.random.default_rng(2),
            )

        result, attacker, _ = run_scenario("DS-2", attacker_factory)
        assert attacker.record.launched
        assert result.accident_occurred()
        assert result.min_true_delta_from_attack() < 4.0
        assert result.first_event(EventKind.ATTACK_STARTED) is not None

    def test_move_in_attack_on_parked_vehicle_forces_emergency_braking(self):
        def attacker_factory(scenario):
            return ScriptedAttacker(
                scenario.road,
                AttackVector.MOVE_IN,
                delta_inject_m=6.0,
                k_frames=40,
                rng=np.random.default_rng(3),
            )

        result, attacker, _ = run_scenario("DS-3", attacker_factory)
        assert attacker.record.launched
        assert result.emergency_braking_occurred
        # There is no real obstacle in the lane, so no accident results.
        assert not result.collision_occurred
        assert result.min_true_delta_from_attack() == float("inf")

    def test_disappear_attack_on_lead_vehicle_reduces_safety_potential(self):
        def attacker_factory(scenario):
            return ScriptedAttacker(
                scenario.road,
                AttackVector.DISAPPEAR,
                delta_inject_m=12.0,
                k_frames=58,
                rng=np.random.default_rng(4),
            )

        golden, _, _ = run_scenario("DS-1")
        attacked, attacker, _ = run_scenario("DS-1", attacker_factory)
        assert attacker.record.launched
        assert attacked.min_true_delta_from_attack() < golden.min_true_delta_from_attack()

    def test_attack_start_and_end_events_logged(self):
        def attacker_factory(scenario):
            return ScriptedAttacker(
                scenario.road,
                AttackVector.DISAPPEAR,
                delta_inject_m=36.0,
                k_frames=20,
                rng=np.random.default_rng(5),
            )

        result, attacker, _ = run_scenario("DS-2", attacker_factory)
        started = result.first_event(EventKind.ATTACK_STARTED)
        ended = result.first_event(EventKind.ATTACK_ENDED)
        if attacker.record.launched and ended is not None:
            assert started.step_index < ended.step_index
            assert (ended.step_index - started.step_index) == pytest.approx(20, abs=3)

    def test_stealth_bound_respected_by_scripted_attacker(self):
        def attacker_factory(scenario):
            return ScriptedAttacker(
                scenario.road,
                AttackVector.DISAPPEAR,
                delta_inject_m=36.0,
                k_frames=28,
                rng=np.random.default_rng(6),
            )

        _, attacker, _ = run_scenario("DS-2", attacker_factory)
        # 28 consecutive perturbed pedestrian frames stay within the 99th
        # percentile of the characterized misdetection distribution (31).
        assert attacker.record.frames_perturbed <= 31


class TestSimulationResultApi:
    def test_accident_criterion_uses_threshold(self):
        result, _, _ = run_scenario("DS-1")
        assert not result.accident_occurred(accident_delta_m=4.0)
        # With an absurdly generous threshold every run is an "accident".
        assert result.accident_occurred(accident_delta_m=100.0)

    def test_target_actor_defaults_to_scenario_target(self):
        result, _, scenario = run_scenario("DS-1")
        assert result.target_actor_id == scenario.target_actor_id
