"""Tests for scenario builders, the world container, and a run's record."""

import math

import pytest

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.sim.actors import ActorKind, longitudinal_gap
from repro.sim.events import EventKind, SimulationEvent
from repro.sim.scenarios import ScenarioVariation, build_scenario, list_scenario_ids
from repro.sim.simulator import SimulationResult
from repro.sim.world import nearest_in_path
from repro.utils.units import kph_to_mps


class TestScenarioRegistry:
    def test_all_five_scenarios_available(self):
        # The paper's five scenarios must always be registered; the catalog is
        # open (DS-6 platoon cut-in, DS-7 fog crossing, downstream plugins).
        ids = list_scenario_ids()
        assert {"DS-1", "DS-2", "DS-3", "DS-4", "DS-5"} <= set(ids)
        assert {"DS-6", "DS-7"} <= set(ids)
        assert len(ids) >= 7

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError) as error:
            build_scenario("DS-9")
        assert error.value.args[0] == (
            f"unknown scenario 'DS-9'; available: {list_scenario_ids()}"
        )

    def test_default_variation_is_nominal(self):
        a = build_scenario("DS-1")
        b = build_scenario("DS-1", ScenarioVariation.nominal())
        assert a.metadata == b.metadata


class TestDs1:
    def test_target_is_vehicle_60m_ahead(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        assert scenario.target_kind is ActorKind.VEHICLE
        target = scenario.world.actor_by_id(scenario.target_actor_id)
        assert target.x == pytest.approx(60.0)

    def test_target_speed_is_25_kph(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        assert scenario.metadata["tv_speed_mps"] == pytest.approx(kph_to_mps(25.0))

    def test_cruise_speed_is_45_kph(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        assert scenario.cruise_speed_mps == pytest.approx(kph_to_mps(45.0))


class TestDs2:
    def test_target_is_pedestrian(self):
        scenario = build_scenario("DS-2", ScenarioVariation.nominal())
        assert scenario.target_kind is ActorKind.PEDESTRIAN

    def test_pedestrian_starts_off_road(self):
        scenario = build_scenario("DS-2", ScenarioVariation.nominal())
        ped = scenario.world.actor_by_id(scenario.target_actor_id)
        assert abs(ped.y) > scenario.road.ego_lane.width

    def test_pedestrian_crosses_the_ego_lane(self):
        scenario = build_scenario("DS-2", ScenarioVariation.nominal())
        ped = scenario.world.actor_by_id(scenario.target_actor_id)
        crossed = False
        for _ in range(int(scenario.duration_s * 15)):
            scenario.world.step(1.0 / 15.0, ego_acceleration_mps2=0.0)
            if scenario.road.in_ego_lane(ped.y):
                crossed = True
        assert crossed


class TestDs3AndDs4:
    def test_parked_vehicle_in_parking_lane(self):
        scenario = build_scenario("DS-3", ScenarioVariation.nominal())
        parked = scenario.world.actor_by_id(scenario.target_actor_id)
        assert scenario.road.lane_of(parked.y).name == "parking"
        assert (parked.vx, parked.vy) == (0.0, 0.0)

    def test_ds4_pedestrian_walks_towards_ev_then_stops(self):
        scenario = build_scenario("DS-4", ScenarioVariation.nominal())
        ped = scenario.world.actor_by_id(scenario.target_actor_id)
        start_x = ped.x
        for _ in range(int(15 * 15)):
            scenario.world.step(1.0 / 15.0, ego_acceleration_mps2=0.0)
        assert ped.x == pytest.approx(start_x - 5.0, abs=0.2)
        assert math.hypot(ped.vx, ped.vy) == pytest.approx(0.0)

    def test_ds4_pedestrian_stays_out_of_ego_lane(self):
        scenario = build_scenario("DS-4", ScenarioVariation.nominal())
        ped = scenario.world.actor_by_id(scenario.target_actor_id)
        assert not scenario.road.in_ego_lane(ped.y, margin=0.3)


class TestDs5:
    def test_has_background_traffic(self):
        scenario = build_scenario("DS-5", ScenarioVariation.nominal())
        assert len(scenario.world.actors) >= 4

    def test_npc_seed_controls_traffic(self):
        a = build_scenario("DS-5", ScenarioVariation(npc_seed=1))
        b = build_scenario("DS-5", ScenarioVariation(npc_seed=1))
        c = build_scenario("DS-5", ScenarioVariation(npc_seed=999))
        assert len(a.world.actors) == len(b.world.actors)
        assert a.metadata["n_npcs"] == b.metadata["n_npcs"]
        # A different seed may change the number of NPCs or their speeds.
        assert (a.metadata["n_npcs"] != c.metadata["n_npcs"]) or (
            len(a.world.actors) == len(c.world.actors)
        )


class TestScenarioVariation:
    def test_sampled_variation_within_bounds(self, rng):
        variation = ScenarioVariation.sample(rng)
        assert 0.9 <= variation.ego_speed_scale <= 1.1
        assert abs(variation.lead_gap_offset_m) <= 8.0

    def test_variation_changes_initial_gap(self, rng):
        nominal = build_scenario("DS-1", ScenarioVariation.nominal())
        varied = build_scenario("DS-1", ScenarioVariation(lead_gap_offset_m=5.0))
        assert varied.metadata["initial_gap_m"] == pytest.approx(
            nominal.metadata["initial_gap_m"] + 5.0
        )

    @pytest.mark.parametrize("field, value", [
        ("ego_speed_scale", -1.0), ("pedestrian_speed_scale", -0.5),
        ("pedestrian_delay_s", -0.5), ("npc_seed", -1),
    ])
    def test_negative_speed_scale_delay_or_seed_rejected(self, field, value):
        # Each once reached a scenario builder, which crashed on it.
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got "):
            ScenarioVariation(**{field: value})

    @pytest.mark.parametrize("field", ["ego_speed_scale", "lead_gap_offset_m",
                                       "lead_speed_offset_mps", "pedestrian_delay_s",
                                       "pedestrian_speed_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        # A NaN ego speed scale once built an ego driving at NaN m/s.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ScenarioVariation(**{field: value})


class TestWorld:
    def test_step_advances_time_and_actors(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        world = scenario.world
        lead = world.actor_by_id(scenario.target_actor_id)
        time_s, step_index, ego_x, lead_x = world.time_s, world.step_index, world.ego.x, lead.x
        world.step(1.0 / 15.0, ego_acceleration_mps2=0.0)
        assert world.time_s > time_s
        assert world.step_index == step_index + 1
        assert world.ego.x > ego_x
        assert lead.x > lead_x

    def test_invalid_dt_rejected(self):
        world = build_scenario("DS-1").world
        with pytest.raises(ValueError):
            world.step(0.0, 0.0)

    def test_nearest_in_path(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        nearest = nearest_in_path(scenario.world, scenario.road, lateral_margin=0.2)
        assert nearest is not None
        assert nearest.actor_id == scenario.target_actor_id

    def test_parked_vehicle_not_in_path(self):
        scenario = build_scenario("DS-3", ScenarioVariation.nominal())
        assert nearest_in_path(scenario.world, scenario.road, lateral_margin=0.2) is None

    def test_actor_lookup(self):
        scenario = build_scenario("DS-1")
        assert scenario.world.actor_by_id(scenario.target_actor_id) is not None
        assert scenario.world.actor_by_id(10**9) is None

    def test_kind_queries(self):
        scenario = build_scenario("DS-2")
        assert len(scenario.world.pedestrians()) == 1
        assert len(scenario.world.vehicles()) == 0


class TestGroundTruthDelta:
    def test_clear_road_gives_infinite_delta(self):
        scenario = build_scenario("DS-3", ScenarioVariation.nominal())
        delta = ground_truth_delta(scenario.world, scenario.road, SafetyModel())
        assert delta == float("inf")

    def test_lead_vehicle_reduces_delta(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        world = scenario.world
        delta = ground_truth_delta(
            world, scenario.road, SafetyModel(), target_actor_id=scenario.target_actor_id
        )
        gap = longitudinal_gap(world.ego, world.actors[0])
        assert delta == pytest.approx(gap - SafetyModel().stopping_distance(world.ego.speed_mps))


def _result(events=(), true_delta_trace=()):
    """A run's result holding only the given events and ground-truth δ trace."""
    trace = list(true_delta_trace)
    return SimulationResult(
        scenario_id="DS-1",
        events=list(events),
        true_delta_trace=trace,
        perceived_delta_trace=list(trace),
        ego_speed_trace=[10.0] * len(trace),
        steps_executed=len(trace),
        duration_s=len(trace) / 15.0,
        halted_on_collision=False,
        target_actor_id=None,
    )


class TestSimulationResult:
    def test_first_event_and_hazard_flags(self):
        result = _result([SimulationEvent(EventKind.EMERGENCY_BRAKE, 1.0, 15),
                          SimulationEvent(EventKind.EMERGENCY_BRAKE, 2.0, 30)])
        assert result.emergency_braking_occurred
        assert not result.collision_occurred
        assert result.first_event(EventKind.EMERGENCY_BRAKE).step_index == 15
        assert result.first_event(EventKind.COLLISION) is None
        collided = _result([SimulationEvent(EventKind.COLLISION, 3.0, 45, {"actor_id": 1.0})],
                           [10.0, 9.0])
        assert collided.collision_occurred
        assert not collided.emergency_braking_occurred
        # A collision is an accident whatever the δ trace reads.
        assert collided.accident_occurred()

    def test_min_true_delta_from_attack_start(self):
        result = _result([SimulationEvent(EventKind.ATTACK_STARTED, 0.2, 3)],
                         [10.0, 8.0, 3.0, 6.0])
        assert result.min_true_delta_from_attack() == 6.0
        assert not result.accident_occurred()

    def test_min_true_delta_over_the_whole_run_without_an_attack(self):
        result = _result((), [10.0, 8.0, 3.0, 6.0])
        assert result.min_true_delta_from_attack() == 3.0
        assert result.accident_occurred()

    def test_min_true_delta_of_empty_trace(self):
        assert _result().min_true_delta_from_attack() == float("inf")
