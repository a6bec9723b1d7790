"""Tests for waypoint routes, scripted actors, and the ego vehicle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.sim.actors import (
    ActorDimensions,
    ActorKind,
    EgoVehicle,
    ScriptedActor,
    colliding_actor,
    longitudinal_gap,
)
from repro.sim.waypoints import Waypoint, WaypointRoute


class TestWaypointRoute:
    def test_stationary_route_never_moves(self):
        route = WaypointRoute.stationary(Vec2(5, 1))
        route.advance(10.0)
        assert route.position == Vec2(5, 1)
        assert route.velocity == Vec2(0, 0)

    def test_straight_line_progress(self):
        route = WaypointRoute.straight_line(Vec2(0, 0), Vec2(10, 0), speed_mps=2.0)
        route.advance(1.0)
        assert route.position.x == pytest.approx(2.0)
        assert route.velocity == Vec2(2.0, 0.0)

    def test_route_stops_at_final_waypoint(self):
        route = WaypointRoute.straight_line(Vec2(0, 0), Vec2(4, 0), speed_mps=2.0)
        route.advance(10.0)
        assert route.position == Vec2(4, 0)
        assert route.finished
        assert route.velocity == Vec2(0, 0)

    def test_hold_delays_motion(self):
        route = WaypointRoute(
            [
                Waypoint(Vec2(0, 0), 0.0, hold_s=1.0),
                Waypoint(Vec2(10, 0), 2.0),
            ]
        )
        route.advance(1.0)
        assert route.position.x == pytest.approx(0.0)
        route.advance(1.0)
        assert route.position.x == pytest.approx(2.0)

    def test_multiple_segments(self):
        route = WaypointRoute(
            [
                Waypoint(Vec2(0, 0), 0.0),
                Waypoint(Vec2(2, 0), 2.0),
                Waypoint(Vec2(2, 2), 1.0),
            ]
        )
        route.advance(1.0)  # reaches (2, 0)
        route.advance(1.0)  # halfway up the second segment
        assert route.position.x == pytest.approx(2.0)
        assert route.position.y == pytest.approx(1.0)

    def test_negative_dt_rejected(self):
        route = WaypointRoute.stationary(Vec2(0, 0))
        with pytest.raises(ValueError):
            route.advance(-0.1)

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            WaypointRoute([])

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            Waypoint(Vec2(0, 0), speed_mps=-1.0)

    @given(st.floats(0.01, 5.0), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_distance_travelled_never_exceeds_speed_times_time(self, dt, speed):
        route = WaypointRoute.straight_line(Vec2(0, 0), Vec2(1000, 0), speed)
        start = route.position
        route.advance(dt)
        assert route.position.distance_to(start) <= speed * dt + 1e-6


class TestActorDimensions:
    def test_presets_positive(self):
        for dims in (ActorDimensions.sedan(), ActorDimensions.suv(), ActorDimensions.pedestrian()):
            assert dims.length_m > 0 and dims.width_m > 0 and dims.height_m > 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ActorDimensions(0.0, 1.0, 1.0)


class TestScriptedActor:
    def test_unique_ids(self):
        a = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(0, 0)))
        b = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(0, 0)))
        assert a.actor_id != b.actor_id

    def test_default_dimensions_by_kind(self):
        vehicle = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(0, 0)))
        pedestrian = ScriptedActor(ActorKind.PEDESTRIAN, WaypointRoute.stationary(Vec2(0, 0)))
        assert vehicle.dimensions.length_m > pedestrian.dimensions.length_m

    def test_reads_its_route_state(self):
        actor = ScriptedActor(
            ActorKind.VEHICLE, WaypointRoute.straight_line(Vec2(0, 0), Vec2(10, 0), 5.0)
        )
        actor.route.advance(1.0)
        assert actor.x == pytest.approx(5.0)
        assert actor.vx == pytest.approx(5.0)


class TestEgoVehicle:
    def test_accelerates_with_positive_command(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=10.0)
        ego.apply_control(1.0, dt=1.0)
        assert ego.speed_mps == pytest.approx(11.0)
        assert ego.position.x == pytest.approx(10.5)

    def test_speed_never_negative(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=1.0)
        ego.apply_control(-6.0, dt=1.0)
        assert ego.speed_mps == 0.0

    def test_commands_clamped_to_limits(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=10.0, max_accel_mps2=2.0, max_decel_mps2=6.0)
        ego.apply_control(10.0, dt=1.0)
        assert ego.acceleration_mps2 == 2.0
        ego.apply_control(-20.0, dt=1.0)
        assert ego.acceleration_mps2 == -6.0

    def test_lateral_position_fixed(self):
        ego = EgoVehicle(Vec2(0, 0.0), speed_mps=10.0)
        ego.apply_control(1.0, dt=1.0)
        assert ego.position.y == 0.0

    def test_negative_initial_speed_rejected(self):
        with pytest.raises(ValueError):
            EgoVehicle(Vec2(0, 0), speed_mps=-1.0)

    def test_invalid_dt_rejected(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=1.0)
        with pytest.raises(ValueError):
            ego.apply_control(0.0, dt=0.0)


class TestActorGeometry:
    def test_longitudinal_gap(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=1.0)
        lead = ScriptedActor(
            ActorKind.VEHICLE,
            WaypointRoute.stationary(Vec2(20, 0)),
            ActorDimensions.sedan(),
        )
        expected = 20 - (ego.dimensions.length_m + lead.dimensions.length_m) / 2.0
        assert longitudinal_gap(ego, lead) == pytest.approx(expected)

    def test_overlap_detection(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=1.0)
        close = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(3.0, 0.0)))
        far = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(30.0, 0.0)))
        assert colliding_actor(ego, [far, close]) == close.actor_id
        assert colliding_actor(ego, [far]) is None

    def test_no_lateral_overlap_means_no_collision(self):
        ego = EgoVehicle(Vec2(0, 0), speed_mps=1.0)
        beside = ScriptedActor(ActorKind.VEHICLE, WaypointRoute.stationary(Vec2(1.0, 3.5)))
        assert colliding_actor(ego, [beside]) is None
