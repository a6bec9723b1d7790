"""Tests for camera/LiDAR fusion and the full perception pipeline.

Fusion policies are driven through their row-level ``fuse`` (the rows are
documented in :mod:`repro.perception.fusion`); the obstacle rows' fields are
read through the index constants below.
"""

import dataclasses

import numpy as np
import pytest

from repro.perception.fusion import (
    FUSION_POLICIES,
    CameraOnlyFusion,
    ConsistencyGatedFusion,
    FusionConfig,
    LidarOnlyFusion,
    SensorFusion,
)
from repro.perception.pipeline import PerceptionConfig, PerceptionSystem
from repro.sensors.camera import CameraSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation, build_scenario

FRAME_DT = 1.0 / 15.0
#: Fields of an obstacle row.
KIND, DISTANCE, LATERAL, SPEED, LATERAL_VELOCITY, OBSTACLE_ID, SOURCES, ACTOR_ID = range(8)


def camera_estimate(distance, lateral, kind=ActorKind.VEHICLE, track_id=1, actor_id=1, v_rel=0.0):
    """An estimate row: (distance, lateral, relative velocity, lateral
    velocity, track id, actor id, kind, relative acceleration, age)."""
    return (distance, lateral, v_rel, 0.0, track_id, actor_id, kind, 0.0, 5)


def lidar_detection(distance, lateral, kind=ActorKind.VEHICLE, actor_id=1, speed=5.0):
    """A LiDAR row: (distance, lateral, actor id, kind, vx)."""
    return (distance, lateral, actor_id, kind, speed)


class TestRegistration:
    def test_camera_plus_lidar_registers_quickly(self):
        fusion = SensorFusion()
        obstacles = []
        for step in range(4):
            obstacles = fusion.fuse(
                [camera_estimate(30.0, 0.0)],
                [lidar_detection(30.0, 0.0)],
                ego_speed_mps=10.0,
                frame_dt_s=FRAME_DT,
            )
        assert len(obstacles) == 1
        assert set(obstacles[0][SOURCES]) == {"camera", "lidar"}

    def test_camera_only_registration_is_delayed(self):
        config = FusionConfig(camera_only_registration_frames=8)
        fusion = SensorFusion(config)
        for step in range(5):
            obstacles = fusion.fuse(
                [camera_estimate(50.0, 0.0, kind=ActorKind.PEDESTRIAN)],
                None,
                ego_speed_mps=10.0,
                frame_dt_s=FRAME_DT,
            )
        assert obstacles == []
        for step in range(5, 12):
            obstacles = fusion.fuse(
                [camera_estimate(50.0, 0.0, kind=ActorKind.PEDESTRIAN)],
                None,
                ego_speed_mps=10.0,
                frame_dt_s=FRAME_DT,
            )
        assert len(obstacles) == 1

    def test_lidar_only_registration_is_much_slower(self):
        config = FusionConfig(lidar_only_registration_scans=30)
        fusion = SensorFusion(config)
        obstacles = []
        for step in range(25):
            obstacles = fusion.fuse(
                [], [lidar_detection(25.0, 0.0)], 10.0, FRAME_DT
            )
        assert obstacles == []


class TestLateralBlending:
    def test_fused_lateral_between_camera_and_lidar(self):
        fusion = SensorFusion(FusionConfig(camera_weight=0.65))
        for step in range(6):
            obstacles = fusion.fuse(
                [camera_estimate(30.0, 2.0)],
                [lidar_detection(30.0, 0.0)],
                10.0,
                FRAME_DT,
            )
        assert 0.5 < obstacles[0][LATERAL] < 2.0

    def test_camera_only_lateral_passes_through(self):
        fusion = SensorFusion()
        obstacles = []
        for step in range(12):
            obstacles = fusion.fuse(
                [camera_estimate(40.0, -2.5, kind=ActorKind.PEDESTRIAN)], None, 10.0, FRAME_DT
            )
        assert obstacles[0][LATERAL] == pytest.approx(-2.5, abs=0.01)

    def test_distance_is_lidar_dominated(self):
        fusion = SensorFusion(FusionConfig(camera_distance_weight=0.25))
        for step in range(6):
            obstacles = fusion.fuse(
                [camera_estimate(26.0, 0.0)],
                [lidar_detection(30.0, 0.0)],
                10.0,
                FRAME_DT,
            )
        assert obstacles[0][DISTANCE] == pytest.approx(29.0, abs=0.3)


class TestDropBehaviour:
    def _register_fused_track(self, fusion):
        for step in range(6):
            obstacles = fusion.fuse(
                [camera_estimate(25.0, 0.0)],
                [lidar_detection(25.0, 0.0)],
                10.0,
                FRAME_DT,
            )
        assert obstacles
        return 6

    def test_lidar_backed_obstacle_survives_brief_camera_loss(self):
        fusion = SensorFusion()
        step = self._register_fused_track(fusion)
        for offset in range(5):
            obstacles = fusion.fuse(
                [], [lidar_detection(25.0, 0.0)], 10.0, FRAME_DT
            )
        assert len(obstacles) == 1

    def test_lidar_backed_obstacle_dropped_after_sustained_camera_loss(self):
        config = FusionConfig(lidar_backed_timeout_frames=12)
        fusion = SensorFusion(config)
        step = self._register_fused_track(fusion)
        for offset in range(config.lidar_backed_timeout_frames + 3):
            obstacles = fusion.fuse(
                [], [lidar_detection(25.0, 0.0)], 10.0, FRAME_DT
            )
        assert obstacles == []

    def test_camera_only_obstacle_dropped_after_timeout(self):
        config = FusionConfig(camera_only_timeout_frames=10)
        fusion = SensorFusion(config)
        for _ in range(12):
            fusion.fuse([camera_estimate(40.0, 0.0, kind=ActorKind.PEDESTRIAN)], None, 10.0, FRAME_DT)
        for _ in range(config.camera_only_timeout_frames + 2):
            obstacles = fusion.fuse([], None, 10.0, FRAME_DT)
        assert obstacles == []

    def test_reset_clears_state(self):
        fusion = SensorFusion()
        self._register_fused_track(fusion)
        fusion.reset()
        assert fusion.fuse([], None, 10.0, FRAME_DT) == []


class TestAssociation:
    def test_one_lane_apart_objects_stay_separate(self):
        fusion = SensorFusion()
        for step in range(8):
            obstacles = fusion.fuse(
                [camera_estimate(30.0, 0.0, track_id=1, actor_id=1)],
                [
                    lidar_detection(30.0, 0.0, actor_id=1),
                    lidar_detection(31.0, 3.5, actor_id=2, speed=-10.0),
                ],
                10.0,
                FRAME_DT,
            )
        # The in-lane fused obstacle keeps the in-lane lateral position; the
        # oncoming vehicle one lane over does not contaminate it.
        in_lane = [o for o in obstacles if abs(o[LATERAL]) < 1.0]
        assert len(in_lane) == 1
        assert in_lane[0][SPEED] > 0

    def test_new_camera_track_reassociates_with_existing_object(self):
        fusion = SensorFusion()
        for step in range(6):
            fusion.fuse(
                [camera_estimate(30.0, 0.0, track_id=1)],
                [lidar_detection(30.0, 0.0)],
                10.0,
                FRAME_DT,
            )
        # The camera track id changes (e.g. after a misdetection burst); the
        # evidence must flow into the same fused track instead of duplicating.
        obstacles = fusion.fuse(
            [camera_estimate(30.0, 0.2, track_id=9)],
            [lidar_detection(30.0, 0.0)],
            10.0,
            FRAME_DT,
        )
        assert len(obstacles) == 1


class TestFusionConfigValidation:
    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(camera_weight=1.5)

    def test_invalid_gate_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(association_gate_m=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "camera_weight",
            "camera_distance_weight",
            "lateral_velocity_smoothing",
            "consistency_camera_penalty",
        ],
    )
    def test_unit_interval_fields_rejected_outside_range(self, field):
        with pytest.raises(ValueError, match="must be in"):
            FusionConfig(**{field: -0.1})
        with pytest.raises(ValueError, match="must be in"):
            FusionConfig(**{field: 1.01})

    @pytest.mark.parametrize(
        "field",
        [
            "fused_registration_frames",
            "camera_only_registration_frames",
            "lidar_only_registration_scans",
            "camera_only_timeout_frames",
            "lidar_backed_timeout_frames",
            "lidar_only_timeout_scans",
            "lateral_velocity_baseline_frames",
        ],
    )
    def test_count_fields_must_be_positive(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            FusionConfig(**{field: 0})

    def test_negative_gate_range_factor_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FusionConfig(association_gate_range_factor=-0.1)

    def test_non_positive_consistency_gate_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            FusionConfig(consistency_gate_m=0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion policy"):
            FusionConfig(policy="kalman")

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(FusionConfig) if field.name != "policy"
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numeric_field_rejected(self, field, value):
        # NaN passed the count and gate checks (value <= 0 is False for NaN),
        # and so did inf.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            FusionConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = FusionConfig(
            camera_weight=0.0,
            camera_distance_weight=1.0,
            lateral_velocity_smoothing=0.0,
            consistency_camera_penalty=1.0,
            association_gate_range_factor=0.0,
        )
        assert config.camera_weight == 0.0


class TestPolicyRegistry:
    def test_builtin_policies_registered(self):
        assert sorted(FUSION_POLICIES) == [
            "camera_only",
            "consistency_gated",
            "late",
            "lidar_only",
        ]

    @pytest.mark.parametrize("name, policy_type", [
        ("late", SensorFusion),
        ("camera_only", CameraOnlyFusion),
        ("lidar_only", LidarOnlyFusion),
        ("consistency_gated", ConsistencyGatedFusion),
    ])
    def test_perception_system_builds_the_named_policy(self, name, policy_type):
        fusion = FusionConfig(policy=name, camera_weight=0.5)
        system = PerceptionSystem(PerceptionConfig(fusion=fusion))
        assert type(system.fusion) is policy_type
        assert system.fusion.config is fusion

    def test_policy_without_fuse_is_rejected(self):
        """``fuse`` is the fusion contract: a plug-in factory whose policy
        has none fails when the pipeline is built, in one line."""

        class StepOnly:
            def __init__(self, config):
                self.config = config

            def reset(self):
                pass

            def step(self, camera_estimates, lidar_scan, ego_speed_mps, frame_dt_s):
                return []

        FUSION_POLICIES["step_only"] = StepOnly
        try:
            config = PerceptionConfig(fusion=FusionConfig(policy="step_only"))
            with pytest.raises(ValueError, match="^fusion policy 'step_only' has no fuse"):
                PerceptionSystem(config)
        finally:
            del FUSION_POLICIES["step_only"]


class TestConsistencyGatedFusion:
    def _run(self, fusion, camera_lateral, lidar_lateral, steps=6):
        obstacles = []
        for step in range(steps):
            obstacles = fusion.fuse(
                [camera_estimate(30.0, camera_lateral)],
                [lidar_detection(30.0, lidar_lateral)],
                10.0,
                FRAME_DT,
            )
        return obstacles

    def test_agreeing_modalities_match_late_fusion(self):
        config = FusionConfig(policy="consistency_gated")
        gated = self._run(ConsistencyGatedFusion(config), 0.4, 0.2)
        late = self._run(SensorFusion(FusionConfig()), 0.4, 0.2)
        assert gated[0][LATERAL] == pytest.approx(late[0][LATERAL])
        assert gated[0][DISTANCE] == pytest.approx(late[0][DISTANCE])

    def test_disagreeing_camera_is_down_weighted(self):
        # Camera claims the object slid 2 m laterally; LiDAR disagrees (still
        # close enough to associate into one track).  The gated policy should
        # land much closer to the LiDAR lateral than the plain late fusion.
        config = FusionConfig(policy="consistency_gated", consistency_gate_m=1.2)
        gated = self._run(ConsistencyGatedFusion(config), 2.0, 0.0)
        late = self._run(SensorFusion(FusionConfig()), 2.0, 0.0)
        assert abs(gated[0][LATERAL]) < abs(late[0][LATERAL])
        assert abs(gated[0][LATERAL]) < 0.5 * abs(late[0][LATERAL])


class TestCameraOnlyFusion:
    def test_passes_camera_estimates_through(self):
        fusion = CameraOnlyFusion()
        obstacles = fusion.fuse(
            [camera_estimate(40.0, -1.5, v_rel=-3.0)], None, ego_speed_mps=10.0, frame_dt_s=FRAME_DT
        )
        assert len(obstacles) == 1
        assert obstacles[0][SOURCES] == ("camera",)
        assert obstacles[0][DISTANCE] == pytest.approx(40.0)
        assert obstacles[0][LATERAL] == pytest.approx(-1.5)
        assert obstacles[0][SPEED] == pytest.approx(7.0)

    def test_ignores_lidar_scan(self):
        fusion = CameraOnlyFusion()
        obstacles = fusion.fuse(
            [], [lidar_detection(20.0, 0.0)], 10.0, FRAME_DT
        )
        assert obstacles == []


class TestLidarOnlyFusion:
    def test_registers_from_lidar_alone(self):
        config = FusionConfig(policy="lidar_only")
        fusion = LidarOnlyFusion(config)
        obstacles = []
        for step in range(config.fused_registration_frames + 2):
            obstacles = fusion.fuse(
                [], [lidar_detection(25.0, 0.5)], 10.0, FRAME_DT
            )
        assert len(obstacles) == 1
        assert obstacles[0][SOURCES] == ("lidar",)
        assert obstacles[0][DISTANCE] == pytest.approx(25.0)

    def test_ignores_camera_estimates(self):
        fusion = LidarOnlyFusion()
        obstacles = []
        for _ in range(12):
            obstacles = fusion.fuse([camera_estimate(30.0, 0.0)], None, 10.0, FRAME_DT)
        assert obstacles == []

    def test_track_dropped_after_timeout(self):
        config = FusionConfig(policy="lidar_only", lidar_only_timeout_scans=4)
        fusion = LidarOnlyFusion(config)
        for step in range(6):
            fusion.fuse([], [lidar_detection(25.0, 0.0)], 10.0, FRAME_DT)
        obstacles = []
        for step in range(6, 6 + config.lidar_only_timeout_scans + 2):
            obstacles = fusion.fuse([], [], 10.0, FRAME_DT)
        assert obstacles == []

    def test_reset_clears_tracks(self):
        fusion = LidarOnlyFusion()
        for step in range(8):
            fusion.fuse([], [lidar_detection(25.0, 0.0)], 10.0, FRAME_DT)
        fusion.reset()
        assert fusion.fuse([], None, 10.0, FRAME_DT) == []


class TestRowCore:
    """Each policy's row-level ``fuse`` returns distance-sorted obstacle rows."""

    def test_rows_are_distance_sorted_with_ids_and_sources(self):
        fusion = SensorFusion()
        for step in range(10):
            rows = fusion.fuse(
                [(30.0, 0.0, 0.0, 0.0, 1, 1, ActorKind.VEHICLE, 0.0, 5),
                 (45.0, -2.0, 0.0, 0.0, 2, 2, ActorKind.PEDESTRIAN, 0.0, 5)],
                [(30.1, 0.0, 1, ActorKind.VEHICLE, 5.0)],
                10.0,
                FRAME_DT,
            )
        assert [row[1] for row in rows] == sorted(row[1] for row in rows)
        assert [(row[5], row[6], row[7]) for row in rows] == [
            ("cam-1", ("camera", "lidar"), 1),
            ("cam-2", ("camera",), 2),
        ]


def process(system, camera_rows, lidar_rows, ego_speed_mps):
    """One frame through the pipeline's row cores, as a simulation lane runs
    them: detect, track, transform, fuse.  Returns (estimate rows, obstacle
    rows)."""
    system.tracker.step(system.detector.detect_rows(camera_rows))
    estimates = system.transform.estimate_rows(system.tracker.observed)
    return estimates, system.fusion.fuse(estimates, lidar_rows, ego_speed_mps,
                                         system.config.frame_dt_s)


class TestPerceptionSystem:
    def test_full_pipeline_detects_lead_vehicle(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        camera = CameraSensor()
        lidar = LidarSensor(rng=np.random.default_rng(0))
        system = PerceptionSystem(rng=np.random.default_rng(1))
        world = scenario.world
        obstacles = []
        for _ in range(8):
            _, obstacles = process(system, camera.render_rows(world),
                                   lidar.scan_rows(world), ego_speed_mps=12.5)
            world.step(FRAME_DT, 0.0)
        assert obstacles
        lead = obstacles[0]
        assert lead[KIND] is ActorKind.VEHICLE
        assert lead[DISTANCE] == pytest.approx(58.0, abs=6.0)
        assert abs(lead[LATERAL]) < 1.0

    def test_camera_only_mode_uses_camera_only_policy(self):
        config = PerceptionConfig(fusion=FusionConfig(policy="camera_only"))
        assert config.fusion.policy == "camera_only"
        system = PerceptionSystem(config, rng=np.random.default_rng(2))
        assert type(system.fusion) is CameraOnlyFusion
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        camera = CameraSensor()
        world = scenario.world
        obstacles = []
        for _ in range(6):
            _, obstacles = process(system, camera.render_rows(world), None, ego_speed_mps=12.5)
            world.step(FRAME_DT, 0.0)
        assert obstacles
        assert obstacles[0][SOURCES] == ("camera",)

    def test_perception_config_resolves_policy_from_fusion(self):
        assert PerceptionConfig().fusion.policy == "late"
        config = PerceptionConfig(fusion=FusionConfig(policy="lidar_only"))
        assert config.fusion.policy == "lidar_only"
        system = PerceptionSystem(config, rng=np.random.default_rng(8))
        assert type(system.fusion) is LidarOnlyFusion

    def test_output_lookup_helpers(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        system = PerceptionSystem(rng=np.random.default_rng(3))
        camera = CameraSensor()
        lidar = LidarSensor(rng=np.random.default_rng(4))
        target_id = scenario.target_actor_id
        found = False
        estimates = obstacles = []
        # Individual frames can fall inside a misdetection burst and obstacle
        # registration takes a few frames, so look for a frame where both the
        # camera estimate and the fused obstacle carry the target's actor id.
        world = scenario.world
        for _ in range(25):
            estimates, obstacles = process(system, camera.render_rows(world),
                                           lidar.scan_rows(world), 12.5)
            world.step(FRAME_DT, 0.0)
            if (
                any(row[5] == target_id for row in estimates)
                and any(row[ACTOR_ID] == target_id for row in obstacles)
            ):
                found = True
                break
        assert found
        assert obstacles
        assert not any(row[5] == 10**9 for row in estimates)

    def test_reset_restores_clean_state(self):
        system = PerceptionSystem(rng=np.random.default_rng(5))
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        camera = CameraSensor()
        for _ in range(5):
            process(system, camera.render_rows(scenario.world), None, 12.5)
        system.reset()
        assert system.tracker.tracks == {}
