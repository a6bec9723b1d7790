#!/usr/bin/env python3
"""DS-2 deep dive: trace a Disappear attack on the crossing pedestrian frame by frame.

This example mirrors the attack walk-through of paper §III-E / Fig. 3: it runs
the simulation loop manually so it can print, for the interesting frames, what
the world actually looks like, what the ADS believes, and what the malware is
doing.  Each frame the sensors render their rows, the attacker's
``process_frame`` rewrites the camera's rows, and the victim ADS runs the
same row-level stages a simulation lane calls (see ``repro.sim.simulator``):
detection, tracking, the image-to-world transform, fusion, planning and
actuation.

Run with:  python examples/pedestrian_crossing_attack.py
"""

from __future__ import annotations

import numpy as np

from repro.ads.safety import SafetyModel, ground_truth_delta
from repro.core import AttackVector
from repro.core.training import ScriptedAttacker
from repro.experiments.campaign import build_ads_agent
from repro.sensors.camera import CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import ScenarioVariation, build_scenario


def ads_decide(ads, camera_rows, lidar_rows, ego_speed, dt):
    """One perceive-plan-act cycle of the victim ADS: returns the smoothed
    acceleration, the emergency-brake flag and the perceived safety potential."""
    perception = ads.perception
    perception.tracker.step(perception.detector.detect_rows(camera_rows))
    estimates = perception.transform.estimate_rows(perception.tracker.observed)
    obstacles = perception.fusion.fuse(
        estimates, lidar_rows, ego_speed, perception.config.frame_dt_s
    )
    desired, emergency, perceived, _lead, target_speed = ads.planner.plan_rows(
        obstacles, ego_speed
    )
    return ads.actuate(desired, emergency, target_speed, ego_speed, dt), emergency, perceived


def main() -> None:
    scenario = build_scenario("DS-2", ScenarioVariation.nominal())
    config = SimulationConfig()
    ads = build_ads_agent(scenario, np.random.default_rng(1))
    # A scripted attacker reproduces the paper's data-collection setup: attack
    # as soon as the malware's own safety-potential estimate drops to 36 m and
    # keep perturbing for 28 consecutive camera frames (within the pedestrian
    # stealth bound of 31 frames).
    attacker = ScriptedAttacker(
        scenario.road,
        AttackVector.DISAPPEAR,
        delta_inject_m=36.0,
        k_frames=28,
        rng=np.random.default_rng(2),
    )

    camera = CameraSensor()
    lidar = LidarSensor(rng=np.random.default_rng(3))
    gps = GpsImuSensor(rng=np.random.default_rng(4))
    safety = SafetyModel()
    world = scenario.world
    last_scan = None  # LiDAR rows of the latest scan

    print("frame |  ego x   v  | ped lateral | true δ | perceived δ | attack | EB")
    print("-" * 78)
    for step in range(int(scenario.duration_s * config.camera_rate_hz)):
        snapshot = world.snapshot()
        camera_rows = camera.render_rows(snapshot)
        if config.lidar_due(step):
            last_scan = lidar.scan_rows(snapshot)
        _x, _y, ego_speed = gps.read(snapshot)

        delivered = attacker.process_frame(camera_rows, ego_speed)
        acceleration, emergency, perceived_delta = ads_decide(
            ads, delivered, last_scan, ego_speed, config.dt
        )

        true_delta = ground_truth_delta(
            snapshot, scenario.road, safety, target_actor_id=scenario.target_actor_id
        )
        pedestrian = snapshot.actor_by_id(scenario.target_actor_id)
        attacking = attacker.attack_active

        if step % 15 == 0 or attacking or emergency:
            perceived = (
                f"{perceived_delta:7.1f}" if perceived_delta != float("inf") else "  clear"
            )
            true_text = f"{true_delta:6.1f}" if true_delta != float("inf") else " clear"
            print(
                f"{step:5d} | {snapshot.ego.position.x:6.1f} {snapshot.ego.speed:4.1f} | "
                f"{pedestrian.position.y:11.2f} | {true_text} | {perceived:>11s} | "
                f"{'ACTIVE' if attacking else '      '} | {'EB' if emergency else ''}"
            )

        world.step(config.dt, acceleration)
        collision = any(world.snapshot().ego.overlaps(actor) for actor in world.snapshot().actors)
        if collision:
            print(f"{step:5d} | COLLISION with the pedestrian — simulation halted")
            break

    record = attacker.record
    print("-" * 78)
    print(
        f"attack summary: launched={record.launched} start_frame={record.start_frame} "
        f"K={record.planned_k_frames} frames perturbed={record.frames_perturbed}"
    )


if __name__ == "__main__":
    main()
