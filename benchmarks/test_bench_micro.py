"""Micro-benchmarks for the computational substrates.

These are conventional pytest-benchmark measurements (many rounds) of the
hot inner loops: the perception pipeline step, Hungarian matching, the safety
hijacker's NN inference, and a full golden simulation run.  The paper stresses
that RoboTack's footprint must stay small to evade resource monitoring
(§IV-D), so the attacker-side reconstruction step is measured as well.
"""

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.robotack import RoboTackConfig
from repro.core.safety_hijacker import (
    AttackFeatures,
    NeuralSafetyPredictor,
    SafetyHijacker,
)
from repro.core.robotack import RoboTack
from repro.experiments.campaign import build_ads_agent
from repro.perception.hungarian import hungarian_assignment
from repro.perception.pipeline import PerceptionSystem
from repro.sensors.camera import CameraSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.scenarios import ScenarioVariation, build_scenario
from repro.sim.simulator import Simulator


def test_bench_perception_pipeline_step(benchmark):
    scenario = build_scenario("DS-5", ScenarioVariation.nominal())
    camera, lidar = CameraSensor(), LidarSensor(rng=np.random.default_rng(0))
    system = PerceptionSystem(rng=np.random.default_rng(1))
    snapshot = scenario.world.snapshot()
    frame, lidar_rows = camera.capture(snapshot), lidar.scan(snapshot).rows()

    def pipeline_step():
        """Detect, track, transform and fuse one frame, as a hand-driven loop
        does (``examples/pedestrian_crossing_attack.py``)."""
        system.tracker.step(system.detector.detect(frame))
        estimates = system.transform.estimate_rows(system.tracker.observed)
        return system.fusion.fuse(estimates, lidar_rows, 12.5, system.config.frame_dt_s)

    benchmark(pipeline_step)


def test_bench_hungarian_assignment_10x10(benchmark):
    rng = np.random.default_rng(2)
    cost = rng.random((10, 10))
    benchmark(hungarian_assignment, cost)


def test_bench_safety_hijacker_decision(benchmark):
    predictor = NeuralSafetyPredictor.untrained(rng=np.random.default_rng(3))
    hijacker = SafetyHijacker(predictor)
    features = AttackFeatures(delta_m=15.0, relative_velocity_mps=-4.0, relative_acceleration_mps2=0.0)

    from repro.sim.actors import ActorKind

    benchmark(hijacker.decide, features, AttackVector.DISAPPEAR, ActorKind.VEHICLE)


def test_bench_robotack_frame_processing(benchmark):
    scenario = build_scenario("DS-1", ScenarioVariation.nominal())
    predictor = NeuralSafetyPredictor.untrained(rng=np.random.default_rng(4))
    attacker = RoboTack(
        scenario.road,
        SafetyHijacker(predictor),
        RoboTackConfig(allowed_vectors=(AttackVector.DISAPPEAR,)),
        rng=np.random.default_rng(5),
    )
    camera = CameraSensor()
    frame = camera.capture(scenario.world.snapshot())

    benchmark(attacker.process_frame, frame, 12.5, 1.0 / 15.0)


def test_bench_world_snapshot_ds5(benchmark):
    """The per-step ground-truth snapshot (the call the step loop now makes once)."""
    scenario = build_scenario("DS-5", ScenarioVariation.nominal())
    benchmark(scenario.world.snapshot)


def test_bench_simulation_step_loop(benchmark):
    """Guards the step-loop optimisation: one ``world.snapshot`` per step.

    A short fixed-length DS-1 run (60 steps, no attacker) dominated by the
    per-step loop body; regressions here mean someone re-introduced redundant
    snapshotting (the loop used to build three snapshots per step) or another
    per-step cost.
    """
    from repro.sim.config import SimulationConfig

    def run_short():
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        ads = build_ads_agent(scenario, np.random.default_rng(8))
        simulator = Simulator(
            scenario,
            ads,
            config=SimulationConfig(max_duration_s=4.0),
            rng=np.random.default_rng(9),
        )
        return simulator.run()

    result = benchmark.pedantic(run_short, rounds=3, iterations=1)
    assert result.steps_executed == 60


@pytest.mark.parametrize("scenario_id", ["DS-1", "DS-2"])
def test_bench_full_golden_simulation(benchmark, scenario_id):
    def run_once():
        scenario = build_scenario(scenario_id, ScenarioVariation.nominal())
        ads = build_ads_agent(scenario, np.random.default_rng(6))
        simulator = Simulator(scenario, ads, rng=np.random.default_rng(7))
        return simulator.run()

    result = benchmark.pedantic(run_once, rounds=2, iterations=1)
    assert not result.collision_occurred
