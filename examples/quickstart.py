#!/usr/bin/env python3
"""Quickstart: run one golden run and one RoboTack-attacked run of DS-2.

DS-2 is the paper's pedestrian-crossing scenario: a pedestrian illegally
crosses the street ahead of the EV.  In the golden run the ADS brakes and
keeps a safe distance; with RoboTack installed on the camera link, the
`Disappear` attack hides the pedestrian at the most dangerous moment and the
safety potential collapses.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AttackVector, RoboTack, RoboTackConfig, SafetyHijacker
from repro.experiments.campaign import PredictorKind, build_ads_agent, get_or_train_predictor
from repro.sim.scenarios import ScenarioVariation, build_scenario
from repro.sim.simulator import Simulator


def run_once(attacked: bool, seed: int = 7):
    """Simulate one DS-2 run, optionally with RoboTack on the camera link."""
    scenario = build_scenario("DS-2", ScenarioVariation.nominal())
    ads = build_ads_agent(scenario, np.random.default_rng(seed))

    attacker = None
    if attacked:
        # The first call trains the paper's neural safety-potential oracle from
        # scripted attack simulations (about a second); it is cached for the
        # rest of the process.
        predictor = get_or_train_predictor(
            "DS-2", AttackVector.DISAPPEAR, kind=PredictorKind.NEURAL
        )
        attacker = RoboTack(
            scenario.road,
            SafetyHijacker(predictor),
            RoboTackConfig(allowed_vectors=(AttackVector.DISAPPEAR,)),
            rng=np.random.default_rng(seed + 1),
        )

    simulator = Simulator(scenario, ads, attacker=attacker, rng=np.random.default_rng(seed + 2))
    result = simulator.run()
    return result, attacker


def describe(label: str, result, attacker) -> None:
    print(f"--- {label} ---")
    if attacker is not None and attacker.record.launched:
        record = attacker.record
        print(
            f"attack launched at frame {record.start_frame} "
            f"(vector={record.vector.name}, K={record.planned_k_frames} frames, "
            f"K'={record.shift_frames_k_prime})"
        )
    elif attacker is not None:
        print("attack never launched")
    print(f"emergency braking : {result.emergency_braking_occurred}")
    print(f"collision         : {result.collision_occurred}")
    print(f"accident (δ < 4 m): {result.accident_occurred()}")
    print(f"min safety potential from attack start: {result.min_true_delta_from_attack():.1f} m")
    print()


def main() -> None:
    golden, _ = run_once(attacked=False)
    describe("golden run (no attack)", golden, None)

    attacked, attacker = run_once(attacked=True)
    describe("RoboTack Disappear attack on the crossing pedestrian", attacked, attacker)


if __name__ == "__main__":
    main()
