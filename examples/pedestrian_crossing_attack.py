#!/usr/bin/env python3
"""DS-2 deep dive: trace a Disappear attack on the crossing pedestrian frame by frame.

This example mirrors the attack walk-through of paper §III-E / Fig. 3: it runs
one simulation lane (``repro.sim.simulator.Simulator``) with a scripted
man-in-the-middle attacker on the camera link, then prints, for the
interesting frames, what the world actually looks like (the ground-truth
safety potential), what the ADS believes (the perceived one), and what the
malware is doing.  Everything it prints comes from the run's
``SimulationResult``: its per-step traces and its events.

Run with:  python examples/pedestrian_crossing_attack.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AttackVector
from repro.core.training import ScriptedAttacker
from repro.experiments.campaign import build_ads_agent
from repro.sim.events import EventKind
from repro.sim.scenarios import ScenarioVariation, build_scenario
from repro.sim.simulator import Simulator


def _steps_of(result, kind):
    return [event.step_index for event in result.events if event.kind is kind]


def _delta_text(delta: float, width: int) -> str:
    return f"{delta:{width}.1f}" if delta != float("inf") else "clear".rjust(width)


def main() -> None:
    scenario = build_scenario("DS-2", ScenarioVariation.nominal())
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
    result = Simulator(scenario, ads, attacker=attacker, rng=np.random.default_rng(3)).run()

    # The attacker perturbs every frame from the attack's start to its end.
    attacking = set()
    for start, end in zip(_steps_of(result, EventKind.ATTACK_STARTED),
                          _steps_of(result, EventKind.ATTACK_ENDED)):
        attacking.update(range(start, end + 1))
    braking = set(_steps_of(result, EventKind.EMERGENCY_BRAKE))

    print("frame |   v  | true δ | perceived δ | attack | EB")
    print("-" * 52)
    for step in range(result.steps_executed):
        if step % 15 and step not in attacking and step not in braking:
            continue
        print(
            f"{step:5d} | {result.ego_speed_trace[step]:4.1f} | "
            f"{_delta_text(result.true_delta_trace[step], 6)} | "
            f"{_delta_text(result.perceived_delta_trace[step], 11)} | "
            f"{'ACTIVE' if step in attacking else '      '} | "
            f"{'EB' if step in braking else ''}"
        )
    collision = result.first_event(EventKind.COLLISION)
    if collision is not None:
        print(f"{collision.step_index:5d} | COLLISION with the pedestrian — simulation halted")

    record = attacker.record
    print("-" * 52)
    print(
        f"attack summary: launched={record.launched} start_frame={record.start_frame} "
        f"K={record.planned_k_frames} frames perturbed={record.frames_perturbed}"
    )


if __name__ == "__main__":
    main()
