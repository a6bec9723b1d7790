"""Seed-paired twins: an attacked run and its benign twin agree until the attack.

A run's *twin* is the run with the same index in the benign campaign of the
same scenario and seed: :func:`_build_run_setup` draws the same variation and
the same victim and simulator seeds for both.  Until the attacker first
perturbs a frame, an attacked lane must drive its victim exactly as the
benign lane does, whatever the attacker reads or computes on the side:

* every trace entry and event before the first ``attack_started`` step
  equals the twin's;
* a run where nothing launched equals its twin entirely;
* an attacker that never launches changes nothing.

Each campaign's runs and their twins run as one batch, as a campaign chunk
runs them.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.safety_hijacker import NeuralSafetyPredictor
from repro.core.training import ScriptedAttacker
from repro.experiments.campaign import (
    AttackerKind,
    CampaignConfig,
    PredictorKind,
    _build_run_setup,
)
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind

RUNS = 6
SIMULATION = SimulationConfig(max_duration_s=20.0)


def _campaign(scenario_id, attacker, vector=None, seed=11):
    return CampaignConfig(
        campaign_id=f"twin-{scenario_id}-{attacker.value}",
        scenario_id=scenario_id,
        attacker=attacker,
        vector=vector,
        n_runs=RUNS,
        seed=seed,
        predictor=PredictorKind.KINEMATIC,
        simulation=SIMULATION,
    )


def _benign(config):
    return dataclasses.replace(config, attacker=AttackerKind.NONE, vector=None,
                               campaign_id=f"{config.campaign_id}-twin")


def _run(config, setups):
    specs = [BatchRunSpec(scenario=setup.scenario, ads=setup.ads, attacker=setup.attacker,
                          rng=setup.sim_rng) for setup in setups]
    return BatchSimulator(specs, config=config.simulation).run()


def _view(setup, result, steps=None):
    """A lane's traces and events (up to ``steps``, else all of it), with
    actor ids replaced by the actor's index in its world: ids differ between
    separately built scenarios."""
    index = {actor.actor_id: n for n, actor in enumerate(setup.scenario.world.actors)}
    end = len(result.true_delta_trace) if steps is None else steps
    events = [
        (event.kind, event.step_index, event.time_s,
         {key: index[int(value)] if key == "actor_id" else value
          for key, value in event.details.items()})
        for event in result.events
        if steps is None or event.step_index < steps
    ]
    view = (result.true_delta_trace[:end], result.perceived_delta_trace[:end],
            result.ego_speed_trace[:end], events)
    if steps is None:
        view += (result.steps_executed, result.duration_s, result.halted_on_collision)
    return view


def _twin_pairs(config, predictor=None, attach=None):
    """Each run of ``config`` and its benign twin, both built through
    ``_build_run_setup``: ``(setup, result, twin_setup, twin_result)``.
    ``attach(setup)`` installs an attacker on a benign set-up."""
    setups = [_build_run_setup(config, index, predictor=predictor) for index in range(RUNS)]
    if attach is not None:
        for setup in setups:
            setup.attacker = attach(setup)
    benign = _benign(config)
    twins = [_build_run_setup(benign, index) for index in range(RUNS)]
    for setup, twin in zip(setups, twins):
        assert (setup.run_seed, setup.variation) == (twin.run_seed, twin.variation)
    return list(zip(setups, _run(config, setups), twins, _run(benign, twins)))


def _assert_twins(pairs):
    """The invariant for every pair; returns how many runs launched."""
    launched = 0
    for setup, result, twin, twin_result in pairs:
        started = result.first_event(EventKind.ATTACK_STARTED)
        assert started is not None or not setup.attacker.record.launched
        if started is None:
            assert _view(setup, result) == _view(twin, twin_result)
        else:
            launched += 1
            assert started.step_index == setup.attacker.record.start_frame - 1
            steps = started.step_index
            assert _view(setup, result, steps) == _view(twin, twin_result, steps)
    return launched


CASES = {
    "robotack-kinematic-DS-2-Disappear": (
        _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR), None),
    "robotack-kinematic-DS-1-Move_Out": (
        _campaign("DS-1", AttackerKind.ROBOTACK, AttackVector.MOVE_OUT), None),
    "robotack-untrained-neural-DS-2-Disappear": (
        _campaign("DS-2", AttackerKind.ROBOTACK, AttackVector.DISAPPEAR),
        NeuralSafetyPredictor.untrained(rng=np.random.default_rng(0))),
    "robotack-without-safety-hijacker-DS-1-Disappear": (
        _campaign("DS-1", AttackerKind.ROBOTACK_NO_SH, AttackVector.DISAPPEAR), None),
    "random-DS-1": (_campaign("DS-1", AttackerKind.RANDOM), None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_attacked_run_equals_its_twin_until_the_attack(case):
    config, predictor = CASES[case]
    assert _assert_twins(_twin_pairs(config, predictor)) >= 1


@pytest.mark.parametrize("scenario_id", ["DS-1", "DS-2", "DS-3"])
def test_attacker_that_never_launches_changes_nothing(scenario_id):
    """A scripted attacker whose trigger is never reached, attached to a
    benign set-up, reads every frame and runs its replica to the end."""
    config = _campaign(scenario_id, AttackerKind.NONE)
    vector = {"DS-1": AttackVector.MOVE_OUT, "DS-2": AttackVector.DISAPPEAR,
              "DS-3": AttackVector.MOVE_IN}[scenario_id]

    def attach(setup):
        return ScriptedAttacker(setup.scenario.road, vector, delta_inject_m=-100.0,
                                k_frames=10, rng=np.random.default_rng(setup.run_index))

    pairs = _twin_pairs(config, attach=attach)
    assert _assert_twins(pairs) == 0
    assert all(setup.attacker._frame_count == result.steps_executed
               for setup, result, _, _ in pairs)
