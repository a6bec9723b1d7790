"""Paired timing behind the batch engine's speed gates.

The gates compare wide lockstep batches with one-lane runs
(``Simulator.run``, a one-lane batch).  The shared hosts these benchmarks run
on change speed by up to ~1.6x within seconds, so a one-lane time taken
before a batch time can measure the host instead of the batch.  The gates
therefore alternate short one-lane samples with batch samples (one-lane,
batch, one-lane, ..., batch, one-lane), pair each batch sample with the mean
of the two one-lane samples around it, and take the median of the per-pair
speedups: a slow stretch slows both halves of a pair and cancels in its
ratio, a steady drift cancels between the two one-lane samples, and a pair
that straddles a sudden speed change is an outlier the median ignores.  :func:`alternating_pairs` does the pairing for any two
samplers; the lane-scaling gate uses it to pair N=256 batch samples with the
N=64 samples around them.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.experiments.campaign import build_ads_agent
from repro.perception.fusion import FusionConfig
from repro.sim.batch import BatchRunSpec, BatchSimulator
from repro.sim.scenarios import build_scenario
from repro.sim.simulator import Simulator

#: Candidate samples per gate, each paired with the reference samples around
#: it.
PAIRS = 9
#: The median per-pair batch speedup over one-lane runs the gate demands at
#: N=64.  The gate demands 5x the scalar step loop as it ran before the
#: engines shared camera perception.  Each later change that sped the
#: reference up divides the bound by its speedup, measured as the median of
#: at least 16 alternating before/after CPU-time pairs of the reference's 12-run
#: sample (now ``one_lane_seconds_per_run(12)``) pinned to one core: sharing
#: camera perception gave X1 = 1.18x (quartiles 1.02-1.24x), sharing the
#: world side, whose scalar loop stopped copying the world's state every step,
#: X2 = 1.179x (quartiles 1.13-1.25x), and replacing the scalar loop with a
#: one-lane lockstep batch X3 = 1.381x (32 pairs, quartiles 1.32-1.43x).  So
#: the bound is 5 / (X1 * X2 * X3) = 2.603, rounded up to 0.1: the batch engine
#: must still run 5x the first scalar loop's runs/sec.
MIN_SPEEDUP = 2.7
#: One-lane runs per sample; every run is the same scenario and duration, so
#: a short sample keeps each pair's samples close together in time.
ONE_LANE_RUNS = 2


def ds1_setups(
    n: int, fusion: Optional[FusionConfig] = None
) -> List[Tuple[object, object, np.random.Generator]]:
    """N independently-seeded DS-1 runs, seeded like a campaign would."""
    setups = []
    for index in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence([424242, index]).generate_state(1)[0]
        )
        scenario = build_scenario("DS-1")
        ads = build_ads_agent(
            scenario, np.random.default_rng(int(rng.integers(0, 2**31 - 1))), fusion=fusion
        )
        int(rng.integers(0, 2**31 - 1))  # attacker-slot draw, campaign draw order
        sim_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        setups.append((scenario, ads, sim_rng))
    return setups


def one_lane_seconds_per_run(n: int) -> float:
    """Wall seconds per run of n runs, each alone through ``Simulator.run``."""
    setups = ds1_setups(n)
    start = time.perf_counter()
    for scenario, ads, rng in setups:
        Simulator(scenario, ads, rng=rng).run()
    return (time.perf_counter() - start) / n


def batch_seconds_per_run(width: int, fusion: Optional[FusionConfig] = None) -> float:
    """Wall seconds per run of one ``width``-lane lockstep batch."""
    specs = [
        BatchRunSpec(scenario=scenario, ads=ads, rng=rng)
        for scenario, ads, rng in ds1_setups(width, fusion)
    ]
    start = time.perf_counter()
    results = BatchSimulator(specs).run()
    elapsed = time.perf_counter() - start
    assert len(results) == width
    return elapsed / width


def alternating_pairs(
    reference: Callable[[], float], candidate: Callable[[], float], n_pairs: int
) -> List[Tuple[float, float]]:
    """``n_pairs`` (reference, candidate) samples taken alternately, starting
    and ending with a reference sample; each candidate sample is paired with
    the mean of the two reference samples around it."""
    references = [reference()]
    pairs = []
    for _ in range(n_pairs):
        sample = candidate()
        references.append(reference())
        pairs.append(((references[-2] + references[-1]) / 2, sample))
    return pairs


def paired_seconds_per_run(width: int) -> List[Tuple[float, float]]:
    """``PAIRS`` (one-lane, batch) seconds-per-run pairs from alternating
    samples."""
    return alternating_pairs(
        lambda: one_lane_seconds_per_run(ONE_LANE_RUNS),
        lambda: batch_seconds_per_run(width),
        PAIRS,
    )


def speedups(pairs: List[Tuple[float, float]]) -> List[float]:
    """Per-pair speedups of the candidate over the reference seconds per run
    (of the batch over one-lane runs, for ``paired_seconds_per_run``)."""
    return [reference / candidate for reference, candidate in pairs]
