"""Micro-benchmark: serial vs. parallel safety-dataset collection.

Times the same scripted-attack collection grid through the
:class:`~repro.runtime.executor.SerialExecutor` and a 4-worker
:class:`~repro.runtime.executor.ParallelExecutor`, asserts the assembled
datasets are bit-identical (the training pipeline's core invariant), and
records the wall-clock speedup.  Collection runs its grid points as lockstep
batch lanes: the serial arm runs the 36 points as two chunks (32 + 4 lanes)
in one process, the parallel arm as four 9-lane chunks, one per worker.  The
>= 2x speedup assertion only applies where the hardware can deliver it (>= 4
usable CPUs); on smaller machines the speedup is still measured and printed.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.attack_vectors import AttackVector
from repro.core.training import collect_safety_dataset
from repro.runtime import ParallelExecutor, SerialExecutor, available_cpus

_N_WORKERS = 4
#: The DS-2 disappear grid at 3 repeats: 36 seeded scripted-attack simulations.
_DELTAS = (55.0, 48.0, 42.0, 38.0)
_KS = (10, 16, 22)
_REPEATS = 3


def _collect(executor) -> "np.ndarray":
    return collect_safety_dataset(
        scenario_id="DS-2",
        vector=AttackVector.DISAPPEAR,
        delta_inject_values=_DELTAS,
        k_values=_KS,
        seed=1234,
        repeats=_REPEATS,
        executor=executor,
    )


def test_bench_parallel_collection_speedup():
    # Best-of-two timings for both arms damp transient noisy-neighbor stalls
    # on shared runners; the datasets of the last execution of each arm are
    # compared for identity.
    serial_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        serial = _collect(SerialExecutor())
        serial_s = min(serial_s, time.perf_counter() - start)

    with ParallelExecutor(max_workers=_N_WORKERS) as executor:
        # Warm the pool outside the timed region so the measurement reflects
        # steady-state throughput, not process start-up.
        executor.map(abs, range(_N_WORKERS))
        parallel_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            parallel = _collect(executor)
            parallel_s = min(parallel_s, time.perf_counter() - start)

    np.testing.assert_array_equal(serial.inputs, parallel.inputs)
    np.testing.assert_array_equal(serial.targets, parallel.targets)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"\n{serial.n_samples}-sample collection: serial {serial_s:.2f}s vs "
        f"parallel({_N_WORKERS}) {parallel_s:.2f}s -> speedup {speedup:.2f}x "
        f"on {available_cpus()} usable CPUs"
    )
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if available_cpus() < _N_WORKERS:
        pytest.skip(
            f"only {available_cpus()} usable CPUs; speedup measured at {speedup:.2f}x"
        )
    elif strict:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {_N_WORKERS} workers, measured {speedup:.2f}x"
        )
