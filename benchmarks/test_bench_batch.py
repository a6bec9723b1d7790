"""Micro-benchmark: scalar vs. vectorized batch simulation throughput.

Times the reference :class:`~repro.sim.simulator.Simulator` against the
lockstep :class:`~repro.sim.batch.BatchSimulator` on identically-seeded DS-1
runs, printing runs/sec at every batch width N in {1, 16, 64, 256} so the
perf trajectory is recorded in BENCH output.  The within-process speedup
comes from amortizing the per-step interpreter overhead (stacked Kalman
algebra, one lockstep loop) across lanes and is orthogonal to ``--jobs``
process fan-out: campaigns compose both (``engine="batch"`` + ``--jobs``).

The assertion at N=64 gates the median speedup over alternating
scalar/batch sample pairs at ``MIN_SPEEDUP`` (:mod:`benchmarks.engine_speed`,
which also records how that bound was derived), so a host that changes speed
mid-test does not decide it; like the other benchmarks,
``REPRO_BENCH_STRICT=0`` demotes it to a recorded metric for noisy shared
runners.
"""

from __future__ import annotations

import os
import statistics

import pytest

from benchmarks.engine_speed import (
    MIN_SPEEDUP,
    batch_seconds_per_run,
    paired_seconds_per_run,
    speedups,
)

_WIDTHS = (1, 16, 64, 256)
_GATED_WIDTH = 64


def test_bench_batch_engine_throughput():
    pairs = paired_seconds_per_run(_GATED_WIDTH)
    ratios = speedups(pairs)
    gated_speedup = statistics.median(ratios)
    scalar_per_run = statistics.median(scalar for scalar, _ in pairs)
    print(f"\nscalar    : {1.0 / scalar_per_run:8.1f} runs/sec")

    for width in _WIDTHS:
        if width == _GATED_WIDTH:
            per_run = statistics.median(batch for _, batch in pairs)
            speedup = gated_speedup
            note = f", median of {len(pairs)} pairs"
        else:
            per_run = batch_seconds_per_run(width)
            speedup = scalar_per_run / per_run
            note = ""
        print(
            f"batch N={width:<4d}: {1.0 / per_run:8.1f} runs/sec "
            f"(speedup {speedup:.2f}x{note})"
        )
    print("per-pair speedups at N=64: " + " ".join(f"{r:.2f}" for r in ratios))

    # REPRO_BENCH_STRICT=0 demotes the bound to a recorded metric.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert gated_speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x runs/sec over the scalar loop at "
            f"N={_GATED_WIDTH}, measured {gated_speedup:.2f}x"
        )
    elif gated_speedup < MIN_SPEEDUP:
        pytest.skip(
            f"non-strict mode: measured {gated_speedup:.2f}x "
            f"(< {MIN_SPEEDUP}x) at N={_GATED_WIDTH}"
        )
