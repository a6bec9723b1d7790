"""Micro-benchmark: one-lane vs. wide lockstep batch simulation throughput.

Times one-lane runs (:meth:`~repro.sim.simulator.Simulator.run`) against
wide lockstep :class:`~repro.sim.batch.BatchSimulator` batches on
identically-seeded DS-1 runs, printing runs/sec at every batch width N in
{1, 16, 64, 256} so the perf trajectory is recorded in BENCH output, and
at N=64 for every other built-in fusion-policy victim (ungated).  The
within-process speedup comes from amortizing the per-step interpreter
overhead (stacked Kalman algebra, one lockstep loop) across lanes and is
orthogonal to ``--jobs`` process fan-out: campaigns compose both
(``--batch-size`` + ``--jobs``).

Two gates, both on medians of alternating sample pairs
(:mod:`benchmarks.engine_speed`), so a host that changes speed mid-test does
not decide them:

* at N=64, the speedup over one-lane runs is at least ``MIN_SPEEDUP``
  (``engine_speed`` records how that bound was derived).  DS-1's victim
  runs the default ``late`` fusion policy, so this is also the late
  policy's gate;
* per-run throughput does not fall from N=64 to N=256: each N=256 sample is
  paired with the mean of the N=64 samples around it, and the median ratio
  of their runs/sec is at least ``MIN_WIDE_RATIO``.  These samples also give
  the curve's N=256 line.

Like the other benchmarks, ``REPRO_BENCH_STRICT=0`` demotes both gates to
recorded metrics for noisy shared runners.
"""

from __future__ import annotations

import os
import statistics

import pytest

from benchmarks.engine_speed import (
    MIN_SPEEDUP,
    PAIRS,
    alternating_pairs,
    batch_seconds_per_run,
    paired_seconds_per_run,
    speedups,
)
from repro.perception.fusion import DEFAULT_FUSION_POLICY, FUSION_POLICIES, FusionConfig

_WIDTHS = (1, 16, 64, 256)
_GATED_WIDTH = 64
_WIDE_WIDTH = 256
#: Least median N=256 / N=64 per-run throughput ratio over ``PAIRS``
#: alternating (N=64, N=256) pairs.  In lockstep groups of
#: ``LOCKSTEP_LANES`` a wide batch keeps N=64's rate, and one 256-lane
#: lockstep did not: medians of 9 pairs read 0.92-1.07 and 0.70-0.84 on a
#: shared 2-vCPU host.  Single pairs there read 0.64-1.52, and a slow
#: stretch of 30 s can hurt the wide batch more, so medians of 3 or 5 pairs
#: fell below 0.9 in 1 of 10 runs each: hence 9 pairs, and a bound between
#: the two sets of readings.
MIN_WIDE_RATIO = 0.85


def test_bench_batch_engine_throughput():
    pairs = paired_seconds_per_run(_GATED_WIDTH)
    ratios = speedups(pairs)
    gated_speedup = statistics.median(ratios)
    wide_pairs = alternating_pairs(
        lambda: batch_seconds_per_run(_GATED_WIDTH),
        lambda: batch_seconds_per_run(_WIDE_WIDTH),
        PAIRS,
    )
    wide_ratios = speedups(wide_pairs)
    wide_ratio = statistics.median(wide_ratios)
    one_lane_per_run = statistics.median(one_lane for one_lane, _ in pairs)
    print(f"\none-lane  : {1.0 / one_lane_per_run:8.1f} runs/sec")

    for width in _WIDTHS:
        if width == _GATED_WIDTH:
            per_run = statistics.median(batch for _, batch in pairs)
            speedup = gated_speedup
            note = f", median of {len(pairs)} pairs"
        elif width == _WIDE_WIDTH:
            per_run = statistics.median(wide for _, wide in wide_pairs)
            speedup = one_lane_per_run / per_run
            note = f", median of {len(wide_pairs)} samples"
        else:
            per_run = batch_seconds_per_run(width)
            speedup = one_lane_per_run / per_run
            note = ""
        print(
            f"batch N={width:<4d}: {1.0 / per_run:8.1f} runs/sec "
            f"(speedup {speedup:.2f}x{note})"
        )
    for policy in sorted(FUSION_POLICIES):
        if policy != DEFAULT_FUSION_POLICY:
            per_run = batch_seconds_per_run(_GATED_WIDTH, FusionConfig(policy=policy))
            print(
                f"batch N={_GATED_WIDTH} {policy:<17s}: {1.0 / per_run:8.1f} runs/sec "
                f"(vs one-lane late {one_lane_per_run / per_run:.2f}x)"
            )
    print("per-pair speedups at N=64: " + " ".join(f"{r:.2f}" for r in ratios))
    print(f"per-pair N={_WIDE_WIDTH}/N={_GATED_WIDTH} runs/sec: "
          + " ".join(f"{r:.2f}" for r in wide_ratios))

    failures = []
    if gated_speedup < MIN_SPEEDUP:
        failures.append(
            f"expected >= {MIN_SPEEDUP}x runs/sec over one-lane runs at "
            f"N={_GATED_WIDTH}, measured {gated_speedup:.2f}x"
        )
    if wide_ratio < MIN_WIDE_RATIO:
        failures.append(
            f"expected N={_WIDE_WIDTH} runs/sec >= {MIN_WIDE_RATIO} x "
            f"N={_GATED_WIDTH}'s, measured {wide_ratio:.2f}"
        )
    # REPRO_BENCH_STRICT=0 demotes the bounds to recorded metrics.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert not failures, "; ".join(failures)
    elif failures:
        pytest.skip("non-strict mode: " + "; ".join(failures))
