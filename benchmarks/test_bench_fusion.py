"""Micro-benchmark: fusion-policy dispatch cost in the batch engine.

The fusion-policy refactor routed every batch lane's fusion step through
``_fuse_impl`` (bound per lane from the agent's policy) and widened the
per-frame estimate tuples to carry track/actor identity for the new policy
ports.  This benchmark pins that the default ``late`` policy still clears
the batch engine's runs/sec bound over one-lane runs at N=64 — the
refactor must be free on the hot path — and records the throughput of the
other built-in policies for the BENCH output.

The bound (``MIN_SPEEDUP``) gates the median speedup over alternating
one-lane/batch sample pairs (:mod:`benchmarks.engine_speed`).  Like the other
benchmarks, ``REPRO_BENCH_STRICT=0`` demotes the assertion to a recorded
metric for noisy shared runners.
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
from repro.perception.fusion import FusionConfig, list_fusion_policies

_WIDTH = 64


def test_bench_fusion_policy_throughput():
    pairs = paired_seconds_per_run(_WIDTH, FusionConfig(policy="late"))
    ratios = speedups(pairs)
    late_speedup = statistics.median(ratios)
    one_lane_per_run = statistics.median(one_lane for one_lane, _ in pairs)
    print(f"\none-lane late        : {1.0 / one_lane_per_run:8.1f} runs/sec")

    for policy in list_fusion_policies():
        if policy == "late":
            per_run = statistics.median(batch for _, batch in pairs)
            speedup = late_speedup
        else:
            per_run = batch_seconds_per_run(_WIDTH, FusionConfig(policy=policy))
            speedup = one_lane_per_run / per_run
        print(
            f"batch {policy:<15s}: {1.0 / per_run:8.1f} runs/sec "
            f"(vs one-lane late {speedup:.2f}x)"
        )
    print("late per-pair speedups: " + " ".join(f"{r:.2f}" for r in ratios))

    # REPRO_BENCH_STRICT=0 demotes the bound to a recorded metric.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"
    if strict:
        assert late_speedup >= MIN_SPEEDUP, (
            f"late-policy batch engine regressed below {MIN_SPEEDUP}x "
            f"one-lane runs at N={_WIDTH}: measured {late_speedup:.2f}x"
        )
    elif late_speedup < MIN_SPEEDUP:
        pytest.skip(
            f"non-strict mode: measured {late_speedup:.2f}x "
            f"(< {MIN_SPEEDUP}x) at N={_WIDTH}"
        )
