"""Execution runtime: parallel executors, content keys, and the CLI.

This package is the infrastructure layer underneath the experiment harness:

* :mod:`repro.runtime.executor` — the :class:`Executor` abstraction, whose
  one fan-out is the index-tagged streaming ``imap``, with a
  :class:`SerialExecutor` (in-process, one item after another) and a
  :class:`ParallelExecutor` (a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out) that produce *identical* results for seeded workloads, and
  :func:`executor_scope`, which closes an executor only if the call that
  resolved it created it;
* :mod:`repro.runtime.cache` — :func:`~repro.runtime.cache.encode_key`,
  the canonical key encoding every content hash derives from, and
  :func:`~repro.runtime.cache.atomic_publish`, temp-file + rename writes;
* :mod:`repro.runtime.cli` — the ``repro-campaign`` console entry point.

The runtime deliberately depends on nothing above it (no ``repro.sim`` /
``repro.experiments`` imports outside the CLI), so every layer of the
reproduction can build on it without cycles; the simulation and perception
layers need none of it.
"""

from repro.runtime.executor import (
    Executor,
    ExecutorLike,
    FaultInjectingExecutor,
    InjectedFault,
    ParallelExecutor,
    SerialExecutor,
    available_cpus,
    chunked,
    executor_scope,
    resolve_executor,
)

__all__ = [
    "Executor",
    "ExecutorLike",
    "FaultInjectingExecutor",
    "InjectedFault",
    "ParallelExecutor",
    "SerialExecutor",
    "available_cpus",
    "chunked",
    "executor_scope",
    "resolve_executor",
]
