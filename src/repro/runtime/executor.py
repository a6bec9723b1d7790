"""Executors: serial and process-parallel fan-out of independent work items.

The experiment campaigns of the paper are embarrassingly parallel: each run
is seeded independently via ``np.random.SeedSequence([root_seed, run_index])``
and shares no mutable state with its siblings.  The :class:`Executor`
abstraction lets every campaign entry point fan those runs out over worker
processes while guaranteeing that :class:`SerialExecutor` and
:class:`ParallelExecutor` produce *element-wise identical* results — the
ordering and seeding of work items never depend on the execution backend.

:meth:`Executor.imap` is the one fan-out an executor implements: it streams
``(input_index, result)`` pairs as work items complete, and
:meth:`Executor.map` is built on it.  :func:`executor_scope` resolves an
``executor=`` argument for the length of one call and closes the executor
only if that call created it.

Worker functions must be picklable (module-level callables or
``functools.partial`` of them) because :class:`ParallelExecutor` is backed by
:class:`concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import abc
import contextlib
import math
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "FaultInjectingExecutor",
    "InjectedFault",
    "ExecutorLike",
    "resolve_executor",
    "executor_scope",
    "available_cpus",
    "chunked",
]

T = TypeVar("T")
R = TypeVar("R")

#: Anything :func:`resolve_executor` accepts: an executor, a worker count
#: (``-1`` = all CPUs, ``0``/``1`` = serial), or ``None`` (serial).
ExecutorLike = Union["Executor", int, None]


def available_cpus() -> int:
    """The number of CPUs usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class Executor(abc.ABC):
    """Fans a function out over work items."""

    @abc.abstractmethod
    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[Tuple[int, R]]:
        """Apply ``fn`` to every item, yielding ``(input_index, result)`` pairs.

        Results stream back *as they complete* — the order of the yielded
        pairs is backend-dependent, but every pair is tagged with the index of
        its input item, so consumers that checkpoint or reassemble by index
        (the campaign runner, the oracle's dataset collection) are
        backend-independent.
        """

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item and return the results in input order."""
        results = dict(self.imap(fn, items))
        return [results[index] for index in range(len(results))]

    @property
    def workers(self) -> int:
        """How many work items this executor runs at once."""
        return 1

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def chunked(items: Sequence[T], max_size: int, executor: Executor) -> List[List[T]]:
    """Consecutive chunks of ``items``, ``min(max_size, ceil(n / workers))``
    wide, so every worker of ``executor`` gets a chunk when there are enough
    items."""
    if not items:
        return []
    width = min(max_size, math.ceil(len(items) / executor.workers))
    return [list(items[start:start + width]) for start in range(0, len(items), width)]


class SerialExecutor(Executor):
    """Runs every work item in-process, one after another."""

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[Tuple[int, R]]:
        for index, item in enumerate(items):
            yield index, fn(item)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fans work items out over a pool of worker processes.

    Every work item is one pool task.  The pool is created lazily on the
    first fan-out of two or more items and reused until :meth:`close`, so one
    executor can serve many campaigns without paying the process start-up
    cost each time.  Results come back tagged with their input index, and
    per-item seeding is the caller's responsibility (the campaign runner seeds
    each run from ``(root_seed, run_index)``), which is what makes parallel
    output bit-identical to serial output.

    Workers are started with the ``fork`` method where the platform offers it,
    so per-process state set up before the fan-out — such as scenarios
    registered by downstream plugins via ``@register_scenario`` — is visible
    inside the workers.  On spawn-only platforms (Windows) such state must
    instead be established at module import time, because workers re-import
    modules from scratch.
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers or available_cpus()
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        return self.max_workers

    @staticmethod
    def _mp_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - spawn-only platforms
            return None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._mp_context()
            )
        return self._pool

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[Tuple[int, R]]:
        materialized: Sequence[T] = list(items)
        if not materialized:
            return
        if len(materialized) == 1:
            # A single item never amortizes pool start-up; run it inline.
            yield 0, fn(materialized[0])
            return
        pool = self._ensure_pool()
        index_of = {
            pool.submit(fn, item): index for index, item in enumerate(materialized)
        }
        pending = set(index_of)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield index_of[future], future.result()
        finally:
            # The consumer may abandon the stream (or a work item may raise);
            # don't leave queued-but-unstarted futures behind in the pool.
            for future in pending:
                future.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers})"


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjectingExecutor` at its configured fail point."""


class FaultInjectingExecutor(Executor):
    """An executor that dies after a fixed number of completed work items.

    A testing aid for crash/resume semantics: the first ``fail_after`` items
    complete normally (and reach the consumer, so checkpoints land on disk),
    then :class:`InjectedFault` is raised — simulating a campaign process
    killed mid-flight without needing real signals.  The counter spans calls,
    mirroring a single process crashing partway through a batch.
    """

    def __init__(self, fail_after: int, inner: Optional[Executor] = None):
        if fail_after < 0:
            raise ValueError("fail_after must be non-negative")
        self.fail_after = fail_after
        self.inner = inner or SerialExecutor()
        self.completed = 0

    @property
    def workers(self) -> int:
        return self.inner.workers

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[Tuple[int, R]]:
        for pair in self.inner.imap(fn, items):
            if self.completed >= self.fail_after:
                raise InjectedFault(
                    f"injected fault after {self.completed} completed items"
                )
            self.completed += 1
            yield pair

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return (
            f"FaultInjectingExecutor(fail_after={self.fail_after}, inner={self.inner!r})"
        )


def resolve_executor(spec: ExecutorLike = None) -> Executor:
    """Coerce an executor spec into an :class:`Executor`.

    * ``None``, ``0``, or ``1`` — :class:`SerialExecutor`;
    * ``n > 1`` — :class:`ParallelExecutor` with ``n`` workers;
    * ``-1`` — :class:`ParallelExecutor` over all available CPUs;
    * an :class:`Executor` instance — returned unchanged.

    This is the type behind every ``executor=`` / ``--jobs`` knob in the
    experiment layer.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise TypeError(f"executor spec must be an Executor, int, or None, got {spec!r}")
    if spec == -1:
        return ParallelExecutor(available_cpus())
    if spec < -1:
        raise ValueError(f"negative worker counts other than -1 are invalid: {spec}")
    if spec <= 1:
        return SerialExecutor()
    return ParallelExecutor(spec)


@contextlib.contextmanager
def executor_scope(spec: ExecutorLike = None) -> Iterator[Executor]:
    """Resolve ``spec`` (see :func:`resolve_executor`) for a ``with`` block.

    An executor the block resolved from ``None`` or a worker count is closed
    when the block exits, also when it raises; an :class:`Executor` the caller
    passed in stays open, so one worker pool can serve many calls.
    """
    executor = resolve_executor(spec)
    try:
        yield executor
    finally:
        if executor is not spec:
            executor.close()
