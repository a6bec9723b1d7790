"""Tests for the serial and process-parallel executors."""

import os

import pytest

from repro.runtime.executor import (
    Executor,
    FaultInjectingExecutor,
    InjectedFault,
    ParallelExecutor,
    SerialExecutor,
    available_cpus,
    chunked,
    executor_scope,
    resolve_executor,
)


def _square(x: int) -> int:
    return x * x


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_input(self):
        assert SerialExecutor().map(_square, []) == []

    def test_imap_streams_tagged_pairs_in_order(self):
        assert list(SerialExecutor().imap(_square, [3, 1, 2])) == [(0, 9), (1, 1), (2, 4)]

    def test_imap_is_lazy(self):
        seen = []

        def observe(x):
            seen.append(x)
            return x

        stream = SerialExecutor().imap(observe, [1, 2, 3])
        assert seen == []
        assert next(stream) == (0, 1)
        assert seen == [1]


class TestImapStreaming:
    def test_parallel_imap_tags_match_inputs(self):
        with ParallelExecutor(max_workers=2) as executor:
            pairs = list(executor.imap(_square, range(10)))
        # Completion order is backend-dependent; the tags are not.
        assert sorted(pairs) == [(i, i * i) for i in range(10)]

    def test_parallel_imap_single_item_runs_inline(self):
        executor = ParallelExecutor(max_workers=2)
        assert list(executor.imap(_square, [6])) == [(0, 36)]
        assert executor._pool is None

    def test_parallel_imap_empty(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert list(executor.imap(_square, [])) == []


class TestMapOnImap:
    """``imap`` is the one fan-out an executor implements; ``map`` is built on it."""

    def test_executor_without_imap_cannot_be_built(self):
        class Bare(Executor):
            pass

        with pytest.raises(TypeError):
            Bare()

    def test_imap_only_executor_is_complete(self):
        class ImapOnly(Executor):
            def imap(self, fn, items):
                return ((index, fn(item)) for index, item in enumerate(items))

        with ImapOnly() as executor:
            assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]
            assert executor.map(_square, []) == []
            assert executor.workers == 1

    def test_map_reassembles_an_out_of_order_stream(self):
        class LastFirst(Executor):
            def imap(self, fn, items):
                pairs = [(index, fn(item)) for index, item in enumerate(items)]
                return iter(pairs[::-1])

        assert LastFirst().map(_square, [3, 1, 2]) == [9, 1, 4]


class TestFaultInjectingExecutor:
    def test_completes_then_dies(self):
        executor = FaultInjectingExecutor(2)
        stream = executor.imap(_square, [1, 2, 3, 4])
        assert next(stream) == (0, 1)
        assert next(stream) == (1, 4)
        with pytest.raises(InjectedFault):
            next(stream)
        assert executor.completed == 2

    def test_zero_fail_after_dies_immediately(self):
        with pytest.raises(InjectedFault):
            list(FaultInjectingExecutor(0).imap(_square, [1]))

    def test_map_raises_at_the_fault_point(self):
        with pytest.raises(InjectedFault):
            FaultInjectingExecutor(1).map(_square, [1, 2])

    def test_survives_when_under_budget(self):
        executor = FaultInjectingExecutor(10)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_counter_spans_calls(self):
        executor = FaultInjectingExecutor(3)
        assert executor.map(_square, [1, 2]) == [1, 4]
        with pytest.raises(InjectedFault):
            executor.map(_square, [3, 4])

    def test_negative_fail_after_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingExecutor(-1)


class TestParallelExecutor:
    def test_map_matches_serial(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert executor.map(_square, range(10)) == [x * x for x in range(10)]

    def test_single_item_runs_inline(self):
        executor = ParallelExecutor(max_workers=2)
        assert executor.map(_square, [5]) == [25]
        # No pool was ever created for a single item.
        assert executor._pool is None

    def test_empty_input(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert executor.map(_square, []) == []

    def test_pool_reused_across_maps(self):
        with ParallelExecutor(max_workers=2) as executor:
            executor.map(_square, range(4))
            pool = executor._pool
            executor.map(_square, range(4))
            assert executor._pool is pool

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(max_workers=2)
        executor.map(_square, range(4))
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_worker_processes_are_real(self):
        with ParallelExecutor(max_workers=2) as executor:
            pids = set(executor.map(_pid, range(8)))
        assert os.getpid() not in pids

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)


def _pid(_: int) -> int:
    return os.getpid()


class TestChunked:
    def test_chunks_are_consecutive_and_at_most_max_size(self):
        assert chunked(range(10), 4, SerialExecutor()) == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert chunked(range(10), 32, SerialExecutor()) == [list(range(10))]

    def test_chunks_narrow_so_every_worker_gets_one(self):
        executor = ParallelExecutor(max_workers=4)  # no pool until a map
        assert chunked(range(10), 32, executor) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert chunked(range(10), 2, executor) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        assert chunked(range(2), 32, FaultInjectingExecutor(1, inner=executor)) == [[0], [1]]

    def test_empty_input(self):
        assert chunked([], 32, SerialExecutor()) == []


class TestExecutorScope:
    """An executor is closed by the call that resolved it, and only by it."""

    def test_resolved_executor_is_closed_on_exit(self):
        with executor_scope(2) as executor:
            assert executor.map(_square, range(4)) == [0, 1, 4, 9]
            assert executor._pool is not None
        assert executor._pool is None

    def test_resolved_executor_is_closed_when_the_block_raises(self):
        with pytest.raises(ZeroDivisionError):
            with executor_scope(2) as executor:
                executor.map(_square, range(4))
                1 / 0
        assert executor._pool is None

    def test_callers_executor_stays_open(self):
        with ParallelExecutor(max_workers=2) as caller:
            with executor_scope(caller) as executor:
                assert executor is caller
                executor.map(_square, range(4))
            assert caller._pool is not None

    def test_none_scopes_a_serial_executor(self):
        with executor_scope() as executor:
            assert isinstance(executor, SerialExecutor)


class TestResolveExecutor:
    def test_none_and_small_counts_are_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(0), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_counts_above_one_are_parallel(self):
        executor = resolve_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 3

    def test_minus_one_uses_all_cpus(self):
        executor = resolve_executor(-1)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == available_cpus()

    def test_executor_instances_pass_through(self):
        serial = SerialExecutor()
        assert resolve_executor(serial) is serial

    def test_invalid_specs_rejected(self):
        with pytest.raises(TypeError):
            resolve_executor("four")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            resolve_executor(True)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            resolve_executor(-2)
