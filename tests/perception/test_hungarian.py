"""Tests for the Hungarian assignment algorithm."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.perception import hungarian
from repro.perception.hungarian import assignment_total_cost, hungarian_assignment


def brute_force_minimum(cost: np.ndarray) -> float:
    """Reference minimum assignment cost by enumerating permutations."""
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    best = float("inf")
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), k):
            best = min(best, sum(cost[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_rows), k):
            best = min(best, sum(cost[r, j] for j, r in enumerate(rows)))
    return best


class TestHungarianBasics:
    def test_identity_matrix_prefers_diagonal_zeros(self):
        cost = 1.0 - np.eye(3)
        pairs = hungarian_assignment(cost)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_simple_known_case(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian_assignment(cost)
        assert assignment_total_cost(cost, pairs) == pytest.approx(5.0)

    def test_rectangular_more_columns(self):
        cost = np.array([[10.0, 1.0, 8.0], [7.0, 9.0, 2.0]])
        pairs = hungarian_assignment(cost)
        assert len(pairs) == 2
        assert assignment_total_cost(cost, pairs) == pytest.approx(3.0)

    def test_rectangular_more_rows(self):
        cost = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        pairs = hungarian_assignment(cost)
        assert len(pairs) == 2
        assert assignment_total_cost(cost, pairs) == pytest.approx(2.0)

    def test_empty_matrix(self):
        assert hungarian_assignment(np.zeros((0, 3))) == []
        assert hungarian_assignment(np.zeros((3, 0))) == []

    def test_single_element(self):
        assert hungarian_assignment(np.array([[7.0]])) == [(0, 0)]

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assignment(np.zeros(3))

    def test_assignment_is_one_to_one(self):
        rng = np.random.default_rng(0)
        cost = rng.random((6, 6))
        pairs = hungarian_assignment(cost)
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


class TestHungarianOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_square(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.random((5, 5))
        pairs = hungarian_assignment(cost)
        assert assignment_total_cost(cost, pairs) == pytest.approx(brute_force_minimum(cost))

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (2, 6), (6, 2)])
    def test_matches_brute_force_rectangular(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        cost = rng.random(shape)
        pairs = hungarian_assignment(cost)
        assert len(pairs) == min(shape)
        assert assignment_total_cost(cost, pairs) == pytest.approx(brute_force_minimum(cost))

    def test_matches_scipy(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(42)
        for _ in range(10):
            cost = rng.random((7, 7))
            ours = assignment_total_cost(cost, hungarian_assignment(cost))
            rows, cols = linear_sum_assignment(cost)
            assert ours == pytest.approx(cost[rows, cols].sum())

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_greedy(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        cost = rng.random((n_rows, n_cols))
        pairs = hungarian_assignment(cost)
        optimal = assignment_total_cost(cost, pairs)
        # Greedy row-by-row assignment is an upper bound on the optimum.
        taken = set()
        greedy = 0.0
        for row in range(min(n_rows, n_cols)):
            candidates = [(cost[row, c], c) for c in range(n_cols) if c not in taken]
            value, col = min(candidates)
            taken.add(col)
            greedy += value
        assert optimal <= greedy + 1e-9


def numpy_reference_assignment(cost_matrix):
    """The solver as it was written on NumPy arrays indexed one scalar at a
    time: the same algorithm, float64 arithmetic and strict ``<``
    tie-breaks, which the list solver must match pair for pair."""
    cost = np.asarray(cost_matrix, dtype=float)
    n_rows, n_cols = cost.shape
    if n_rows == 0 or n_cols == 0:
        return []
    transposed = False
    if n_rows > n_cols:
        cost = cost.T
        n_rows, n_cols = cost.shape
        transposed = True
    INF = float("inf")
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    match_for_col = np.zeros(n_cols + 1, dtype=int)
    way = np.zeros(n_cols + 1, dtype=int)
    for row in range(1, n_rows + 1):
        match_for_col[0] = row
        j0 = 0
        min_values = np.full(n_cols + 1, INF)
        used = np.zeros(n_cols + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_for_col[j0]
            delta = INF
            j1 = -1
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                current = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if current < min_values[j]:
                    min_values[j] = current
                    way[j] = j0
                if min_values[j] < delta:
                    delta = min_values[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[match_for_col[j]] += delta
                    v[j] -= delta
                else:
                    min_values[j] -= delta
            j0 = j1
            if match_for_col[j0] == 0:
                break
        while True:
            j1 = way[j0]
            match_for_col[j0] = match_for_col[j1]
            j0 = j1
            if j0 == 0:
                break
    pairs = [(int(match_for_col[col]) - 1, col - 1)
             for col in range(1, n_cols + 1) if match_for_col[col] > 0]
    if transposed:
        pairs = [(col, row) for row, col in pairs]
    return sorted(pairs)


class TestMatchesNumpyReference:
    """The list solver returns exactly the NumPy-array solver's pairs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_square_and_rectangular(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n_rows, n_cols = rng.integers(1, 7, size=2)
            cost = rng.random((n_rows, n_cols))
            pairs = hungarian_assignment(cost)
            assert pairs == numpy_reference_assignment(cost), cost
            assert hungarian_assignment(cost.tolist()) == pairs

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_valued_costs_break_ties_alike(self, seed):
        # Few distinct values force ties in the delta and min-value updates,
        # where only the strict ``<`` decides which pair wins.
        rng = np.random.default_rng(100 + seed)
        for _ in range(200):
            n_rows, n_cols = rng.integers(1, 7, size=2)
            cost = rng.integers(0, 3, size=(n_rows, n_cols))
            pairs = hungarian_assignment(cost)
            assert pairs == numpy_reference_assignment(cost), cost
            assert hungarian_assignment(cost.astype(float).tolist()) == pairs

    def test_all_equal_costs(self):
        for shape in [(2, 2), (3, 5), (5, 3), (6, 6)]:
            cost = np.ones(shape)
            assert hungarian_assignment(cost) == numpy_reference_assignment(cost)

    def test_pairs_are_plain_ints(self):
        pairs = hungarian_assignment(np.random.default_rng(3).random((4, 3)))
        assert all(type(row) is int and type(col) is int for row, col in pairs)

    def test_list_input_makes_no_numpy_call(self, monkeypatch):
        # The tracker passes its costs as lists of rows; that path converts
        # nothing and checks finiteness without NumPy.
        def forbidden(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("the list path must not convert through NumPy")

        monkeypatch.setattr(hungarian.np, "asarray", forbidden)
        assert hungarian_assignment([[4.0, 1.0], [2.0, 0.5]]) == [(0, 1), (1, 0)]

    def test_ragged_list_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            hungarian_assignment([[1.0, 2.0], [3.0]])


class TestNonFiniteCostsRejected:
    def test_all_infinite_matrix_raises_instead_of_hanging(self):
        # No augmenting path ever closes on an all-inf matrix: the solver
        # once spun forever.  A child process with a timeout turns a hang
        # into a failure (TimeoutExpired) instead of a stuck suite.
        code = (
            "import numpy as np\n"
            "from repro.perception.hungarian import hungarian_assignment\n"
            "try:\n"
            "    hungarian_assignment(np.full((2, 2), np.inf))\n"
            "except ValueError as error:\n"
            "    print('ValueError:', error)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ValueError: cost matrix entries must be finite")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("position", [(0, 0), (0, 1), (1, 1)])
    def test_non_finite_entry_raises(self, value, position):
        # These once returned an arbitrary matching without an error.
        cost = np.array([[3.0, 1.0], [1.0, 2.0]])
        cost[position] = value
        with pytest.raises(ValueError, match="finite"):
            hungarian_assignment(cost)
        with pytest.raises(ValueError, match="finite"):
            hungarian_assignment(cost.tolist())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_entry_of_rectangular_matrix_raises(self, value):
        cost = np.arange(6, dtype=float).reshape(3, 2)
        cost[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            hungarian_assignment(cost)
