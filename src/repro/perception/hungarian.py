"""The Hungarian (Kuhn-Munkres) assignment algorithm.

The multi-object tracker formulates the association of detections to existing
trackers as a bipartite matching problem solved with the Hungarian algorithm
("M" in paper Fig. 1).  This is a from-scratch O(n^3) implementation using the
shortest-augmenting-path formulation with potentials; it is also the matching
cost that the trajectory hijacker maximizes in paper Eq. (4).

The solver runs on Python lists of floats: the tracker's matrices are a few
rows wide, so indexing NumPy arrays one scalar at a time would cost more than
the arithmetic.  The float64 arithmetic and the strict ``<`` tie-breaks are
the textbook algorithm's, so the matching equals a NumPy-array solve of the
same algorithm pair for pair.
"""

from __future__ import annotations

from math import isfinite
from typing import List, Tuple

import numpy as np

__all__ = ["hungarian_assignment", "assignment_total_cost"]


def hungarian_assignment(cost_matrix: np.ndarray | List[List[float]]) -> List[Tuple[int, int]]:
    """Solve the minimum-cost assignment problem.

    ``cost_matrix`` has shape ``(n_rows, n_cols)``: an array, or a list of
    equal-length rows of floats (which the tracker passes, so its path makes
    no NumPy call).  The function returns a sorted list of ``(row, col)``
    ``int`` pairs forming a minimum-cost matching that covers
    ``min(n_rows, n_cols)`` rows/columns.  The matrix does not need to be
    square.  Every cost must be finite, or ``ValueError`` is raised before
    solving: an infinite cost turns the potentials into infinities and NaNs
    (an all-infinite matrix never closes an augmenting path), and a NaN
    compares false both ways, so the matching would be arbitrary.
    """
    if type(cost_matrix) is list and cost_matrix and all(type(row) is list for row in cost_matrix):
        cost = cost_matrix
    else:
        array = np.asarray(cost_matrix, dtype=float)
        if array.ndim != 2:
            raise ValueError("cost matrix must be two-dimensional")
        cost = array.tolist()
    n_rows = len(cost)
    n_cols = len(cost[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return []
    for row in cost:
        if len(row) != n_cols:
            raise ValueError("cost matrix rows must have equal length")
        if not all(map(isfinite, row)):
            raise ValueError("cost matrix entries must be finite")
    transposed = False
    if n_rows > n_cols:
        cost = [list(col) for col in zip(*cost)]
        n_rows, n_cols = n_cols, n_rows
        transposed = True

    # Potentials-based shortest augmenting path algorithm (1-indexed).
    INF = float("inf")
    u = [0.0] * (n_rows + 1)
    v = [0.0] * (n_cols + 1)
    match_for_col = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)
    columns = range(1, n_cols + 1)

    for row in range(1, n_rows + 1):
        match_for_col[0] = row
        j0 = 0
        min_values = [INF] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = match_for_col[j0]
            cost_row = cost[i0 - 1]
            u_i0 = u[i0]
            delta = INF
            j1 = -1
            for j in columns:
                if used[j]:
                    continue
                current = cost_row[j - 1] - u_i0 - v[j]
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

    pairs = [(match_for_col[col] - 1, col - 1) for col in columns if match_for_col[col] > 0]
    if transposed:
        pairs = [(col, row) for row, col in pairs]
    pairs.sort()
    return pairs


def assignment_total_cost(cost_matrix: np.ndarray, pairs: List[Tuple[int, int]]) -> float:
    """Total cost of an assignment returned by :func:`hungarian_assignment`."""
    cost = np.asarray(cost_matrix, dtype=float)
    return float(sum(cost[row, col] for row, col in pairs))
