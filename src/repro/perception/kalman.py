"""Kalman filters.

The per-object tracker in the paper's perception system is a Kalman filter
("F" in Fig. 1) operating in a recursive predict/update loop with a Gaussian
measurement-noise model — which is precisely the assumption the attack
exploits (paper §III-B: noise injected within one standard deviation of the
modelled Gaussian cannot be distinguished from sensor noise, so the filter
tracks it).

:class:`KalmanFilter` is a generic linear filter, kept as the reference.
:class:`KalmanPool` is the constant-velocity bounding-box filter the
multi-object tracker runs: every track's state is one row of pooled arrays,
so predict and update run over many tracks — of one tracker or of every lane
of a batch — in a few stacked calls each.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["KalmanFilter", "KalmanPool"]


class KalmanFilter:
    """Generic linear Kalman filter with constant matrices."""

    def __init__(
        self,
        transition: np.ndarray,
        observation: np.ndarray,
        process_noise: np.ndarray,
        measurement_noise: np.ndarray,
        initial_state: np.ndarray,
        initial_covariance: np.ndarray,
    ):
        self.transition = np.asarray(transition, dtype=float)
        self.observation = np.asarray(observation, dtype=float)
        self.process_noise = np.asarray(process_noise, dtype=float)
        self.measurement_noise = np.asarray(measurement_noise, dtype=float)
        self.state = np.asarray(initial_state, dtype=float).reshape(-1)
        self.covariance = np.asarray(initial_covariance, dtype=float)
        n = self.state.shape[0]
        if self.transition.shape != (n, n):
            raise ValueError("transition matrix shape does not match state dimension")
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape does not match state dimension")
        m = self.observation.shape[0]
        if self.observation.shape != (m, n):
            raise ValueError("observation matrix shape is inconsistent")
        if self.measurement_noise.shape != (m, m):
            raise ValueError("measurement noise shape is inconsistent")

    def predict(self) -> np.ndarray:
        """Run the prediction step and return the predicted state."""
        self.state = self.transition @ self.state
        self.covariance = (
            self.transition @ self.covariance @ self.transition.T + self.process_noise
        )
        return self.state.copy()

    def update(self, measurement: np.ndarray) -> np.ndarray:
        """Run the update step with a measurement and return the new state.

        The gain solves ``K S = P Hᵀ`` directly (no explicit inverse) and the
        covariance uses the Joseph form ``(I−KH) P (I−KH)ᵀ + K R Kᵀ``, which —
        unlike the textbook ``(I−KH) P`` shortcut — keeps the covariance
        symmetric positive-semidefinite under floating-point error over long
        tracks; a final explicit symmetrization removes the last-bit asymmetry
        of the matrix products themselves.
        """
        measurement = np.asarray(measurement, dtype=float).reshape(-1)
        innovation = measurement - self.observation @ self.state
        innovation_cov = (
            self.observation @ self.covariance @ self.observation.T + self.measurement_noise
        )
        gain = np.linalg.solve(
            innovation_cov.T, (self.covariance @ self.observation.T).T
        ).T
        self.state = self.state + gain @ innovation
        identity = np.eye(self.state.shape[0])
        i_kh = identity - gain @ self.observation
        self.covariance = (
            i_kh @ self.covariance @ i_kh.T
            + gain @ self.measurement_noise @ gain.T
        )
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
        return self.state.copy()

    def predicted_measurement(self) -> np.ndarray:
        """The measurement the filter expects given its current state."""
        return self.observation @ self.state


# Constant-velocity bounding-box model shared by every pooled track.  State
# ``[cx, cy, w, h, vx, vy]`` (``vx, vy`` are pixel velocities of the box
# centre per frame); measurements ``[cx, cy, w, h]``.
F = np.eye(6)
F[0, 4] = 1.0
F[1, 5] = 1.0
H = np.zeros((4, 6))
H[0, 0] = H[1, 1] = H[2, 2] = H[3, 3] = 1.0
Q = np.diag([1.0, 1.0, 0.5, 0.5, 2.0, 2.0])
# Variance of each measured box coordinate: R is this times the identity, and
# the pool's update forms K R from it.
_MEASUREMENT_VAR = 10.0
R = np.eye(4) * _MEASUREMENT_VAR
P0 = np.diag([10.0, 10.0, 10.0, 10.0, 100.0, 100.0])
_I6 = np.eye(6)


class KalmanPool:
    """Structure-of-arrays storage for many bounding-box tracks' Kalman state.

    A track holds a *row* (its handle) in the pooled ``(cap, 6)`` state and
    ``(cap, 6, 6)`` covariance arrays; predict/update operate on arbitrary row
    subsets in a few stacked calls each, and every row evolves exactly as a
    :class:`KalmanFilter` built from ``F``, ``H``, ``Q``, ``R`` and ``P0``.

    ``F`` and ``H`` hold only exact 0 and 1 entries and ``R`` is ``r I``
    (``r`` the measurement variance), so every entry of ``F x``, ``F P``,
    ``(F P) Fᵀ``, ``P Hᵀ``, ``H P Hᵀ``, ``K H`` and ``K R`` has at most two
    non-zero terms, each an exact product: its dot product is their sum
    rounded once, or ``r K`` rounded once, which is what the slice sums,
    views and ``r K`` below compute.
    Only the sign of a zero could differ, and a matrix product's zero is
    ``+0.0``: so ``x + 0.0`` clears a ``-0.0`` a measurement may bring into
    a state, ``+ Q`` and ``+ R`` add ``+0.0`` off the diagonal, a covariance
    never holds ``-0.0``, and ``I − K H`` is ``+0.0`` wherever ``K H`` is
    zero.  The gain's solve, the Joseph products, their order and the
    symmetrization are :class:`KalmanFilter`'s, on arrays of the same
    layout, and NumPy evaluates a stacked matmul as the same dot products
    per stack element.
    The tracker helpers take :class:`~repro.perception.mot.MultiObjectTracker`
    objects whose tracks all live in this pool.
    """

    def __init__(self, capacity: int = 128):
        capacity = max(8, capacity)
        self.states = np.zeros((capacity, 6))
        self.covs = np.zeros((capacity, 6, 6))
        self._free = list(range(capacity - 1, -1, -1))

    def alloc(self, cx: float, cy: float, w: float, h: float) -> int:
        """A fresh row at rest on the box ``(cx, cy, w, h)``."""
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.states[row] = (cx, cy, w, h, 0.0, 0.0)
        self.covs[row] = P0
        return row

    def free(self, row: int) -> None:
        self._free.append(row)

    def _grow(self) -> None:
        old = self.states.shape[0]
        states = np.zeros((old * 2, 6))
        states[:old] = self.states
        covs = np.zeros((old * 2, 6, 6))
        covs[:old] = self.covs
        self.states = states
        self.covs = covs
        self._free.extend(range(old * 2 - 1, old - 1, -1))

    def predict(self, idx: np.ndarray) -> np.ndarray:
        """Stacked constant-velocity predict; returns the new states."""
        states = self.states.take(idx, axis=0)
        covs = self.covs.take(idx, axis=0)
        # F x: the box centre moves by its velocity.
        states += 0.0
        states[:, :2] += states[:, 4:]
        # F P Fᵀ + Q: F P adds the velocity rows to the centre rows, then
        # (F P) Fᵀ its velocity columns to its centre columns.
        covs[:, :2] += covs[:, 4:]
        covs[:, :, :2] += covs[:, :, 4:]
        covs += Q
        self.states[idx] = states
        self.covs[idx] = covs
        return states

    def update_rows(self, rows: List[int], measurements: List[tuple]) -> None:
        """One stacked measurement update (Joseph form, symmetrized) of
        ``rows`` with their ``(cx, cy, w, h)`` measurements."""
        if not rows:
            return
        idx = np.array(rows, dtype=np.intp)
        states = self.states.take(idx, axis=0)
        covs = self.covs.take(idx, axis=0)
        innovation = np.array(measurements) - states[:, :4]
        # P Hᵀ is P's first four columns, H P Hᵀ its top-left block.
        innovation_cov = covs[:, :4, :4] + R
        gain = np.linalg.solve(
            innovation_cov.transpose(0, 2, 1), covs[:, :, :4].transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        states = states + np.matmul(gain, innovation[..., None])[..., 0]
        # K H is K in the first four columns, zero in the velocity ones; K R
        # is r K, C-ordered as the product was.
        kh = np.zeros((len(rows), 6, 6))
        kh[:, :, :4] = gain
        i_kh = _I6 - kh
        covs = np.matmul(np.matmul(i_kh, covs), i_kh.transpose(0, 2, 1)) + np.matmul(
            np.multiply(gain, _MEASUREMENT_VAR, order="C"), gain.transpose(0, 2, 1)
        )
        self.covs[idx] = 0.5 * (covs + covs.transpose(0, 2, 1))
        self.states[idx] = states

    def predict_tracks(self, trackers: Sequence) -> None:
        """One stacked predict over every track of ``trackers``; each track
        ages a frame and keeps its predicted box (size floored at 1 px) for
        association."""
        refs = [track for tracker in trackers for track in tracker.tracks.values()]
        if not refs:
            return
        rows = np.array([track.row for track in refs], dtype=np.intp)
        states = self.predict(rows).tolist()
        for track, state in zip(refs, states):
            track.age_frames += 1
            track.pred_cx = state[0]
            track.pred_cy = state[1]
            w = state[2]
            h = state[3]
            track.pred_w = w if w > 1.0 else 1.0
            track.pred_h = h if h > 1.0 else 1.0
