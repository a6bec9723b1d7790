"""Vectorized batch simulation engine.

``BatchSimulator`` advances N independently-seeded runs ("lanes") in lockstep
within one process.  The expensive numerical kernel — the per-track Kalman
predict/update of the multi-object tracker — is batched across *all* live
tracks of *all* lanes into stacked ``(M, 6)`` state / ``(M, 6, 6)`` covariance
arrays, while the cheap-but-branchy per-lane logic (sensor rendering, detector
noise, association, fusion, planning) runs as straight-line Python over plain
floats.  The scalar :class:`~repro.sim.simulator.Simulator` remains the
reference path; the batch engine is validated against it bit-for-bit by the
equivalence suite (``tests/sim/test_batch_equivalence.py``), and the stages
both engines share are pinned by the golden digests
(``tests/sim/test_golden_traces.py``).

Determinism contract
--------------------

The batch engine reproduces the scalar path *bit-identically* (traces, events,
final state) for any lane set, by construction:

* **Seeding** — each lane draws ``sensor_seeds = rng.integers(0, 2**31-1,
  size=2)`` from its spec's generator, exactly as ``Simulator.__init__`` does,
  so the LiDAR/GPS streams are seeded identically.
* **Per-consumer streams** — every stochastic consumer (detector, LiDAR, GPS,
  attacker) owns its own ``np.random.Generator``, so reordering *across*
  consumers cannot change any draw.  The detector's runtime generator is taken
  from the supplied agent (``ads.perception.detector._rng``) and consumed with
  scalar calls in the exact scalar order (its draw count is data-dependent).
* **Buffered sensor noise** — the LiDAR/GPS generators are consumed by one
  bulk ``Generator.normal(loc, scale, size=n)`` draw per lane at construction.
  NumPy's Generator produces bit-identical values for a size-``n`` vector draw
  and ``n`` sequential scalar draws with the same ``loc``/``scale`` (both walk
  the same ziggurat stream), so buffering is exact.  When the GPS position and
  speed sigmas differ the buffer falls back to sequential scalar draws.  The
  buffers are ``array("d")`` (8 bytes a value; indexing yields the same
  Python float a list would hold), and the GPS one keeps only the speed
  draws, the one GPS value the victim reads.
* **Batched Kalman algebra** — the stacked predict/update uses ``np.matmul``
  broadcasting with the same left-associated operation order, the same ``.T``
  views, and the same Joseph-form + symmetrization expressions as the scalar
  ``KalmanFilter``; NumPy evaluates a stacked matmul as the identical sequence
  of dot products per stack element, so the results are bit-identical.
* **Per-lane ports** — camera projection, detection noise, IoU/Hungarian
  association and the image-to-world transform are literal ports of the
  scalar code with identical evaluation order (including float
  left-associativity), as are the world-side sensors, kinematics and
  ground-truth safety potential.
* **Shared victim stages** — fusion, planning, PID trim and actuation
  smoothing are not ported: each lane calls its victim agent's own objects,
  ``ads.perception.fusion.fuse`` (:class:`RowFusionPolicy`),
  ``ads.planner.plan_rows`` and ``ads.actuate``, on the plain-float rows the
  lane already carries — the same code the scalar ``AdsAgent.step`` runs
  through its dataclass adapters.

Restrictions (the scalar path has none of these):

* every lane shares one :class:`SimulationConfig` (lockstep needs one ``dt``);
* the victim's camera perception must be fresh — a detector, tracker or
  transform that carries state from an earlier run is rejected (call
  ``ads.reset()`` first), because the camera-stage ports start empty.

Reference-engine lanes
----------------------

A ported lane calls its fusion policy's row-level core, which is what
``step`` runs only while it is the shared :meth:`RowFusionPolicy.step`
adapter (every built-in keeps it, as does a subclass that only overrides
``fuse`` or the blend weights).  A lane whose policy has its own ``step`` — a
third-party ``FUSION_POLICIES`` entry, say — runs on the reference
:class:`~repro.sim.simulator.Simulator` instead, from the same
:class:`BatchRunSpec`; its result takes its place in spec order.

Attackers
---------

RoboTack and its baselines (:class:`CameraMitmAttackerBase` with the stock
frame hook and a fresh, stock :class:`PerceptionSystem` replica) run their
camera-only replica on the batch engine too: the lane gets a second
:class:`_CameraPerception` (detector, tracker and image-to-world ports; the
replica's fusion stage is dropped because the attacker reads only world
estimates), whose tracks share the Kalman pool with the victims' tracks.  The
attacker's frame hook is called in its two halves around the replica step,
in the scalar order:

* before the stacked predict, :meth:`~CameraMitmAttackerBase.frame_for_replica`
  picks the frame the replica observes; a running attack perturbs it with the
  replica's target track as the previous frame left it;
* after the replicas' stacked update,
  :meth:`~CameraMitmAttackerBase.frame_to_deliver` decides on a launch from
  this frame's world estimates, and a launch reads this frame's updated
  target track.

Once the attacker's episode is over (:attr:`~CameraMitmAttackerBase.episode_over`)
the replica's Kalman rows are freed and the attacker is no longer called: it
would pass every frame through unchanged.  Any other attacker — one that
implements only the :class:`CameraAttacker` protocol — is invoked as a black
box on real :class:`CameraFrame` objects every frame, so it composes
unchanged.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.ads.safety import SafetyModel
from repro.core.robotack import CameraMitmAttackerBase
from repro.geometry.bbox import BoundingBox
from repro.geometry.vec import Vec2
from repro.perception.detection import SimulatedDetector
from repro.perception.fusion import RowFusionPolicy
from repro.perception.hungarian import hungarian_assignment
from repro.perception.mot import MultiObjectTracker
from repro.perception.pipeline import PerceptionSystem
from repro.perception.transforms import (
    NOMINAL_HEIGHT_M,
    ImageToWorldTransform,
    WorldObjectEstimate,
)
from repro.sensors.camera import CameraFrame, CameraObject, CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.actors import ActorKind, ActorSnapshot
from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventLog, SimulationEvent
from repro.sim.scenarios import DrivingScenario
from repro.sim.simulator import CameraAttacker, SimulationResult, Simulator
from repro.sim.world import GroundTruthSnapshot

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.ads.agent import AdsAgent

__all__ = ["BatchRunSpec", "BatchSimulator"]

_first = itemgetter(0)
#: Enum attribute and enum-keyed dict lookups are costly per object per step.
_VEHICLE = ActorKind.VEHICLE

# --------------------------------------------------------------------------- #
# Batched Kalman filter (constant matrices shared by every track)
# --------------------------------------------------------------------------- #
# These mirror BoundingBoxKalmanFilter exactly; _F_T/_H_T are kept as .T views
# so the BLAS paths match the scalar filter's ``A @ B.T`` expressions.

_F = np.eye(6)
_F[0, 4] = 1.0
_F[1, 5] = 1.0
_F_T = _F.T
_H = np.zeros((4, 6))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0
_H_T = _H.T
_Q = np.diag([1.0, 1.0, 0.5, 0.5, 2.0, 2.0])
_R = np.eye(4) * 10.0
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 100.0, 100.0])
_I6 = np.eye(6)


class _KalmanPool:
    """Structure-of-arrays storage for every live track's Kalman state.

    A track holds a *row* (its handle) in the pooled ``(cap, 6)`` state and
    ``(cap, 6, 6)`` covariance arrays; predict/update operate on arbitrary row
    subsets in one stacked ``np.matmul`` call each.
    """

    def __init__(self, capacity: int = 128):
        capacity = max(8, capacity)
        self.states = np.zeros((capacity, 6))
        self.covs = np.zeros((capacity, 6, 6))
        self._free = list(range(capacity - 1, -1, -1))

    def alloc(self, cx: float, cy: float, w: float, h: float) -> int:
        if not self._free:
            self._grow()
        row = self._free.pop()
        state = self.states[row]
        state[0] = cx
        state[1] = cy
        state[2] = w
        state[3] = h
        state[4] = 0.0
        state[5] = 0.0
        self.covs[row] = _P0
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
        states = self.states[idx]
        covs = self.covs[idx]
        new_states = np.matmul(_F, states[..., None])[..., 0]
        self.states[idx] = new_states
        self.covs[idx] = np.matmul(np.matmul(_F, covs), _F_T) + _Q
        return new_states

    def update(self, idx: np.ndarray, measurements: np.ndarray) -> None:
        """Stacked measurement update (Joseph form, symmetrized)."""
        states = self.states[idx]
        covs = self.covs[idx]
        innovation = measurements - states[:, :4]
        pht = np.matmul(covs, _H_T)
        innovation_cov = np.matmul(np.matmul(_H, covs), _H_T) + _R
        gain = np.linalg.solve(
            innovation_cov.transpose(0, 2, 1), pht.transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        states = states + np.matmul(gain, innovation[..., None])[..., 0]
        i_kh = _I6 - np.matmul(gain, _H)
        covs = np.matmul(np.matmul(i_kh, covs), i_kh.transpose(0, 2, 1)) + np.matmul(
            np.matmul(gain, _R), gain.transpose(0, 2, 1)
        )
        self.covs[idx] = 0.5 * (covs + covs.transpose(0, 2, 1))
        self.states[idx] = states

    def predict_tracks(self, cameras: Sequence["_CameraPerception"]) -> None:
        """One stacked predict over every track of ``cameras``; each track
        keeps its predicted box (size floored at 1 px) for association."""
        refs = [track for camera in cameras for track in camera.tracks.values()]
        if not refs:
            return
        rows = np.array([track.row for track in refs], dtype=np.intp)
        states = self.predict(rows).tolist()
        for track, state in zip(refs, states):
            track.pred_cx = state[0]
            track.pred_cy = state[1]
            w = state[2]
            h = state[3]
            track.pred_w = w if w > 1.0 else 1.0
            track.pred_h = h if h > 1.0 else 1.0

    def update_rows(self, rows: List[int], measurements: List[tuple]) -> None:
        if rows:
            self.update(np.array(rows, dtype=np.intp), np.array(measurements))

    def refresh_observed(self, cameras: Sequence["_CameraPerception"]) -> None:
        """Copy the filtered boxes of each camera's observed tracks out of the
        pool (one stacked gather), for the image-to-world transform."""
        refs = [track for camera in cameras for track in camera.observed]
        if not refs:
            return
        rows = np.array([track.row for track in refs], dtype=np.intp)
        states = self.states[rows].tolist()
        for track, state in zip(refs, states):
            track.cx = state[0]
            track.cy = state[1]
            w = state[2]
            h = state[3]
            track.w = w if w > 1.0 else 1.0
            track.h = h if h > 1.0 else 1.0


# --------------------------------------------------------------------------- #
# Plain-float ports of the world-side state
# --------------------------------------------------------------------------- #


class _FastRoute:
    """Plain-float port of :meth:`WaypointRoute.advance` (bit-identical)."""

    __slots__ = ("xs", "ys", "speeds", "holds", "n", "seg", "px", "py", "vx", "vy", "hold")

    def __init__(self, route):
        waypoints = route.waypoints
        self.xs = [w.position.x for w in waypoints]
        self.ys = [w.position.y for w in waypoints]
        self.speeds = [w.speed_mps for w in waypoints]
        self.holds = [w.hold_s for w in waypoints]
        self.n = len(waypoints)
        self.seg = route._segment_index
        self.px = route._position.x
        self.py = route._position.y
        self.vx = route._velocity.x
        self.vy = route._velocity.y
        self.hold = route._hold_remaining_s

    def advance(self, dt: float) -> None:
        remaining = dt
        while remaining > 1e-12:
            if self.hold > 0.0:
                waited = self.hold if self.hold < remaining else remaining
                self.hold -= waited
                remaining -= waited
                self.vx = 0.0
                self.vy = 0.0
                continue
            if self.seg >= self.n - 1:
                self.vx = 0.0
                self.vy = 0.0
                return
            target = self.seg + 1
            dx = self.xs[target] - self.px
            dy = self.ys[target] - self.py
            distance = math.hypot(dx, dy)
            speed = self.speeds[target]
            if speed <= 0.0 or distance <= 1e-9:
                self.px = self.xs[target]
                self.py = self.ys[target]
                self.seg = target
                self.hold = self.holds[target]
                self.vx = 0.0
                self.vy = 0.0
                continue
            time_to_target = distance / speed
            ux = dx / distance
            uy = dy / distance
            self.vx = ux * speed
            self.vy = uy * speed
            if time_to_target <= remaining:
                self.px = self.xs[target]
                self.py = self.ys[target]
                remaining -= time_to_target
                self.seg = target
                self.hold = self.holds[target]
            else:
                travel = speed * remaining
                self.px = self.px + ux * travel
                self.py = self.py + uy * travel
                remaining = 0.0
        if self.seg >= self.n - 1 and self.hold <= 0.0:
            self.vx = 0.0
            self.vy = 0.0


class _LaneActor:
    """Plain-float scripted-actor state driven by a :class:`_FastRoute`."""

    __slots__ = ("actor_id", "kind", "dims", "length", "width", "height", "half_w",
                 "route", "x", "y", "vx", "vy")

    def __init__(self, actor):
        self.actor_id = actor.actor_id
        self.kind = actor.kind
        self.dims = actor.dimensions
        self.length = actor.dimensions.length_m
        self.width = actor.dimensions.width_m
        self.height = actor.dimensions.height_m
        self.half_w = self.width / 2.0
        self.route = _FastRoute(actor.route)
        self.x = self.route.px
        self.y = self.route.py
        self.vx = self.route.vx
        self.vy = self.route.vy


class _Track:
    """Tracker bookkeeping for one pooled Kalman row."""

    __slots__ = ("track_id", "kind", "actor_id", "row", "born", "hits", "misses",
                 "pred_cx", "pred_cy", "pred_w", "pred_h", "cx", "cy", "w", "h")

    def __init__(self, track_id, kind, actor_id, row, born, cx, cy, w, h):
        self.track_id = track_id
        self.kind = kind
        self.actor_id = actor_id
        self.row = row
        #: Tracker frame the track was spawned on (``ObjectTrack.age_frames``
        #: is one more than the frames since).
        self.born = born
        self.hits = 1
        self.misses = 0
        self.pred_cx = cx
        self.pred_cy = cy
        self.pred_w = w if w > 1.0 else 1.0
        self.pred_h = h if h > 1.0 else 1.0
        self.cx = cx
        self.cy = cy
        self.w = self.pred_w
        self.h = self.pred_h


class _TrackView:
    """A replica track as the trajectory hijacker reads an ``ObjectTrack``:
    its current filtered box and its miss streak."""

    __slots__ = ("bbox", "consecutive_misses")

    def __init__(self, bbox: BoundingBox, consecutive_misses: int):
        self.bbox = bbox
        self.consecutive_misses = consecutive_misses


# --------------------------------------------------------------------------- #
# Camera perception: detector, tracker and image-to-world ports
# --------------------------------------------------------------------------- #


class _CameraPerception:
    """Plain-float ports of a :class:`PerceptionSystem`'s camera stages.

    Detection, association plus track lifecycle, and the image-to-world
    transform of one pipeline; its tracks keep their Kalman state in the
    simulator's shared :class:`_KalmanPool`, which predicts and updates them
    in stacked calls.  Every lane has one for its victim, and an attacked lane
    may have a second one for the attacker's camera-only replica.
    """

    # Slots keep the per-lane working set small on wide batches.
    __slots__ = ("pool", "det_rng", "vnoise", "pnoise", "min_bbox_h", "burst",
                 "min_iou", "cd_gate", "max_misses", "min_hits", "tracks",
                 "next_tid", "frames", "observed", "frame_dt", "tf_alpha",
                 "tf_om_alpha", "tf_focal", "tf_img_cx", "tf_min_d", "tf_hist",
                 "nominal_v", "nominal_p")

    def __init__(self, perception: PerceptionSystem, pool: _KalmanPool):
        self.pool = pool

        # --- detector (shares the owner's runtime generator; scalar draws) ---
        det_cfg = perception.detector.config
        self.det_rng = perception.detector._rng
        vn = det_cfg.vehicle_noise
        pn = det_cfg.pedestrian_noise
        self.vnoise = (vn.center_noise_mu_x, vn.center_noise_sigma_x,
                       vn.center_noise_mu_y, vn.center_noise_sigma_y,
                       vn.misdetection_start_probability, 1.0 / vn.burst_rate)
        self.pnoise = (pn.center_noise_mu_x, pn.center_noise_sigma_x,
                       pn.center_noise_mu_y, pn.center_noise_sigma_y,
                       pn.misdetection_start_probability, 1.0 / pn.burst_rate)
        self.min_bbox_h = det_cfg.min_bbox_height_px
        self.burst: Dict[int, int] = {}

        # --- tracker ---
        t_cfg = perception.tracker.config
        self.min_iou = t_cfg.min_iou_for_match
        self.cd_gate = t_cfg.center_distance_gate
        self.max_misses = t_cfg.max_consecutive_misses
        self.min_hits = t_cfg.min_hits_to_confirm
        self.tracks: Dict[int, _Track] = {}
        self.next_tid = 1
        self.frames = 0
        self.observed: List[_Track] = []

        # --- image-to-world transform ---
        transform = perception.transform
        proj = transform.projection
        self.frame_dt = transform.frame_dt_s
        self.tf_alpha = transform.velocity_smoothing
        self.tf_om_alpha = 1 - transform.velocity_smoothing
        self.tf_focal = proj.intrinsics.focal_px
        self.tf_img_cx = proj.intrinsics.image_cx
        self.tf_min_d = proj.MIN_DISTANCE_M
        self.tf_hist: Dict[int, List[float]] = {}
        self.nominal_v = NOMINAL_HEIGHT_M[ActorKind.VEHICLE]
        self.nominal_p = NOMINAL_HEIGHT_M[ActorKind.PEDESTRIAN]

    def release(self) -> None:
        """Return every track's Kalman row to the pool."""
        for track in self.tracks.values():
            self.pool.free(track.row)
        self.tracks.clear()
        self.observed = []

    def detect(self, camera_objects: List[tuple]) -> List[tuple]:
        """Detector port over rendered rows (see ``_Lane._render_objects``):
        (cx, cy, w, h, kind, aid) detections, scalar RNG call order."""
        rng = self.det_rng
        burst = self.burst
        min_bbox_h = self.min_bbox_h
        detections = []
        visible = set()
        for _distance, _lateral, actor_id, kind, cx, cy, w, h, _oh, _ow in camera_objects:
            visible.add(actor_id)
            noise = self.vnoise if kind is _VEHICLE else self.pnoise
            if h < min_bbox_h:
                continue
            remaining = burst.get(actor_id, 0)
            if remaining > 0:
                burst[actor_id] = remaining - 1
                continue
            if rng.random() < noise[4]:
                burst_length = 1 + int(rng.exponential(noise[5]))
                burst[actor_id] = burst_length - 1 if burst_length > 1 else 0
                continue
            dx = rng.normal(noise[0], noise[1]) * w
            dy = rng.normal(noise[2], noise[3]) * h
            size_jitter = rng.normal(1.0, 0.03)
            if size_jitter < 0.85:
                size_jitter = 0.85
            elif size_jitter > 1.15:
                size_jitter = 1.15
            size_jitter = float(size_jitter)
            # Confidence is drawn (to keep the stream aligned) but unused.
            rng.normal(0.85, 0.08)
            detections.append((float(cx + dx), float(cy + dy),
                               float(w * size_jitter), float(h * size_jitter),
                               kind, actor_id))
        if burst:
            for actor_id in [aid for aid in burst if aid not in visible]:
                del burst[actor_id]
        return detections

    def _pair_cost(self, track: "_Track", geom: tuple) -> float:
        """Association cost for one (track, detection) pair — scalar-exact."""
        dx0, dx1, dy0, dy1, d_area, dcx, dcy, dw = geom
        pcx = track.pred_cx
        pcy = track.pred_cy
        pw = track.pred_w
        ph = track.pred_h
        px0 = pcx - pw / 2.0
        px1 = pcx + pw / 2.0
        py0 = pcy - ph / 2.0
        py1 = pcy + ph / 2.0
        overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
        overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
        if overlap_w <= 0.0 or overlap_h <= 0.0:
            inter = 0.0
        else:
            inter = overlap_w * overlap_h
        union = pw * ph + d_area - inter
        overlap = 0.0 if union <= 0.0 else inter / union
        mean_width = (pw + dw) / 2.0
        if mean_width < 1.0:
            mean_width = 1.0
        normalized = np.hypot(pcx - dcx, pcy - dcy) / mean_width
        return (1.0 - overlap) + 0.05 * min(normalized, 10.0)

    def track_step(self, detections: List[tuple],
                   upd_rows: List[int], upd_z: List[tuple]) -> None:
        """MOT association + lifecycle; Kalman updates are deferred to the pool."""
        self.frames += 1
        tracks = self.tracks
        track_list = list(tracks.values())
        n_tracks = len(track_list)
        n_dets = len(detections)
        matched_tracks: List[_Track] = []
        matched_det_idx: List[int] = []
        if n_tracks and n_dets:
            det_geom = []
            for det in detections:
                dcx, dcy, dw, dh = det[0], det[1], det[2], det[3]
                det_geom.append((dcx - dw / 2.0, dcx + dw / 2.0,
                                 dcy - dh / 2.0, dcy + dh / 2.0,
                                 dw * dh, dcx, dcy, dw))
            # The Hungarian solve is only needed when the matrix is at least
            # 2x2.  A 1x1 matrix always yields the pair (0, 0), and a single
            # row (or column) reduces to a first-wins argmin — exactly the
            # tie-break the strict ``<`` in the solver's delta update uses —
            # so the common 1-track/1-detection frame skips the cost matrix
            # entirely.  Acceptability is then checked lazily per returned
            # pair (the boolean is identical; only unselected pairs skip it).
            if n_tracks == 1 and n_dets == 1:
                pairs = ((0, 0),)
            elif n_tracks == 1:
                best_c = 0
                best = self._pair_cost(track_list[0], det_geom[0])
                for c in range(1, n_dets):
                    value = self._pair_cost(track_list[0], det_geom[c])
                    if value < best:
                        best = value
                        best_c = c
                pairs = ((0, best_c),)
            elif n_dets == 1:
                best_r = 0
                best = self._pair_cost(track_list[0], det_geom[0])
                for r in range(1, n_tracks):
                    value = self._pair_cost(track_list[r], det_geom[0])
                    if value < best:
                        best = value
                        best_r = r
                pairs = ((best_r, 0),)
            else:
                cost = np.empty((n_tracks, n_dets))
                for r, track in enumerate(track_list):
                    for c in range(n_dets):
                        cost[r, c] = self._pair_cost(track, det_geom[c])
                pairs = hungarian_assignment(cost)
            min_iou = self.min_iou
            cd_gate = self.cd_gate
            for r, c in pairs:
                track = track_list[r]
                pw = track.pred_w
                pw_floor = pw if pw > 1.0 else 1.0
                dx0, dx1, dy0, dy1, d_area, dcx, dcy, dw = det_geom[c]
                width_ratio = dw / pw_floor
                if not 0.4 <= width_ratio <= 2.5:
                    continue
                pcx = track.pred_cx
                pcy = track.pred_cy
                ph = track.pred_h
                px0 = pcx - pw / 2.0
                px1 = pcx + pw / 2.0
                py0 = pcy - ph / 2.0
                py1 = pcy + ph / 2.0
                overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
                overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
                if overlap_w <= 0.0 or overlap_h <= 0.0:
                    inter = 0.0
                else:
                    inter = overlap_w * overlap_h
                union = pw * ph + d_area - inter
                overlap = 0.0 if union <= 0.0 else inter / union
                if overlap < min_iou:
                    mean_width = (pw + dw) / 2.0
                    if mean_width < 1.0:
                        mean_width = 1.0
                    if np.hypot(pcx - dcx, pcy - dcy) / mean_width > cd_gate:
                        continue
                matched_tracks.append(track)
                matched_det_idx.append(c)

        # Every existing track misses this frame unless it is matched below.
        for track in track_list:
            track.misses += 1
        for track, c in zip(matched_tracks, matched_det_idx):
            det = detections[c]
            track.kind = det[4]
            track.actor_id = det[5]
            track.hits += 1
            track.misses = 0
            upd_rows.append(track.row)
            upd_z.append((det[0], det[1], det[2], det[3]))

        matched_cols = set(matched_det_idx)
        for c, det in enumerate(detections):
            if c in matched_cols:
                continue
            tid = self.next_tid
            self.next_tid += 1
            row = self.pool.alloc(det[0], det[1], det[2], det[3])
            tracks[tid] = _Track(tid, det[4], det[5], row, self.frames,
                                 det[0], det[1], det[2], det[3])

        max_misses = self.max_misses
        min_hits = self.min_hits
        stale = []
        observed = []
        for tid, track in tracks.items():
            if track.misses > max_misses:
                stale.append(tid)
            elif track.hits >= min_hits and track.misses <= 1:
                observed.append(track)
        for tid in stale:
            self.pool.free(tracks.pop(tid).row)
        self.observed = observed

    def transform(self) -> List[tuple]:
        """Image-to-world estimates of the observed tracks as distance-sorted
        estimate rows (:mod:`repro.perception.fusion`): (distance, lateral,
        rel_velocity, lateral_velocity, track_id, actor_id, kind,
        rel_acceleration, age_frames)."""
        frames = self.frames + 1
        history = self.tf_hist
        frame_dt = self.frame_dt
        alpha = self.tf_alpha
        om_alpha = self.tf_om_alpha
        estimates = []
        for track in self.observed:
            height_px = track.h
            nominal = self.nominal_v if track.kind is _VEHICLE else self.nominal_p
            if height_px <= 0:
                continue
            distance = self.tf_focal * nominal / height_px
            d = distance if distance > self.tf_min_d else self.tf_min_d
            lateral = (self.tf_img_cx - track.cx) * d / self.tf_focal
            record = history.get(track.track_id)
            if record is None:
                history[track.track_id] = [distance, lateral, 0.0, 0.0, 0.0]
                velocity = 0.0
                lateral_velocity = 0.0
                acceleration = 0.0
            else:
                raw_v = (distance - record[0]) / frame_dt
                raw_lv = (lateral - record[1]) / frame_dt
                velocity = om_alpha * record[2] + alpha * raw_v
                lateral_velocity = om_alpha * record[3] + alpha * raw_lv
                raw_a = (velocity - record[2]) / frame_dt
                acceleration = om_alpha * record[4] + alpha * raw_a
                record[0] = distance
                record[1] = lateral
                record[2] = velocity
                record[3] = lateral_velocity
                record[4] = acceleration
            estimates.append((distance, lateral, velocity, lateral_velocity,
                              track.track_id, track.actor_id, track.kind,
                              acceleration, frames - track.born))
        # Every estimate has a history entry, so only a larger history can
        # hold tracks that are no longer observed.
        if len(history) > len(estimates):
            live = {track.track_id for track in self.observed}
            for tid in [tid for tid in history if tid not in live]:
                del history[tid]
        estimates.sort(key=_first)
        return estimates

    def world_estimates(self) -> List[WorldObjectEstimate]:
        """:meth:`transform` as the scalar pipeline's ``world_estimates``."""
        return [
            WorldObjectEstimate(
                track_id=track_id,
                actor_id=actor_id,
                kind=kind,
                distance_m=distance,
                lateral_m=lateral,
                relative_longitudinal_velocity_mps=velocity,
                relative_longitudinal_acceleration_mps2=acceleration,
                lateral_velocity_mps=lateral_velocity,
                age_frames=age_frames,
            )
            for (distance, lateral, velocity, lateral_velocity, track_id,
                 actor_id, kind, acceleration, age_frames) in self.transform()
        ]

    def track_for_actor(self, actor_id: int) -> Optional[_TrackView]:
        """``MultiObjectTracker.track_for_actor`` over the pooled state: the
        box is whatever the pool holds for the track right now."""
        for track in self.tracks.values():
            if track.actor_id == actor_id:
                cx, cy, w, h = self.pool.states[track.row, :4].tolist()
                box = BoundingBox(cx=cx, cy=cy, width=w if w > 1.0 else 1.0,
                                  height=h if h > 1.0 else 1.0)
                return _TrackView(box, track.misses)
        return None


def _batched_replica(attacker: Optional[CameraAttacker]) -> Optional[PerceptionSystem]:
    """The attacker's replica when the batch engine can run it in lockstep.

    That needs the stock frame hook of :class:`CameraMitmAttackerBase` and a
    fresh replica built from the stock stages; anything else stays a black
    box.
    """
    if not isinstance(attacker, CameraMitmAttackerBase):
        return None
    if type(attacker).process_frame is not CameraMitmAttackerBase.process_frame:
        return None
    replica = attacker.perception
    stock = (type(replica) is PerceptionSystem
             and type(replica.detector) is SimulatedDetector
             and type(replica.tracker) is MultiObjectTracker
             and type(replica.transform) is ImageToWorldTransform)
    # An attacker that has already seen frames carries replica state the port
    # does not start from.
    return replica if stock and attacker._frame_count == 0 else None


def _frame_objects(frame: CameraFrame) -> List[tuple]:
    """A camera frame as rendered rows, the detector port's input."""
    return [(obj.distance_m, obj.lateral_m, obj.actor_id, obj.kind, obj.bbox.cx,
             obj.bbox.cy, obj.bbox.width, obj.bbox.height, obj.object_height_m,
             obj.object_width_m)
            for obj in frame.objects]


@dataclass
class BatchRunSpec:
    """One lane of a batch: a scenario, its victim agent, and its seeds."""

    scenario: DrivingScenario
    ads: "AdsAgent"
    attacker: Optional[CameraAttacker] = None
    rng: Optional[np.random.Generator] = None


def _shares_row_core(spec: BatchRunSpec) -> bool:
    """Whether the lane's fusion ``step`` is the shared adapter over the
    row-level ``fuse`` core that a ported lane calls directly."""
    step = spec.ads.perception.fusion.step
    return getattr(step, "__func__", None) is RowFusionPolicy.step


# --------------------------------------------------------------------------- #
# One lane: the full per-run state and the scalar-equivalent step logic
# --------------------------------------------------------------------------- #


class _Lane:
    """All state of one simulated run, held as plain floats.

    The constructor replicates ``Simulator.__init__``'s RNG draws and extracts
    every parameter the ported camera and world stages need from the supplied
    agent; fusion, planning and actuation run on the agent's own objects.  The
    per-step work is split into ``pre_step`` (sensors → attack → detection →
    association; feeds the shared Kalman pool) and ``post_step`` (transform →
    fusion → planning → actuation → world advance), with the batched Kalman
    predict/update running between them in :meth:`BatchSimulator.run`.  A lane
    with a batched replica also runs ``observe`` before the predict and
    ``replica_step`` before the victim's ``pre_step``.
    """

    def __init__(self, spec: BatchRunSpec, config: SimulationConfig, pool: _KalmanPool):
        scenario = spec.scenario
        ads = spec.ads
        rng = spec.rng if spec.rng is not None else np.random.default_rng()
        sensor_seeds = rng.integers(0, 2**31 - 1, size=2)

        perception = ads.perception
        # The camera-stage ports start empty; a victim whose detector, tracker
        # or transform carries state would silently diverge from the scalar run.
        if (perception.detector._burst_remaining or perception.tracker.tracks
                or perception.transform._history):
            raise ValueError(
                "BatchSimulator needs a fresh victim agent: its camera perception "
                "already holds state from an earlier run (call ads.reset() first)"
            )

        self.dt = config.dt
        self.max_steps = min(config.max_steps, int(round(scenario.duration_s / self.dt)))
        self.lidar_due = [config.lidar_due(step) for step in range(self.max_steps)]

        # --- camera perception: the victim's, and the attacker's replica ---
        self.camera = _CameraPerception(perception, pool)
        self.frame_dt = perception.config.frame_dt_s
        self.attacker = spec.attacker
        replica = _batched_replica(spec.attacker)
        self.replica = _CameraPerception(replica, pool) if replica is not None else None
        #: A batched attacker whose episode is over: no longer called.
        self.attacker_done = False
        self.frame: Optional[CameraFrame] = None
        self.clean_objects: List[tuple] = []
        #: The frame the replica observed this step (set by ``observe``).
        self.observed_frame: Optional[CameraFrame] = None

        # --- the victim's own fusion, planner, PID trim and smoother ---
        self.ads = ads
        self.fusion = perception.fusion
        self.planner = ads.planner

        # --- road ---
        ego_lane = ads.road.ego_lane
        self.lane_lo = ego_lane.y_min
        self.lane_hi = ego_lane.y_max

        # --- world state ---
        world = scenario.world
        ego = world.ego
        self.ego_id = ego.actor_id
        self.ego_dims = ego.dimensions
        self.ego_len = ego.dimensions.length_m
        self.ego_w = ego.dimensions.width_m
        self.ego_half_len = self.ego_len / 2.0
        self.ego_max_accel = ego.max_accel_mps2
        self.ego_max_decel = ego.max_decel_mps2
        self.ego_x = ego.position.x
        self.ego_y = ego.position.y
        self.ego_speed = ego.speed_mps
        self.actors = [_LaneActor(actor) for actor in world.actors]
        self.time_s = world.time_s
        self.step = world.step_index
        self.loop_step = 0

        # --- camera constants (stateless; mirrors Simulator's CameraSensor()) ---
        camera = CameraSensor()
        intr = camera.projection.intrinsics
        self.cam_max_range = camera.max_range_m
        self.cam_min_d = camera.projection.MIN_DISTANCE_M
        self.focal = intr.focal_px
        self.img_cx = intr.image_cx
        self.img_cy = intr.image_cy
        self.img_w = intr.image_width
        self.cam_h = intr.camera_height_m

        # --- buffered sensor noise (bulk draws; see module docstring) ---
        lidar = LidarSensor(rng=np.random.default_rng(int(sensor_seeds[0])))
        gps = GpsImuSensor(rng=np.random.default_rng(int(sensor_seeds[1])))
        self.lidar_v_range = lidar.vehicle_range_m
        self.lidar_p_range = lidar.pedestrian_range_m
        n_scans = sum(1 for due in self.lidar_due if due)
        n_draws = 2 * len(self.actors) * n_scans
        self.lidar_noise = array("d", lidar._rng.normal(
            0.0, lidar.position_noise_m, size=n_draws
        ).tobytes())
        self.lidar_cursor = 0
        # Only the speed noise (every third GPS draw, after x and y) is read.
        if gps.position_noise_m == gps.speed_noise_mps:
            self.gps_noise = array("d", gps._rng.normal(
                0.0, gps.speed_noise_mps, size=3 * self.max_steps
            )[2::3].tobytes())
        else:  # pragma: no cover - non-default sensor config
            sigmas = (gps.position_noise_m, gps.position_noise_m, gps.speed_noise_mps)
            self.gps_noise = array("d", [
                float(gps._rng.normal(0.0, sigmas[i % 3]))
                for i in range(3 * self.max_steps)
            ][2::3])

        # --- run bookkeeping ---
        sim_safety = SafetyModel(comfortable_decel_mps2=config.comfortable_decel_mps2)
        self.sim_reaction = sim_safety.reaction_time_s
        self.sim_comfort = sim_safety.comfortable_decel_mps2
        self.scenario_id = scenario.scenario_id
        self.scenario_target_id = scenario.target_actor_id
        self.events = EventLog()
        self.attack_was_active = False
        self.emergency_was_active = False
        self.halted = False
        self.done = False
        self.last_lidar: Optional[List[tuple]] = None
        self.gps_speed = 0.0

        # Mirror the scalar pre-loop collision check: actors spawned already
        # overlapping halt at step 0 instead of running the full duration.
        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, float("inf"))
        elif self.max_steps == 0:
            self._finish()

    # ------------------------------------------------------------------ #
    # Sensors (ports of CameraSensor.capture / LidarSensor.scan / GpsImu)
    # ------------------------------------------------------------------ #

    def _render_objects(self) -> List[tuple]:
        """Camera render: (distance, lateral, aid, kind, cx, cy, w, h, oh, ow)."""
        camera_x = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        min_d = self.cam_min_d
        focal = self.focal
        objects = []
        for actor in self.actors:
            distance = actor.x - camera_x
            if distance <= min_d or distance > self.cam_max_range:
                continue
            lateral = actor.y - ego_y
            cx_fov = self.img_cx - lateral * focal / distance
            if not 0.0 <= cx_fov <= self.img_w:
                continue
            d = distance if distance > min_d else min_d
            scale = focal / d
            width_px = actor.width * scale
            height_px = actor.height * scale
            cx = self.img_cx - lateral * scale
            ground_y = self.img_cy + self.cam_h * scale
            cy = ground_y - (actor.height / 2.0) * scale
            objects.append((distance, lateral, actor.actor_id, actor.kind,
                            cx, cy, width_px, height_px, actor.height, actor.width))
        objects.sort(key=_first)
        return objects

    def _scan(self) -> None:
        """LiDAR scan into ``last_lidar``: (distance, lateral, aid, kind, vx)."""
        ego_front = self.ego_x + self.ego_half_len
        ego_y = self.ego_y
        noise = self.lidar_noise
        cursor = self.lidar_cursor
        detections = []
        for actor in self.actors:
            distance = actor.x - ego_front
            max_range = (
                self.lidar_v_range if actor.kind is _VEHICLE else self.lidar_p_range
            )
            if distance <= 0.0 or distance > max_range:
                continue
            noise_x = noise[cursor]
            noise_y = noise[cursor + 1]
            cursor += 2
            detections.append((distance + noise_x, actor.y - ego_y + noise_y,
                               actor.actor_id, actor.kind, actor.vx))
        self.lidar_cursor = cursor
        detections.sort(key=_first)
        self.last_lidar = detections

    # ------------------------------------------------------------------ #
    # pre_step: sensing -> attack -> detection -> association
    # ------------------------------------------------------------------ #

    def _sense(self) -> List[tuple]:
        """Camera, LiDAR (when due) and GPS; returns the rendered objects."""
        rendered = self._render_objects()
        if self.lidar_due[self.loop_step]:
            self._scan()
        gps = self.ego_speed + self.gps_noise[self.loop_step]
        self.gps_speed = gps if gps > 0.0 else 0.0
        return rendered

    def _camera_frame(self, rendered: List[tuple]) -> CameraFrame:
        """The rendered objects as the scalar camera's :class:`CameraFrame`."""
        return CameraFrame(
            time_s=self.time_s,
            frame_index=self.step,
            objects=tuple(
                CameraObject(
                    actor_id=obj[2],
                    kind=obj[3],
                    bbox=BoundingBox(cx=obj[4], cy=obj[5], width=obj[6], height=obj[7]),
                    distance_m=obj[0],
                    lateral_m=obj[1],
                    object_height_m=obj[8],
                    object_width_m=obj[9],
                )
                for obj in rendered
            ),
        )

    def observe(self) -> None:
        """Batched replica, before the predict: sense, and let the attacker
        pick the frame its replica observes (a running attack perturbs it
        with the target track as the previous frame left it)."""
        rendered = self._sense()
        self.clean_objects = rendered
        self.frame = self._camera_frame(rendered)
        self.observed_frame = self.attacker.frame_for_replica(self.frame, self.replica)
        if self.attacker.episode_over:
            self._stop_replica()

    def replica_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Batched replica: detection and association on the observed frame."""
        observed = self.observed_frame
        objects = (self.clean_objects if observed is self.frame
                   else _frame_objects(observed))
        replica = self.replica
        replica.track_step(replica.detect(objects), upd_rows, upd_z)

    def _stop_replica(self) -> None:
        self.replica.release()
        self.replica = None
        self.attacker_done = True

    def pre_step(self, upd_rows: List[int], upd_z: List[tuple]) -> None:
        """Sensing (unless ``observe`` did it) -> attack -> victim detection
        -> association."""
        observed = self.observed_frame
        if observed is not None:
            # Batched replica: deliver, given its estimates from this frame.
            self.observed_frame = None
            delivered = observed
            if self.replica is not None:
                attacker = self.attacker
                estimates = () if attacker.attack_active else self.replica.world_estimates()
                delivered = attacker.frame_to_deliver(
                    observed, estimates, self.gps_speed, self.replica
                )
                if attacker.episode_over:
                    self._stop_replica()
            self._log_attack()
            camera_objects = (self.clean_objects if delivered is self.frame
                              else _frame_objects(delivered))
        else:
            rendered = self._sense()
            if self.attacker is None or self.attacker_done:
                camera_objects = rendered
            else:
                delivered = self.attacker.process_frame(
                    self._camera_frame(rendered), ego_speed_mps=self.gps_speed, dt=self.dt
                )
                self._log_attack()
                camera_objects = _frame_objects(delivered)
        self.camera.track_step(self.camera.detect(camera_objects), upd_rows, upd_z)

    def _log_attack(self) -> None:
        active = bool(self.attacker.attack_active)
        if active and not self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_STARTED, time_s=self.time_s, step_index=self.step
            ))
        elif not active and self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
            ))
        self.attack_was_active = active

    # ------------------------------------------------------------------ #
    # post_step: transform -> fusion -> planning -> actuation -> world
    # ------------------------------------------------------------------ #

    def post_step(self) -> None:
        ego_speed = self.gps_speed
        obstacles = self.fusion.fuse(
            self.camera.transform(), self.last_lidar, ego_speed, self.frame_dt
        )
        desired, emergency, perceived, _lead, target_speed = self.planner.plan_rows(
            obstacles, ego_speed
        )
        acceleration = self.ads.actuate(desired, emergency, target_speed, ego_speed, self.dt)

        # --- events + traces (pre-step time/step, like the scalar loop) ---
        if emergency and not self.emergency_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.EMERGENCY_BRAKE,
                time_s=self.time_s,
                step_index=self.step,
                details={"perceived_delta_m": perceived},
            ))
        self.emergency_was_active = emergency
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )

        # --- world advance (EgoVehicle.apply_control + route advance) ---
        dt = self.dt
        accel = acceleration
        neg_decel = -self.ego_max_decel
        if neg_decel > accel:
            accel = neg_decel
        if self.ego_max_accel < accel:
            accel = self.ego_max_accel
        new_speed = self.ego_speed + accel * dt
        if not new_speed > 0.0:
            new_speed = 0.0
        average = (self.ego_speed + new_speed) / 2.0
        self.ego_x = self.ego_x + average * dt
        self.ego_speed = new_speed
        for actor in self.actors:
            route = actor.route
            route.advance(dt)
            actor.x = route.px
            actor.y = route.py
            actor.vx = route.vx
            actor.vy = route.vy
        self.time_s += dt
        self.step += 1
        self.loop_step += 1

        hit = self._check_collision()
        if hit is not None:
            self._halt(hit, perceived)
        elif self.loop_step >= self.max_steps:
            self._finish()

    # ------------------------------------------------------------------ #
    # Ground truth, collision, halt, result
    # ------------------------------------------------------------------ #

    def _current_target_id(self) -> Optional[int]:
        if self.attacker is not None and self.attacker.target_actor_id is not None:
            return self.attacker.target_actor_id
        return self.scenario_target_id

    def _true_delta(self) -> float:
        """Port of ``ground_truth_delta`` over the lane's plain-float state."""
        target_id = self._current_target_id()
        candidate = None
        if target_id is not None:
            for actor in self.actors:
                if actor.actor_id == target_id:
                    if actor.x > self.ego_x:
                        margin = 0.3 + actor.half_w
                        if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                            candidate = actor
                    break
        if candidate is None:
            ego_front = self.ego_x + self.ego_half_len
            best_x = 0.0
            for actor in self.actors:
                if actor.x > ego_front:
                    margin = 0.3 + actor.half_w
                    if self.lane_lo - margin <= actor.y <= self.lane_hi + margin:
                        if candidate is None or actor.x < best_x:
                            candidate = actor
                            best_x = actor.x
        if candidate is None:
            return float("inf")
        gap = abs(candidate.x - self.ego_x) - (self.ego_len + candidate.length) / 2.0
        sp = self.ego_speed
        if not sp > 0.0:
            sp = 0.0
        return gap - (sp * self.sim_reaction + sp * sp / (2.0 * self.sim_comfort))

    def _check_collision(self) -> Optional[int]:
        ego_x = self.ego_x
        ego_y = self.ego_y
        for actor in self.actors:
            if abs(actor.x - ego_x) - (self.ego_len + actor.length) / 2.0 <= 0.0:
                if abs(actor.y - ego_y) <= (self.ego_w + actor.width) / 2.0:
                    return actor.actor_id
        return None

    def _halt(self, collision_actor: int, perceived: float) -> None:
        """Collision halt: impact trace entry + COLLISION/SIMULATION_HALTED."""
        self.events.record_step(
            true_delta=self._true_delta(),
            perceived_delta=perceived,
            ego_speed=self.ego_speed,
        )
        self.events.record(SimulationEvent(
            kind=EventKind.COLLISION,
            time_s=self.time_s,
            step_index=self.step,
            details={"actor_id": float(collision_actor)},
        ))
        self.events.record(SimulationEvent(
            kind=EventKind.SIMULATION_HALTED, time_s=self.time_s, step_index=self.step
        ))
        self.halted = True
        self._finish()

    def _finish(self) -> None:
        if self.attack_was_active:
            self.events.record(SimulationEvent(
                kind=EventKind.ATTACK_ENDED, time_s=self.time_s, step_index=self.step
            ))
        self.camera.release()
        if self.replica is not None:
            self._stop_replica()
        self.done = True

    def result(self) -> SimulationResult:
        ego = ActorSnapshot(
            actor_id=self.ego_id,
            kind=ActorKind.VEHICLE,
            position=Vec2(self.ego_x, self.ego_y),
            velocity=Vec2(self.ego_speed, 0.0),
            dimensions=self.ego_dims,
            is_ego=True,
        )
        actors = tuple(
            ActorSnapshot(
                actor_id=actor.actor_id,
                kind=actor.kind,
                position=Vec2(actor.x, actor.y),
                velocity=Vec2(actor.vx, actor.vy),
                dimensions=actor.dims,
            )
            for actor in self.actors
        )
        snapshot = GroundTruthSnapshot(
            time_s=self.time_s, step_index=self.step, ego=ego, actors=actors
        )
        return SimulationResult(
            scenario_id=self.scenario_id,
            events=self.events,
            steps_executed=self.step,
            duration_s=self.time_s,
            halted_on_collision=self.halted,
            final_snapshot=snapshot,
            target_actor_id=self._current_target_id(),
        )


# --------------------------------------------------------------------------- #
# The lockstep driver
# --------------------------------------------------------------------------- #


class BatchSimulator:
    """Advances N independently-seeded runs in lockstep within one process.

    Each step runs these phases: (0) lanes with a batched replica sense, and
    their attackers pick the frame the replica observes; (A) one stacked
    Kalman predict over every live victim and replica track of every active
    lane; (R) the replicas' detection and association, one stacked update of
    their tracks, and a stacked gather of the boxes a launch decision reads;
    (B) per-lane sensing, attack, detection, and association (collecting
    matched measurements); (C) one stacked Kalman update plus a stacked gather
    of the observed track states; (D) per-lane world-estimation, fusion,
    planning, actuation, and world advance.  Lanes that halt (collision) or
    exhaust their duration drop out of the active set; the loop ends when no
    lane is active.  Reference-engine lanes (see the module docstring) run on
    their own :class:`Simulator` after the loop.
    """

    def __init__(self, specs: Sequence[BatchRunSpec],
                 config: SimulationConfig | None = None):
        if not specs:
            raise ValueError("BatchSimulator needs at least one run spec")
        self.config = config or SimulationConfig()
        self._pool = _KalmanPool()
        # Both kinds of lane draw their sensor seeds on construction, so
        # building them in spec order keeps every generator's draw order.
        self._lanes: List[_Lane | Simulator] = [
            _Lane(spec, self.config, self._pool) if _shares_row_core(spec)
            else Simulator(spec.scenario, spec.ads, config=self.config,
                           attacker=spec.attacker, rng=spec.rng)
            for spec in specs
        ]

    def run(self) -> List[SimulationResult]:
        """Execute all lanes to completion; results are in spec order."""
        pool = self._pool
        active = [lane for lane in self._lanes
                  if isinstance(lane, _Lane) and not lane.done]
        split = [lane for lane in active if lane.replica is not None]
        while active:
            # Phase 0: the attacker picks the frame its replica observes.
            for lane in split:
                lane.observe()
            split = [lane for lane in split if lane.replica is not None]

            # Phase A: stacked predict for every live track.
            victims = [lane.camera for lane in active]
            pool.predict_tracks(victims + [lane.replica for lane in split])

            # Phase R: the replicas' detection, association and update; a
            # launch decision in phase B reads this frame's updated tracks.
            if split:
                rep_rows: List[int] = []
                rep_z: List[tuple] = []
                for lane in split:
                    lane.replica_step(rep_rows, rep_z)
                pool.update_rows(rep_rows, rep_z)
                pool.refresh_observed([lane.replica for lane in split
                                       if not lane.attacker.attack_active])

            # Phase B: per-lane sensing/attack/detection/association.
            upd_rows: List[int] = []
            upd_z: List[tuple] = []
            for lane in active:
                lane.pre_step(upd_rows, upd_z)

            # Phase C: stacked update, then refresh the observed boxes.
            pool.update_rows(upd_rows, upd_z)
            pool.refresh_observed(victims)

            # Phase D: per-lane estimation/fusion/planning/actuation/world.
            for lane in active:
                lane.post_step()
            active = [lane for lane in active if not lane.done]
            split = [lane for lane in split if lane.replica is not None]
        return [lane.result() if isinstance(lane, _Lane) else lane.run()
                for lane in self._lanes]
