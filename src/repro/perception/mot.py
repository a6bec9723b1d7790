"""Multi-object tracking by detection (paper Definition 2 and Fig. 1).

Every frame the tracker:

1. predicts each existing track one step forward with its Kalman filter,
2. associates detections to predicted boxes with the Hungarian algorithm on an
   IoU cost (a pair is only accepted when its IoU clears a threshold — this is
   the association constraint λ that the trajectory hijacker must respect),
3. updates matched tracks, marks unmatched tracks as missed, and spawns new
   tracks for unmatched detections,
4. retires tracks that have been missed for too many consecutive frames.

Steps 2-4 are one row-level core, :meth:`MultiObjectTracker.track_rows`, over
detection rows; it queues the matched tracks' Kalman updates instead of
applying them, so the batch engine can predict and update the tracks of many
trackers sharing one :class:`~repro.perception.kalman.KalmanPool` in one
stacked call each.  :meth:`MultiObjectTracker.step` runs all four steps for
one tracker, on the detector's rows: the tracker's unit-test API, which no
simulation lane calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Dict, List

import numpy as np

from repro.perception.hungarian import hungarian_assignment
from repro.perception.kalman import KalmanPool
from repro.perception.tracker import ObjectTrack

__all__ = ["TrackerConfig", "MultiObjectTracker"]


@dataclass(frozen=True)
class TrackerConfig:
    """Association and lifecycle parameters of the multi-object tracker."""

    #: Minimum IoU between a detection and a predicted track box for the
    #: Hungarian match to be accepted.
    min_iou_for_match: float = 0.2
    #: A match is also accepted when the centre distance between the detection
    #: and the predicted box is below this many mean box widths (small,
    #: fast-moving boxes such as distant pedestrians can lose IoU overlap for a
    #: frame while clearly belonging to the same track).
    center_distance_gate: float = 2.0
    #: Number of consecutive missed frames after which a track is dropped.
    max_consecutive_misses: int = 15
    #: Number of associated detections before a track is considered confirmed.
    min_hits_to_confirm: int = 2

    def __post_init__(self) -> None:
        # A NaN or infinite gate accepts every pair, an infinite miss limit
        # never retires a track, and a NaN hit count never confirms one.
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not 0.0 <= self.min_iou_for_match <= 1.0:
            raise ValueError("min_iou_for_match must be in [0, 1]")
        if self.center_distance_gate <= 0:
            raise ValueError("center_distance_gate must be positive")
        if self.max_consecutive_misses < 1:
            raise ValueError("max_consecutive_misses must be at least 1")
        if self.min_hits_to_confirm < 1:
            raise ValueError("min_hits_to_confirm must be at least 1")


def _overlap(track: ObjectTrack, geom: tuple) -> float:
    """IoU of a track's predicted box and a detection, whose ``geom`` is
    (x0, x1, y0, y1, area, cx, cy, w)."""
    pw = track.pred_w
    ph = track.pred_h
    px0 = track.pred_cx - pw / 2.0
    px1 = track.pred_cx + pw / 2.0
    py0 = track.pred_cy - ph / 2.0
    py1 = track.pred_cy + ph / 2.0
    dx0, dx1, dy0, dy1 = geom[0], geom[1], geom[2], geom[3]
    overlap_w = (px1 if px1 < dx1 else dx1) - (px0 if px0 > dx0 else dx0)
    overlap_h = (py1 if py1 < dy1 else dy1) - (py0 if py0 > dy0 else dy0)
    if overlap_w <= 0.0 or overlap_h <= 0.0:
        inter = 0.0
    else:
        inter = overlap_w * overlap_h
    union = pw * ph + geom[4] - inter
    return 0.0 if union <= 0.0 else inter / union


def _distances(pairs: List[tuple]) -> List[float]:
    """Centre distance of each ``(track, geom)`` pair's predicted box and
    detection, in mean box widths (a mean width below 1 px counts as 1).

    One vectorised ``np.hypot`` over the pairs: it equals the scalar call on
    each pair, where ``math.hypot`` rounds differently on some inputs.
    """
    dx = []
    dy = []
    widths = []
    for track, geom in pairs:
        dx.append(track.pred_cx - geom[5])
        dy.append(track.pred_cy - geom[6])
        mean_width = (track.pred_w + geom[7]) / 2.0
        widths.append(1.0 if mean_width < 1.0 else mean_width)
    return [d / w for d, w in zip(np.hypot(dx, dy).tolist(), widths)]


class MultiObjectTracker:
    """Tracking-by-detection over image-plane bounding boxes.

    The tracks keep their Kalman state in ``pool``: the tracker's own, until
    the batch engine points every lane's tracker at one shared pool.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.pool = KalmanPool(capacity=8)
        self.tracks: Dict[int, ObjectTrack] = {}
        #: The confirmed tracks observed this frame or missed only this one:
        #: the camera evidence the image-to-world transform converts.
        self.observed: List[ObjectTrack] = []
        self._next_track_id = itertools.count(1)

    def reset(self) -> None:
        """Drop all tracks, returning their Kalman rows to the pool."""
        for track in self.tracks.values():
            self.pool.free(track.row)
        self.tracks.clear()
        self.observed = []

    def step(self, detections: List[tuple]) -> List[ObjectTrack]:
        """Predict, associate and update for one frame of detection rows
        ``(cx, cy, w, h, kind, actor_id, ...)`` (what
        ``SimulatedDetector.detect_rows`` returns), and return the live
        confirmed tracks."""
        pool = self.pool
        pool.predict_tracks((self,))
        rows: List[int] = []
        measurements: List[tuple] = []
        self.track_rows(detections, rows, measurements)
        pool.update_rows(rows, measurements)
        return self.confirmed_tracks()

    def track_rows(self, detections: List[tuple], upd_rows: List[int],
                   upd_z: List[tuple]) -> None:
        """Association and track lifecycle for one frame of detection rows
        ``(cx, cy, w, h, kind, actor_id, ...)``, after the tracks' predict.

        Matched tracks' Kalman updates are queued (their pool rows on
        ``upd_rows``, their ``(cx, cy, w, h)`` measurements on ``upd_z``) for
        :meth:`KalmanPool.update_rows`; new tracks start on their detection.
        """
        config = self.config
        tracks = self.tracks
        track_list = list(tracks.values())
        n_tracks = len(track_list)
        n_dets = len(detections)
        matched_tracks: List[ObjectTrack] = []
        matched_det_idx: List[int] = []
        if n_tracks and n_dets:
            det_geom = []
            for det in detections:
                dcx, dcy, dw, dh = det[0], det[1], det[2], det[3]
                det_geom.append((dcx - dw / 2.0, dcx + dw / 2.0,
                                 dcy - dh / 2.0, dcy + dh / 2.0,
                                 dw * dh, dcx, dcy, dw))
            # Association cost: (1 - IoU) plus 0.05 times the centre
            # distance clamped at 10 mean widths, so high-IoU pairs win and
            # non-overlapping candidates still order by proximity.  A 1x1
            # frame always pairs (0, 0), so it skips the costs.  Any other
            # frame costs every pair as Python floats (one vectorised
            # distance call, which beats a scalar call per pair from three
            # pairs on); a single row or column reduces to a first-wins
            # argmin — exactly the tie-break the strict ``<`` in the solver's
            # delta update uses, and the one ``min`` keeps — and only a
            # matrix of at least 2x2 runs the Hungarian solve.  Acceptability
            # is checked per returned pair: a costed frame reuses the pair's
            # IoU and distance, and the 1x1 frame computes its distance only
            # when its IoU falls short.
            costed = n_tracks > 1 or n_dets > 1
            if not costed:
                pairs = ((0, 0),)
            else:
                pair_geom = [(track, geom) for track in track_list for geom in det_geom]
                overlaps = [_overlap(track, geom) for track, geom in pair_geom]
                distances = _distances(pair_geom)
                # ``10.0 if d > 10.0 else d`` is ``min(d, 10.0)``, NaN included.
                costs = [(1.0 - overlap) + 0.05 * (10.0 if d > 10.0 else d)
                         for overlap, d in zip(overlaps, distances)]
                if n_tracks == 1 or n_dets == 1:
                    best = min(range(len(costs)), key=costs.__getitem__)
                    pairs = ((0, best),) if n_tracks == 1 else ((best, 0),)
                else:
                    pairs = hungarian_assignment(
                        [costs[r * n_dets:(r + 1) * n_dets] for r in range(n_tracks)]
                    )
            min_iou = config.min_iou_for_match
            cd_gate = config.center_distance_gate
            for r, c in pairs:
                track = track_list[r]
                geom = det_geom[c]
                if not 0.4 <= geom[7] / track.pred_w <= 2.5:
                    continue
                if costed:
                    k = r * n_dets + c
                    if overlaps[k] < min_iou and distances[k] > cd_gate:
                        continue
                elif _overlap(track, geom) < min_iou and _distances([(track, geom)])[0] > cd_gate:
                    continue
                matched_tracks.append(track)
                matched_det_idx.append(c)

        # Every existing track misses this frame unless it is matched below.
        for track in track_list:
            track.consecutive_misses += 1
        for track, c in zip(matched_tracks, matched_det_idx):
            det = detections[c]
            track.kind = det[4]
            track.actor_id = det[5]
            track.hits += 1
            track.consecutive_misses = 0
            upd_rows.append(track.row)
            upd_z.append((det[0], det[1], det[2], det[3]))

        matched_cols = set(matched_det_idx)
        for c, det in enumerate(detections):
            if c in matched_cols:
                continue
            tid = next(self._next_track_id)
            tracks[tid] = ObjectTrack(tid, det[4], det[5], self.pool,
                                      det[0], det[1], det[2], det[3])

        # Only tracks that were actually observed this frame (or missed a
        # single frame) count as camera evidence downstream; coasting Kalman
        # predictions are kept for re-association but are not world
        # measurements, otherwise a vanished object would keep "existing" for
        # the whole track-retirement window.
        max_misses = config.max_consecutive_misses
        min_hits = config.min_hits_to_confirm
        stale = []
        observed = []
        for tid, track in tracks.items():
            if track.consecutive_misses > max_misses:
                stale.append(tid)
            elif track.hits >= min_hits and track.consecutive_misses <= 1:
                observed.append(track)
        for tid in stale:
            self.pool.free(tracks.pop(tid).row)
        self.observed = observed

    def confirmed_tracks(self) -> List[ObjectTrack]:
        """Tracks with enough supporting detections to be reported downstream."""
        return [
            track
            for track in self.tracks.values()
            if track.is_confirmed(self.config.min_hits_to_confirm)
        ]

    def track_for_actor(self, actor_id: int) -> ObjectTrack | None:
        """Bookkeeping lookup: the track most recently fed by a given actor."""
        for track in self.tracks.values():
            if track.actor_id == actor_id:
                return track
        return None
