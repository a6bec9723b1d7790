"""A single object track: lifecycle bookkeeping over a pooled Kalman row.

Each detected object is associated with a unique tracker maintaining its state
(paper Definition 1 / §II-B).  The track's constant-velocity Kalman state is
one row of a :class:`~repro.perception.kalman.KalmanPool`, which predicts and
updates many tracks in stacked calls.  The track records hit/miss streaks so
the multi-object tracker can confirm new tracks and retire stale ones, and
keeps the bookkeeping ``actor_id`` of the detection that most recently
updated it (used only by the simulation metrics and the attacker's target
selection).
"""

from __future__ import annotations

from repro.geometry import BoundingBox
from repro.perception.kalman import KalmanPool
from repro.sim.actors import ActorKind

__all__ = ["ObjectTrack"]


class ObjectTrack:
    """State of one tracked object in image space.

    ``pred_*`` hold the box association compares detections against: the
    last predict's (the spawn box before the first), size floored at 1 px.
    """

    # Slots keep the per-track working set small on wide batches.
    __slots__ = ("track_id", "kind", "actor_id", "pool", "row", "hits",
                 "consecutive_misses", "age_frames", "pred_cx", "pred_cy",
                 "pred_w", "pred_h")

    def __init__(self, track_id: int, kind: ActorKind, actor_id: int, pool: KalmanPool,
                 cx: float, cy: float, w: float, h: float):
        self.track_id = track_id
        self.kind = kind
        self.actor_id = actor_id
        self.pool = pool
        self.row = pool.alloc(cx, cy, w, h)
        self.hits = 1
        self.consecutive_misses = 0
        self.age_frames = 1
        self.pred_cx = cx
        self.pred_cy = cy
        self.pred_w = w if w > 1.0 else 1.0
        self.pred_h = h if h > 1.0 else 1.0

    @property
    def bbox(self) -> BoundingBox:
        """Current filtered bounding box (size floored at 1 px)."""
        cx, cy, w, h, _vx, _vy = self.pool.states[self.row].tolist()
        return BoundingBox(cx=cx, cy=cy, width=w if w > 1.0 else 1.0,
                           height=h if h > 1.0 else 1.0)

    def is_confirmed(self, min_hits: int) -> bool:
        """Whether the track has enough supporting detections to be trusted."""
        return self.hits >= min_hits
