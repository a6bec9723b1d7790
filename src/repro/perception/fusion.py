"""Camera/LiDAR sensor fusion.

Sensor fusion provides the spatial redundancy that defends the AV against
single-sensor attacks (paper §III-B): the camera-based estimates are blended
with LiDAR detections, and obstacles are only *registered* in the world model
once enough consistent evidence has accumulated.  Three behaviours matter for
reproducing the paper's findings:

* camera+LiDAR agreement registers an obstacle almost immediately;
* camera-only objects (e.g. pedestrians beyond the LiDAR's effective
  pedestrian range) register after a short persistence window — this is the
  "sensor fusion delays the object registration" effect of §VI-C that makes
  pedestrians the easier target;
* an obstacle whose camera evidence disappears survives for a bounded number
  of frames on LiDAR alone before the fusion drops it (classification and
  association in Apollo are camera-driven); a persistent LiDAR-only return
  will eventually re-register, but slowly.

The fused lateral position is a confidence-weighted blend of the camera and
LiDAR estimates, which is why hijacking the camera trajectory of a vehicle
(still confirmed by LiDAR) needs a larger accumulated shift — and therefore a
longer attack window — than hijacking a pedestrian seen only by the camera.

Fusion policies
---------------

The fusion stage is pluggable: a *fusion policy* is a
:class:`RowFusionPolicy` — anything with its ``reset()`` and
``fuse(estimates, lidar, ego_speed_mps, frame_dt_s)`` — registered by name
in :data:`FUSION_POLICIES` and selected through ``FusionConfig.policy``.
Four built-ins ship as first-class victim variants for defense evaluation:

* ``late`` — the confidence-weighted camera/LiDAR fusion described above
  (:class:`SensorFusion`); the default victim, bit-identical to the
  pre-registry behaviour;
* ``camera_only`` — the camera estimates pass straight through
  (:class:`CameraOnlyFusion`);
* ``lidar_only`` — obstacles come from LiDAR returns alone
  (:class:`LidarOnlyFusion`); immune to camera perturbation but blind to
  camera-only objects (distant pedestrians) and classification-poor;
* ``consistency_gated`` — late fusion that down-weights the camera while
  the two modalities disagree laterally (:class:`ConsistencyGatedFusion`),
  a sparse-fusion-style defense whose arbitration is itself an attack
  surface (perturb one modality, exploit the gate).

Rows
----

Each policy implements its logic once, as :meth:`~RowFusionPolicy.fuse`
over plain-float rows, which every simulation lane calls on its victim's
own policy object.  The rows are:

* *estimate rows* ``(distance, lateral, rel_velocity, lateral_velocity,
  track_id, actor_id, kind, rel_acceleration, age_frames)`` — what
  ``ImageToWorldTransform.estimate_rows`` renders;
* *LiDAR rows* ``(distance, lateral, actor_id, kind, vx)`` — what
  ``LidarSensor.scan_rows`` renders and :meth:`LidarScan.rows` converts a
  scan to;
* *obstacle rows* ``(kind, distance, lateral, speed, lateral_velocity,
  obstacle_id, sources, actor_id)``, distance-sorted — the five fields the
  planner reads first, then the obstacle's id, the sensors that currently
  support it (``"camera"``, ``"lidar"``) and the simulated actor's id (for
  metrics only).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.registry import Registry
from repro.sim.actors import ActorKind

__all__ = [
    "FusionConfig",
    "RowFusionPolicy",
    "SensorFusion",
    "CameraOnlyFusion",
    "LidarOnlyFusion",
    "ConsistencyGatedFusion",
    "FUSION_POLICIES",
    "DEFAULT_FUSION_POLICY",
    "build_fusion_policy",
    "list_fusion_policies",
]

#: The policy a defaulted :class:`FusionConfig` resolves to — the paper's
#: camera-driven late-fusion victim.
DEFAULT_FUSION_POLICY = "late"


@dataclass(frozen=True)
class FusionConfig:
    """Registration, timeout, and blending parameters of the fusion stage."""

    #: Weight of the camera *lateral* estimate when LiDAR also confirms.  The
    #: camera dominates lateral localization and classification (Apollo-style
    #: camera-first fusion), which is what the trajectory hijacker exploits.
    camera_weight: float = 0.65
    #: Weight of the camera *distance* estimate when LiDAR also confirms.
    #: Monocular ranging is biased/noisy, so range is LiDAR-dominated.
    camera_distance_weight: float = 0.25
    #: Camera frames of persistence required to register a camera+LiDAR object.
    fused_registration_frames: int = 2
    #: Camera frames of persistence required to register a camera-only object.
    camera_only_registration_frames: int = 8
    #: LiDAR scans of persistence required to register a LiDAR-only object.
    #: Apollo-style fusion is camera-driven: an unclassified LiDAR-only return
    #: takes much longer to be promoted to a planning obstacle, which is the
    #: registration delay the paper's §VI-C analysis points to.
    lidar_only_registration_scans: int = 30
    #: Frames without camera evidence after which a camera-only obstacle is dropped.
    camera_only_timeout_frames: int = 10
    #: Frames without camera evidence after which even a LiDAR-backed obstacle is
    #: dropped (camera-driven classification/association expires).
    lidar_backed_timeout_frames: int = 12
    #: LiDAR scans without evidence after which a LiDAR-only obstacle is dropped.
    lidar_only_timeout_scans: int = 5
    #: Maximum world-frame distance between a camera estimate and a LiDAR
    #: detection for them to be considered the same object (at zero range).
    association_gate_m: float = 3.5
    #: Range-dependent widening of the association gate: monocular distance
    #: estimates degrade with range, so the gate grows by this fraction of the
    #: object distance.
    association_gate_range_factor: float = 0.12
    #: Exponential smoothing factor for the fused lateral velocity.
    lateral_velocity_smoothing: float = 0.3
    #: Number of frames over which the fused lateral velocity is differenced.
    #: A longer baseline suppresses detector noise while still capturing real
    #: lateral motion (a crossing pedestrian, or an attack-induced drift).
    lateral_velocity_baseline_frames: int = 10
    #: Camera/LiDAR lateral disagreement (m) beyond which the
    #: ``consistency_gated`` policy treats the modalities as inconsistent and
    #: penalizes the camera.  Ignored by the other policies.
    consistency_gate_m: float = 1.2
    #: Multiplier applied to both camera blend weights while the modalities
    #: disagree (``consistency_gated`` policy only).
    consistency_camera_penalty: float = 0.25
    #: Which registered fusion policy the perception pipeline instantiates.
    #: See :data:`FUSION_POLICIES` for the built-ins.
    policy: str = DEFAULT_FUSION_POLICY

    _UNIT_INTERVAL_FIELDS = (
        "camera_weight",
        "camera_distance_weight",
        "lateral_velocity_smoothing",
        "consistency_camera_penalty",
    )
    _POSITIVE_COUNT_FIELDS = (
        "fused_registration_frames",
        "camera_only_registration_frames",
        "lidar_only_registration_scans",
        "camera_only_timeout_frames",
        "lidar_backed_timeout_frames",
        "lidar_only_timeout_scans",
        "lateral_velocity_baseline_frames",
    )

    def __post_init__(self) -> None:
        for name in self._UNIT_INTERVAL_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in self._POSITIVE_COUNT_FIELDS:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.association_gate_m <= 0:
            raise ValueError("association gate must be positive")
        if self.association_gate_range_factor < 0:
            raise ValueError("association_gate_range_factor must be non-negative")
        if self.consistency_gate_m <= 0:
            raise ValueError("consistency_gate_m must be positive")
        if self.policy not in FUSION_POLICIES:
            raise ValueError(
                f"unknown fusion policy {self.policy!r}; "
                f"available: {', '.join(FUSION_POLICIES.keys())}"
            )


_CAMERA = ("camera",)
_LIDAR = ("lidar",)
_CAMERA_LIDAR = ("camera", "lidar")
_distance = itemgetter(1)


class RowFusionPolicy:
    """A fusion policy implemented once, on plain-float rows: the fusion
    contract.

    Subclasses implement :meth:`fuse` (see the module docstring for the row
    layouts) and keep per-object state in ``_tracks``.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()
        self._tracks: Dict[object, object] = {}

    def reset(self) -> None:
        """Drop all per-object state."""
        self._tracks.clear()

    def fuse(
        self,
        estimates: List[tuple],
        lidar: Optional[List[tuple]],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[tuple]:
        """Fuse one frame of estimate rows with the latest LiDAR rows (or
        ``None`` before the first scan) into distance-sorted obstacle rows."""
        raise NotImplementedError


def _update_lateral_velocity(track, lateral: float, keep: int, alpha: float,
                             frame_dt_s: float) -> None:
    """Differenced-baseline lateral velocity with exponential smoothing.

    ``track`` carries ``lateral_history`` (the last ``keep`` laterals) and
    ``lateral_velocity``; ``lateral`` is this frame's measurement.
    """
    history = track.lateral_history
    if history and abs(lateral - history[-1]) > 1.0:
        # A jump this large within one frame is an association or source
        # switch, not physical motion; restart the baseline so it does not
        # masquerade as lateral velocity.
        history.clear()
        track.lateral_velocity = 0.0
    history.append(lateral)
    if len(history) > keep:
        del history[:-keep]
    n = len(history)
    raw = (history[-1] - history[0]) / ((n - 1) * frame_dt_s) if n >= 2 else 0.0
    track.lateral_velocity = (1 - alpha) * track.lateral_velocity + alpha * raw


class _FusedTrack:
    """Camera and LiDAR evidence of one fused object."""

    __slots__ = ("obstacle_id", "kind", "actor_id", "camera_frames_seen",
                 "lidar_scans_seen", "frames_since_camera", "scans_since_lidar",
                 "camera_distance", "camera_lateral", "camera_rel_velocity",
                 "lidar_distance", "lidar_lateral", "lidar_speed", "fused_lateral",
                 "fused_distance", "lateral_velocity", "lateral_history",
                 "has_camera_history", "registered")

    def __init__(self, obstacle_id: str, kind: ActorKind, actor_id: Optional[int],
                 lateral: float, distance: float):
        self.obstacle_id = obstacle_id
        self.kind = kind
        self.actor_id = actor_id
        self.camera_frames_seen = 0
        self.lidar_scans_seen = 0
        self.frames_since_camera = 10_000
        self.scans_since_lidar = 10_000
        self.camera_distance = 0.0
        self.camera_lateral = 0.0
        self.camera_rel_velocity = 0.0
        self.lidar_distance = 0.0
        self.lidar_lateral = 0.0
        self.lidar_speed = 0.0
        self.fused_lateral = lateral
        self.fused_distance = distance
        self.lateral_velocity = 0.0
        self.lateral_history: List[float] = []
        self.has_camera_history = False
        self.registered = False


class SensorFusion(RowFusionPolicy):
    """Blends camera world estimates and LiDAR scans into the ADS world model.

    This is the ``late`` fusion policy — the paper's default victim.  The
    camera/LiDAR blend weights are factored into :meth:`_blend_weights` so
    that :class:`ConsistencyGatedFusion` can override the arbitration without
    duplicating the track lifecycle.  Camera tracks are keyed by tracker
    track id, LiDAR-born tracks by ``"lidar-<actor id>"``.
    """

    def _blend_weights(self, track: _FusedTrack) -> Tuple[float, float]:
        """(lateral, distance) camera weights for a camera+LiDAR-fresh track."""
        return (self.config.camera_weight, self.config.camera_distance_weight)

    def _nearest_track(self, distance: float, lateral: float) -> Optional[_FusedTrack]:
        """The closest track with camera history or recent LiDAR evidence
        inside the range-widened association gate."""
        cfg = self.config
        best = None
        best_separation = (
            cfg.association_gate_m
            + cfg.association_gate_range_factor * (distance if distance > 0.0 else 0.0)
        )
        for track in self._tracks.values():
            if not track.has_camera_history and not track.scans_since_lidar <= 2:
                continue
            # Lateral disagreement is weighted heavily: a one-lane lateral
            # offset means a different object even when the ranges are close
            # (e.g. an oncoming vehicle passing the lead vehicle).
            separation = abs(track.fused_distance - distance) + 2.5 * abs(
                track.fused_lateral - lateral
            )
            if separation < best_separation:
                best_separation = separation
                best = track
        return best

    def fuse(self, estimates, lidar, ego_speed_mps, frame_dt_s):
        cfg = self.config
        tracks = self._tracks
        for track in tracks.values():
            track.frames_since_camera += 1
            if lidar is not None:
                track.scans_since_lidar += 1

        for distance, lateral, rel_velocity, _lv, track_id, actor_id, kind, _a, _age in estimates:
            track = tracks.get(track_id)
            if track is None:
                # A new camera track may correspond to an existing fused track
                # (a LiDAR-only object, or a camera track re-created after a
                # misdetection burst); associate by spatial proximity so the
                # evidence accumulates in one place instead of duplicating.
                track = self._nearest_track(distance, lateral)
                if track is None:
                    track = _FusedTrack(f"cam-{track_id}", kind, actor_id, lateral, distance)
                    tracks[track_id] = track
            track.camera_frames_seen += 1
            track.frames_since_camera = 0
            track.camera_distance = distance
            track.camera_lateral = lateral
            track.camera_rel_velocity = rel_velocity
            track.actor_id = actor_id
            track.kind = kind
            track.has_camera_history = True

        if lidar is not None:
            for distance, lateral, actor_id, kind, speed in lidar:
                track = self._nearest_track(distance, lateral)
                if track is None:
                    key = f"lidar-{actor_id}"
                    track = tracks.get(key)
                    if track is None:
                        track = _FusedTrack(key, kind, actor_id, lateral, distance)
                        tracks[key] = track
                track.lidar_scans_seen += 1
                track.scans_since_lidar = 0
                track.lidar_distance = distance
                track.lidar_lateral = lateral
                track.lidar_speed = speed
                if track.actor_id is None:
                    track.actor_id = actor_id

        # One pass per track: registration, expiry, then the world-model entry.
        keep = cfg.lateral_velocity_baseline_frames + 1
        alpha = cfg.lateral_velocity_smoothing
        stale = []
        obstacles = []
        for key, track in tracks.items():
            # Fused evidence registers fastest, camera-only slower, LiDAR-only
            # slowest (camera-driven classification).
            if not track.registered:
                if track.camera_frames_seen > 0 and track.lidar_scans_seen > 0:
                    if track.camera_frames_seen >= cfg.fused_registration_frames:
                        track.registered = True
                elif track.camera_frames_seen > 0:
                    if track.camera_frames_seen >= cfg.camera_only_registration_frames:
                        track.registered = True
                elif track.lidar_scans_seen >= cfg.lidar_only_registration_scans:
                    track.registered = True
            if track.has_camera_history:
                timeout = (
                    cfg.lidar_backed_timeout_frames
                    if track.scans_since_lidar <= 2
                    else cfg.camera_only_timeout_frames
                )
                if track.frames_since_camera > timeout:
                    stale.append(key)
                    continue
            elif track.scans_since_lidar > cfg.lidar_only_timeout_scans:
                stale.append(key)
                continue
            camera_fresh = track.frames_since_camera <= 2 and track.camera_frames_seen > 0
            lidar_fresh = track.scans_since_lidar <= 2 and track.lidar_scans_seen > 0
            if camera_fresh and lidar_fresh:
                lateral_weight, distance_weight = self._blend_weights(track)
                lateral = (
                    lateral_weight * track.camera_lateral
                    + (1.0 - lateral_weight) * track.lidar_lateral
                )
                distance = (
                    distance_weight * track.camera_distance
                    + (1.0 - distance_weight) * track.lidar_distance
                )
                speed = track.lidar_speed
                sources = _CAMERA_LIDAR
            elif camera_fresh:
                lateral = track.camera_lateral
                distance = track.camera_distance
                speed = ego_speed_mps + track.camera_rel_velocity
                if not speed > 0.0:
                    speed = 0.0
                sources = _CAMERA
            elif lidar_fresh:
                lateral = track.lidar_lateral
                distance = track.lidar_distance
                speed = track.lidar_speed
                sources = _LIDAR
            else:
                # Coast on the last fused state while the track is kept alive;
                # with no new measurement the lateral velocity decays instead
                # of being re-estimated from stale data.
                lateral = track.fused_lateral
                distance = track.fused_distance
                if track.lidar_scans_seen:
                    speed = track.lidar_speed
                else:
                    speed = ego_speed_mps + track.camera_rel_velocity
                    if not speed > 0.0:
                        speed = 0.0
                sources = ()
            if sources:
                _update_lateral_velocity(track, lateral, keep, alpha, frame_dt_s)
            else:
                track.lateral_velocity *= 0.8
            track.fused_lateral = lateral
            track.fused_distance = distance
            if track.registered:
                obstacles.append((track.kind, distance, lateral, speed,
                                  track.lateral_velocity, track.obstacle_id, sources,
                                  track.actor_id))
        for key in stale:
            del tracks[key]
        obstacles.sort(key=_distance)
        return obstacles


class ConsistencyGatedFusion(SensorFusion):
    """Late fusion that distrusts the camera while the modalities disagree.

    A sparse-fusion-style defense: when the camera and LiDAR lateral
    estimates of one track diverge by more than ``consistency_gate_m``, both
    camera blend weights are scaled by ``consistency_camera_penalty``, so the
    (harder-to-spoof) LiDAR dominates until the modalities agree again.  The
    gate is per-frame and per-track — it is also an attack surface, since a
    hijacker that perturbs one modality controls when the gate trips.
    """

    def _blend_weights(self, track: _FusedTrack) -> Tuple[float, float]:
        cfg = self.config
        if abs(track.camera_lateral - track.lidar_lateral) > cfg.consistency_gate_m:
            return (
                cfg.camera_weight * cfg.consistency_camera_penalty,
                cfg.camera_distance_weight * cfg.consistency_camera_penalty,
            )
        return (cfg.camera_weight, cfg.camera_distance_weight)


class CameraOnlyFusion(RowFusionPolicy):
    """Pass the camera world estimates straight through as the world model.

    One obstacle per camera estimate, in estimate order (already
    distance-sorted by the transform stage), with the ego-relative velocity
    re-absolutized.  Stateless: ``_tracks`` stays empty.
    """

    def fuse(self, estimates, lidar, ego_speed_mps, frame_dt_s):
        obstacles = []
        for (distance, lateral, rel_velocity, lateral_velocity, track_id, actor_id, kind,
             _accel, _age) in estimates:
            speed = ego_speed_mps + rel_velocity
            if not speed > 0.0:
                speed = 0.0
            obstacles.append((kind, distance, lateral, speed, lateral_velocity,
                              f"cam-{track_id}", _CAMERA, actor_id))
        return obstacles


class _LidarOnlyTrack:
    """LiDAR evidence of one actor."""

    __slots__ = ("obstacle_id", "kind", "actor_id", "distance", "lateral", "speed",
                 "scans_seen", "scans_since", "lateral_history", "lateral_velocity",
                 "registered")

    def __init__(self, kind: ActorKind, actor_id: int):
        self.obstacle_id = f"lidar-{actor_id}"
        self.kind = kind
        self.actor_id = actor_id
        self.distance = 0.0
        self.lateral = 0.0
        self.speed = 0.0
        self.scans_seen = 0
        self.scans_since = 10_000
        self.lateral_history: List[float] = []
        self.lateral_velocity = 0.0
        self.registered = False


class LidarOnlyFusion(RowFusionPolicy):
    """Build the world model from LiDAR returns alone.

    Immune to camera-channel perturbation, but blind to camera-only objects
    (distant pedestrians never enter the world model) and stuck with the
    LiDAR's coarse classification.  Association is trivial — LiDAR detections
    carry the simulated actor id — so the interesting dynamics are the
    registration persistence (``fused_registration_frames`` scans: LiDAR-only
    here is the *primary* channel, not an unclassified residue, so it
    registers at the fused cadence) and the scan-domain timeout
    (``lidar_only_timeout_scans``).  The lateral-velocity estimator is the
    late policy's, evaluated only on frames whose scan saw the track.
    """

    def fuse(self, estimates, lidar, ego_speed_mps, frame_dt_s):
        cfg = self.config
        tracks = self._tracks
        if lidar is not None:
            for track in tracks.values():
                track.scans_since += 1
            for distance, lateral, actor_id, kind, speed in lidar:
                track = tracks.get(actor_id)
                if track is None:
                    track = _LidarOnlyTrack(kind, actor_id)
                    tracks[actor_id] = track
                track.scans_seen += 1
                track.scans_since = 0
                track.distance = distance
                track.lateral = lateral
                track.speed = speed
                track.kind = kind
                if not track.registered and track.scans_seen >= cfg.fused_registration_frames:
                    track.registered = True
            stale = [
                actor_id
                for actor_id, track in tracks.items()
                if track.scans_since > cfg.lidar_only_timeout_scans
            ]
            for actor_id in stale:
                del tracks[actor_id]

        keep = cfg.lateral_velocity_baseline_frames + 1
        alpha = cfg.lateral_velocity_smoothing
        obstacles = []
        for track in tracks.values():
            if track.scans_since == 0:
                _update_lateral_velocity(track, track.lateral, keep, alpha, frame_dt_s)
            else:
                track.lateral_velocity *= 0.8
            if track.registered:
                obstacles.append((track.kind, track.distance, track.lateral, track.speed,
                                  track.lateral_velocity, track.obstacle_id, _LIDAR,
                                  track.actor_id))
        obstacles.sort(key=_distance)
        return obstacles


#: Registry of fusion-policy factories (``FusionConfig -> RowFusionPolicy``).
#: Third-party policies register here and become sweepable/CLI-selectable.
FUSION_POLICIES: Registry[Callable[[FusionConfig], RowFusionPolicy]] = Registry(
    "fusion policy"
)

FUSION_POLICIES.register(
    "late",
    SensorFusion,
    description="confidence-weighted camera/LiDAR late fusion (paper default victim)",
)
FUSION_POLICIES.register(
    "camera_only",
    CameraOnlyFusion,
    description="camera estimates pass straight through",
)
FUSION_POLICIES.register(
    "lidar_only",
    LidarOnlyFusion,
    description="world model from LiDAR returns alone",
)
FUSION_POLICIES.register(
    "consistency_gated",
    ConsistencyGatedFusion,
    description="late fusion that down-weights the camera on modality disagreement",
)


def build_fusion_policy(name: str, config: FusionConfig | None = None) -> RowFusionPolicy:
    """Instantiate the registered fusion policy ``name`` with ``config``."""
    policy = FUSION_POLICIES.get(name)(config or FusionConfig())
    if not callable(getattr(policy, "fuse", None)):
        raise ValueError(f"fusion policy {name!r} has no fuse(estimates, lidar, "
                         "ego_speed_mps, frame_dt_s) method")
    return policy


def list_fusion_policies() -> List[str]:
    """Registered fusion-policy names, sorted."""
    return sorted(FUSION_POLICIES.keys())
