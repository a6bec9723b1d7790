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

The fusion stage is pluggable: a *fusion policy* is anything with the
``reset()`` / ``step(camera_estimates, lidar_scan, ego_speed_mps,
frame_dt_s) -> List[FusedObstacle]`` interface, registered by name in
:data:`FUSION_POLICIES` and selected through ``FusionConfig.policy``.  Four
built-ins ship as first-class victim variants for defense evaluation:

* ``late`` — the confidence-weighted camera/LiDAR fusion described above
  (:class:`SensorFusion`); the default victim, bit-identical to the
  pre-registry behaviour;
* ``camera_only`` — the camera estimates pass straight through
  (:class:`CameraOnlyFusion`); the pipeline RoboTack runs internally to
  reconstruct world state;
* ``lidar_only`` — obstacles come from LiDAR returns alone
  (:class:`LidarOnlyFusion`); immune to camera perturbation but blind to
  camera-only objects (distant pedestrians) and classification-poor;
* ``consistency_gated`` — late fusion that down-weights the camera while
  the two modalities disagree laterally (:class:`ConsistencyGatedFusion`),
  a sparse-fusion-style defense whose arbitration is itself an attack
  surface (perturb one modality, exploit the gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.perception.transforms import WorldObjectEstimate
from repro.runtime.registry import Registry
from repro.sensors.lidar import LidarScan
from repro.sim.actors import ActorKind

__all__ = [
    "FusionConfig",
    "FusedObstacle",
    "FusionPolicy",
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


@dataclass(frozen=True)
class FusedObstacle:
    """One obstacle in the ADS world model."""

    obstacle_id: str
    kind: ActorKind
    #: Longitudinal distance from the ego front bumper to the obstacle centre.
    distance_m: float
    #: Lateral offset relative to the ego centreline (positive left).
    lateral_m: float
    #: Absolute longitudinal speed of the obstacle (m/s, ego direction).
    longitudinal_speed_mps: float
    #: Rate of change of the lateral offset (m/s).
    lateral_velocity_mps: float
    #: Which sensors currently support this obstacle ("camera", "lidar").
    sources: tuple[str, ...]
    #: Bookkeeping id of the underlying simulated actor (for metrics only).
    actor_id: Optional[int] = None


@dataclass
class _FusedTrack:
    key: str
    kind: ActorKind
    actor_id: Optional[int]
    lateral_history: List[float] = field(default_factory=list)
    camera_frames_seen: int = 0
    lidar_scans_seen: int = 0
    frames_since_camera: int = 10_000
    scans_since_lidar: int = 10_000
    camera_distance_m: float = 0.0
    camera_lateral_m: float = 0.0
    camera_rel_velocity_mps: float = 0.0
    lidar_distance_m: float = 0.0
    lidar_lateral_m: float = 0.0
    lidar_speed_mps: float = 0.0
    fused_lateral_m: float = 0.0
    fused_distance_m: float = 0.0
    lateral_velocity_mps: float = 0.0
    registered: bool = False
    camera_track_id: Optional[int] = None
    has_camera_history: bool = field(default=False)

    @property
    def camera_recent(self) -> bool:
        return self.frames_since_camera == 0

    @property
    def lidar_recent(self) -> bool:
        return self.scans_since_lidar <= 2


class SensorFusion:
    """Blends camera world estimates and LiDAR scans into the ADS world model.

    This is the ``late`` fusion policy — the paper's default victim.  The
    camera/LiDAR blend weights are factored into :meth:`_blend_weights` so
    that :class:`ConsistencyGatedFusion` can override the arbitration without
    duplicating the track lifecycle; with the base weights the arithmetic is
    bit-identical to the pre-policy implementation.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()
        self._tracks: Dict[str, _FusedTrack] = {}

    def _blend_weights(self, track: _FusedTrack) -> Tuple[float, float]:
        """(lateral, distance) camera weights for a camera+LiDAR-fresh track."""
        return (self.config.camera_weight, self.config.camera_distance_weight)

    def reset(self) -> None:
        """Drop all fused tracks."""
        self._tracks.clear()

    def step(
        self,
        camera_estimates: List[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        """Fuse one frame of camera estimates with the latest LiDAR scan."""
        for track in self._tracks.values():
            track.frames_since_camera += 1
            if lidar_scan is not None:
                track.scans_since_lidar += 1

        self._ingest_camera(camera_estimates)
        if lidar_scan is not None:
            self._ingest_lidar(lidar_scan)

        self._update_registration()
        self._drop_stale_tracks()
        return self._build_obstacles(ego_speed_mps, frame_dt_s)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def _ingest_camera(self, estimates: List[WorldObjectEstimate]) -> None:
        for estimate in estimates:
            track = self._find_or_create_camera_track(estimate)
            track.camera_frames_seen += 1
            track.frames_since_camera = 0
            track.camera_distance_m = estimate.distance_m
            track.camera_lateral_m = estimate.lateral_m
            track.camera_rel_velocity_mps = estimate.relative_longitudinal_velocity_mps
            track.camera_track_id = estimate.track_id
            track.actor_id = estimate.actor_id
            track.kind = estimate.kind
            track.has_camera_history = True

    def _find_or_create_camera_track(self, estimate: WorldObjectEstimate) -> _FusedTrack:
        key = f"cam-{estimate.track_id}"
        if key in self._tracks:
            return self._tracks[key]
        # A new camera track may correspond to an existing fused track (for
        # example a LiDAR-only object, or a camera track that was re-created
        # after a misdetection burst); associate by spatial proximity so the
        # evidence accumulates in one place instead of spawning duplicates.
        nearest = self._nearest_track(
            estimate.distance_m, estimate.lateral_m, require_lidar=False
        )
        if nearest is not None:
            return nearest
        track = _FusedTrack(
            key=key,
            kind=estimate.kind,
            actor_id=estimate.actor_id,
            fused_lateral_m=estimate.lateral_m,
            fused_distance_m=estimate.distance_m,
        )
        self._tracks[key] = track
        return track

    def _ingest_lidar(self, scan: LidarScan) -> None:
        for detection in scan.detections:
            track = self._nearest_track(
                detection.distance_m, detection.lateral_m, require_lidar=False
            )
            if track is None:
                key = f"lidar-{detection.actor_id}"
                track = self._tracks.get(key)
                if track is None:
                    track = _FusedTrack(
                        key=key,
                        kind=detection.kind,
                        actor_id=detection.actor_id,
                        fused_lateral_m=detection.lateral_m,
                        fused_distance_m=detection.distance_m,
                    )
                    self._tracks[key] = track
            track.lidar_scans_seen += 1
            track.scans_since_lidar = 0
            track.lidar_distance_m = detection.distance_m
            track.lidar_lateral_m = detection.lateral_m
            track.lidar_speed_mps = detection.velocity.x
            if track.actor_id is None:
                track.actor_id = detection.actor_id

    def _nearest_track(
        self, distance_m: float, lateral_m: float, require_lidar: bool
    ) -> Optional[_FusedTrack]:
        best: Optional[_FusedTrack] = None
        best_distance = (
            self.config.association_gate_m
            + self.config.association_gate_range_factor * max(0.0, distance_m)
        )
        for track in self._tracks.values():
            if require_lidar and track.lidar_scans_seen == 0:
                continue
            if not require_lidar and not track.has_camera_history and not track.lidar_recent:
                continue
            ref_distance = track.fused_distance_m
            ref_lateral = track.fused_lateral_m
            # Lateral disagreement is weighted heavily: a one-lane lateral
            # offset means a different object even when the ranges are close
            # (e.g. an oncoming vehicle passing the lead vehicle).
            separation = abs(ref_distance - distance_m) + 2.5 * abs(ref_lateral - lateral_m)
            if separation < best_distance:
                best_distance = separation
                best = track
        return best

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _update_registration(self) -> None:
        cfg = self.config
        for track in self._tracks.values():
            if track.registered:
                continue
            if track.camera_frames_seen > 0 and track.lidar_scans_seen > 0:
                if track.camera_frames_seen >= cfg.fused_registration_frames:
                    track.registered = True
            elif track.camera_frames_seen > 0:
                if track.camera_frames_seen >= cfg.camera_only_registration_frames:
                    track.registered = True
            elif track.lidar_scans_seen >= cfg.lidar_only_registration_scans:
                track.registered = True

    def _drop_stale_tracks(self) -> None:
        cfg = self.config
        stale: List[str] = []
        for key, track in self._tracks.items():
            if track.has_camera_history:
                if track.lidar_recent:
                    if track.frames_since_camera > cfg.lidar_backed_timeout_frames:
                        stale.append(key)
                elif track.frames_since_camera > cfg.camera_only_timeout_frames:
                    stale.append(key)
            elif track.scans_since_lidar > cfg.lidar_only_timeout_scans:
                stale.append(key)
        for key in stale:
            del self._tracks[key]

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def _build_obstacles(self, ego_speed_mps: float, frame_dt_s: float) -> List[FusedObstacle]:
        cfg = self.config
        obstacles: List[FusedObstacle] = []
        for track in self._tracks.values():
            sources: List[str] = []
            camera_fresh = track.frames_since_camera <= 2 and track.camera_frames_seen > 0
            lidar_fresh = track.lidar_recent and track.lidar_scans_seen > 0
            if camera_fresh:
                sources.append("camera")
            if lidar_fresh:
                sources.append("lidar")

            if camera_fresh and lidar_fresh:
                lateral_weight, distance_weight = self._blend_weights(track)
                lateral = (
                    lateral_weight * track.camera_lateral_m
                    + (1.0 - lateral_weight) * track.lidar_lateral_m
                )
                distance = (
                    distance_weight * track.camera_distance_m
                    + (1.0 - distance_weight) * track.lidar_distance_m
                )
                speed = track.lidar_speed_mps
            elif camera_fresh:
                lateral = track.camera_lateral_m
                distance = track.camera_distance_m
                speed = max(0.0, ego_speed_mps + track.camera_rel_velocity_mps)
            elif lidar_fresh:
                lateral = track.lidar_lateral_m
                distance = track.lidar_distance_m
                speed = track.lidar_speed_mps
            else:
                # Coast on the last fused state while the track is kept alive.
                lateral = track.fused_lateral_m
                distance = track.fused_distance_m
                speed = track.lidar_speed_mps if track.lidar_scans_seen else max(
                    0.0, ego_speed_mps + track.camera_rel_velocity_mps
                )

            alpha = cfg.lateral_velocity_smoothing
            baseline = cfg.lateral_velocity_baseline_frames
            if not camera_fresh and not lidar_fresh:
                # Coasting: no new measurement, so the lateral velocity decays
                # instead of being re-estimated from stale data.
                track.lateral_velocity_mps *= 0.8
            else:
                if (
                    track.lateral_history
                    and abs(lateral - track.lateral_history[-1]) > 1.0
                ):
                    # A jump this large within one frame is an association or
                    # source switch, not physical motion; restart the baseline
                    # so it does not masquerade as lateral velocity.
                    track.lateral_history.clear()
                    track.lateral_velocity_mps = 0.0
                track.lateral_history.append(lateral)
                if len(track.lateral_history) > baseline + 1:
                    del track.lateral_history[: -(baseline + 1)]
                if len(track.lateral_history) >= 2:
                    span = len(track.lateral_history) - 1
                    raw_lateral_velocity = (
                        track.lateral_history[-1] - track.lateral_history[0]
                    ) / (span * frame_dt_s)
                else:
                    raw_lateral_velocity = 0.0
                track.lateral_velocity_mps = (
                    (1 - alpha) * track.lateral_velocity_mps + alpha * raw_lateral_velocity
                )
            track.fused_lateral_m = lateral
            track.fused_distance_m = distance

            if not track.registered:
                continue
            obstacles.append(
                FusedObstacle(
                    obstacle_id=track.key,
                    kind=track.kind,
                    distance_m=distance,
                    lateral_m=lateral,
                    longitudinal_speed_mps=speed,
                    lateral_velocity_mps=track.lateral_velocity_mps,
                    sources=tuple(sources),
                    actor_id=track.actor_id,
                )
            )
        obstacles.sort(key=lambda o: o.distance_m)
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
        if abs(track.camera_lateral_m - track.lidar_lateral_m) > cfg.consistency_gate_m:
            return (
                cfg.camera_weight * cfg.consistency_camera_penalty,
                cfg.camera_distance_weight * cfg.consistency_camera_penalty,
            )
        return (cfg.camera_weight, cfg.camera_distance_weight)


class CameraOnlyFusion:
    """Pass the camera world estimates straight through as the world model.

    One obstacle per camera estimate, in estimate order (already
    distance-sorted by the transform stage), with the ego-relative velocity
    re-absolutized.  This is the reconstruction pipeline RoboTack runs inside
    the attacked process, so it sits on the attacked golden-trace path.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()

    def reset(self) -> None:
        """Stateless: nothing to drop."""

    def step(
        self,
        camera_estimates: List[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        return [
            FusedObstacle(
                obstacle_id=f"cam-{estimate.track_id}",
                kind=estimate.kind,
                distance_m=estimate.distance_m,
                lateral_m=estimate.lateral_m,
                longitudinal_speed_mps=max(
                    0.0, ego_speed_mps + estimate.relative_longitudinal_velocity_mps
                ),
                lateral_velocity_mps=estimate.lateral_velocity_mps,
                sources=("camera",),
                actor_id=estimate.actor_id,
            )
            for estimate in camera_estimates
        ]


@dataclass
class _LidarOnlyTrack:
    kind: ActorKind
    actor_id: int
    distance_m: float = 0.0
    lateral_m: float = 0.0
    speed_mps: float = 0.0
    scans_seen: int = 0
    scans_since: int = 10_000
    lateral_history: List[float] = field(default_factory=list)
    lateral_velocity_mps: float = 0.0
    registered: bool = False


class LidarOnlyFusion:
    """Build the world model from LiDAR returns alone.

    Immune to camera-channel perturbation, but blind to camera-only objects
    (distant pedestrians never enter the world model) and stuck with the
    LiDAR's coarse classification.  Association is trivial — LiDAR detections
    carry the simulated actor id — so the interesting dynamics are the
    registration persistence (``fused_registration_frames`` scans: LiDAR-only
    here is the *primary* channel, not an unclassified residue, so it
    registers at the fused cadence) and the scan-domain timeout
    (``lidar_only_timeout_scans``).  The lateral-velocity estimator reuses the
    late policy's jump-reset + differenced-baseline + exponential smoothing,
    evaluated only on frames that carry a scan.
    """

    def __init__(self, config: FusionConfig | None = None):
        self.config = config or FusionConfig()
        self._tracks: Dict[int, _LidarOnlyTrack] = {}

    def reset(self) -> None:
        """Drop all LiDAR tracks."""
        self._tracks.clear()

    def step(
        self,
        camera_estimates: List[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]:
        cfg = self.config
        tracks = self._tracks
        if lidar_scan is not None:
            for track in tracks.values():
                track.scans_since += 1
            for detection in lidar_scan.detections:
                track = tracks.get(detection.actor_id)
                if track is None:
                    track = _LidarOnlyTrack(kind=detection.kind, actor_id=detection.actor_id)
                    tracks[detection.actor_id] = track
                track.scans_seen += 1
                track.scans_since = 0
                track.distance_m = detection.distance_m
                track.lateral_m = detection.lateral_m
                track.speed_mps = detection.velocity.x
                track.kind = detection.kind
                if not track.registered and track.scans_seen >= cfg.fused_registration_frames:
                    track.registered = True
            stale = [
                actor_id
                for actor_id, track in tracks.items()
                if track.scans_since > cfg.lidar_only_timeout_scans
            ]
            for actor_id in stale:
                del tracks[actor_id]

        obstacles: List[FusedObstacle] = []
        alpha = cfg.lateral_velocity_smoothing
        baseline = cfg.lateral_velocity_baseline_frames
        for track in tracks.values():
            if track.scans_since == 0:
                history = track.lateral_history
                if history and abs(track.lateral_m - history[-1]) > 1.0:
                    history.clear()
                    track.lateral_velocity_mps = 0.0
                history.append(track.lateral_m)
                if len(history) > baseline + 1:
                    del history[: -(baseline + 1)]
                if len(history) >= 2:
                    span = len(history) - 1
                    raw_lateral_velocity = (history[-1] - history[0]) / (span * frame_dt_s)
                else:
                    raw_lateral_velocity = 0.0
                track.lateral_velocity_mps = (
                    (1 - alpha) * track.lateral_velocity_mps + alpha * raw_lateral_velocity
                )
            else:
                track.lateral_velocity_mps *= 0.8
            if not track.registered:
                continue
            obstacles.append(
                FusedObstacle(
                    obstacle_id=f"lidar-{track.actor_id}",
                    kind=track.kind,
                    distance_m=track.distance_m,
                    lateral_m=track.lateral_m,
                    longitudinal_speed_mps=track.speed_mps,
                    lateral_velocity_mps=track.lateral_velocity_mps,
                    sources=("lidar",),
                    actor_id=track.actor_id,
                )
            )
        obstacles.sort(key=lambda o: o.distance_m)
        return obstacles


class FusionPolicy(Protocol):
    """Structural interface every fusion policy satisfies."""

    config: FusionConfig

    def reset(self) -> None: ...

    def step(
        self,
        camera_estimates: List[WorldObjectEstimate],
        lidar_scan: Optional[LidarScan],
        ego_speed_mps: float,
        frame_dt_s: float,
    ) -> List[FusedObstacle]: ...


#: Registry of fusion-policy factories (``FusionConfig -> FusionPolicy``).
#: Third-party policies register here and become sweepable/CLI-selectable;
#: the batch engine only ports the built-ins and rejects anything else.
FUSION_POLICIES: Registry[Callable[[FusionConfig], "FusionPolicy"]] = Registry(
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


def build_fusion_policy(
    name: str, config: FusionConfig | None = None
) -> "FusionPolicy":
    """Instantiate the registered fusion policy ``name`` with ``config``."""
    factory = FUSION_POLICIES.get(name)
    return factory(config or FusionConfig())


def list_fusion_policies() -> List[str]:
    """Registered fusion-policy names, sorted."""
    return sorted(FUSION_POLICIES.keys())
