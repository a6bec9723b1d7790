"""Detector characterization (paper §VI-A, Fig. 5).

The paper drives the AV manually for ten minutes, records YOLOv3 detections,
and characterizes (a-b) the distribution of continuous misdetection bursts and
(c-f) the distribution of the normalized bounding-box centre errors.  The same
procedure runs here against the simulated detector: a scripted drive past a
lead vehicle and a sidewalk pedestrian produces a long camera sequence, the
detector output is compared against the rendered ground truth, and the burst
lengths / centre errors are fitted with exponential / Gaussian models.

The fitted 99th percentiles feed straight back into the attack: they are the
stealth bound ``Kmax`` used by the safety hijacker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.geometry import BoundingBox, Vec2, iou
from repro.perception.detection import DetectorConfig, SimulatedDetector
from repro.runtime import ExecutorLike, executor_scope
from repro.sensors.camera import CameraSensor
from repro.sim.actors import ActorDimensions, ActorKind, EgoVehicle, ScriptedActor
from repro.sim.road import Road
from repro.sim.waypoints import WaypointRoute
from repro.sim.world import World
from repro.utils.stats import ExponentialFit, NormalFit, fit_exponential, fit_normal, percentile

__all__ = [
    "ClassCharacterization",
    "CharacterizationReport",
    "CharacterizationEnsemble",
    "characterize_detector",
    "characterize_detector_ensemble",
]

#: IoU below which a detection does not count as detecting the object (paper §VI-A).
_MISDETECTION_IOU = 0.6


@dataclass(frozen=True)
class ClassCharacterization:
    """Fig. 5 panels for one object class."""

    kind: ActorKind
    misdetection_burst_fit: ExponentialFit
    misdetection_burst_p99: float
    center_error_x_fit: NormalFit
    center_error_y_fit: NormalFit
    center_error_x_p99: float
    center_error_y_p99: float
    n_frames_observed: int


@dataclass(frozen=True)
class CharacterizationReport:
    """Complete Fig. 5 reproduction: one characterization per object class."""

    per_class: Dict[ActorKind, ClassCharacterization]

    def k_max_frames(self, kind: ActorKind) -> int:
        """The stealth bound Kmax implied by the characterization."""
        return int(round(self.per_class[kind].misdetection_burst_p99))


@dataclass(frozen=True)
class CharacterizationEnsemble:
    """Several independently-seeded characterization drives, aggregated.

    One ten-minute drive gives a noisy estimate of the 99th-percentile
    misdetection burst; an ensemble of seeded drives (fanned out over worker
    processes) tightens the Kmax stealth bound the safety hijacker inherits.
    """

    reports: tuple[CharacterizationReport, ...]

    def k_max_frames(self, kind: ActorKind) -> int:
        """Median per-drive Kmax — robust to a single unlucky drive."""
        if not self.reports:
            raise ValueError("ensemble has no reports")
        return int(round(float(np.median([r.k_max_frames(kind) for r in self.reports]))))

    def burst_p99_values(self, kind: ActorKind) -> List[float]:
        """Per-drive 99th-percentile burst lengths (for dispersion estimates)."""
        return [r.per_class[kind].misdetection_burst_p99 for r in self.reports]


def _build_characterization_world(road: Road) -> World:
    """A scripted drive with a lead vehicle and a sidewalk pedestrian in view."""
    ego = EgoVehicle(position=Vec2(0.0, 0.0), speed_mps=10.0)
    lead = ScriptedActor(
        ActorKind.VEHICLE,
        WaypointRoute.straight_line(Vec2(35.0, 0.0), Vec2(12_000.0, 0.0), speed_mps=10.0),
        ActorDimensions.sedan(),
        name="characterization-lead",
    )
    pedestrian = ScriptedActor(
        ActorKind.PEDESTRIAN,
        WaypointRoute.straight_line(Vec2(55.0, -4.0), Vec2(12_000.0, -4.0), speed_mps=9.0),
        name="characterization-pedestrian",
    )
    return World(ego=ego, actors=[lead, pedestrian], road=road)


def characterize_detector(
    duration_s: float = 120.0,
    seed: int = 99,
    detector_config: DetectorConfig | None = None,
    frame_rate_hz: float = 15.0,
) -> CharacterizationReport:
    """Run the Fig. 5 characterization drive and fit the noise distributions."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    road = Road()
    world = _build_characterization_world(road)
    camera = CameraSensor()
    detector = SimulatedDetector(detector_config or DetectorConfig(), rng=rng)
    dt = 1.0 / frame_rate_hz
    n_frames = int(round(duration_s * frame_rate_hz))

    burst_lengths: Dict[ActorKind, List[int]] = {k: [] for k in ActorKind}
    current_burst: Dict[int, int] = {}
    errors_x: Dict[ActorKind, List[float]] = {k: [] for k in ActorKind}
    errors_y: Dict[ActorKind, List[float]] = {k: [] for k in ActorKind}
    frames_observed: Dict[ActorKind, int] = {k: 0 for k in ActorKind}
    actor_kinds: Dict[int, ActorKind] = {}

    for _ in range(n_frames):
        rows = camera.render_rows(world)
        # Actor id -> its detected box (cx, cy, w, h).
        detected_boxes = {det[5]: det[:4] for det in detector.detect_rows(rows)}
        for _distance, _lateral, actor_id, kind, cx, cy, w, h, _oh, _ow in rows:
            actor_kinds[actor_id] = kind
            frames_observed[kind] += 1
            box = detected_boxes.get(actor_id)
            detected = box is not None and iou(
                BoundingBox(*box), BoundingBox(cx, cy, w, h)
            ) >= _MISDETECTION_IOU
            if detected:
                if actor_id in current_burst:
                    burst_lengths[kind].append(current_burst.pop(actor_id))
                errors_x[kind].append((box[0] - cx) / w)
                errors_y[kind].append((box[1] - cy) / h)
            else:
                current_burst[actor_id] = current_burst.get(actor_id, 0) + 1
        # The EV cruises at constant speed for the characterization drive.
        world.step(dt, ego_acceleration_mps2=0.0)

    for actor_id, length in current_burst.items():
        kind = actor_kinds.get(actor_id, ActorKind.VEHICLE)
        burst_lengths[kind].append(length)

    per_class: Dict[ActorKind, ClassCharacterization] = {}
    for kind in ActorKind:
        bursts = burst_lengths[kind] or [1]
        ex_fit = fit_exponential(bursts, loc=1.0)
        ex_p99 = percentile(bursts, 99.0) if len(bursts) >= 10 else ex_fit.percentile(99.0)
        x_errors = errors_x[kind] or [0.0]
        y_errors = errors_y[kind] or [0.0]
        per_class[kind] = ClassCharacterization(
            kind=kind,
            misdetection_burst_fit=ex_fit,
            misdetection_burst_p99=float(ex_p99),
            center_error_x_fit=fit_normal(x_errors),
            center_error_y_fit=fit_normal(y_errors),
            center_error_x_p99=percentile(np.abs(x_errors), 99.0),
            center_error_y_p99=percentile(np.abs(y_errors), 99.0),
            n_frames_observed=frames_observed[kind],
        )
    return CharacterizationReport(per_class=per_class)


def _characterize_with_seed(
    duration_s: float, frame_rate_hz: float, seed: int
) -> CharacterizationReport:
    """Module-level worker so the ensemble fan-out is picklable."""
    return characterize_detector(
        duration_s=duration_s, seed=seed, frame_rate_hz=frame_rate_hz
    )


def characterize_detector_ensemble(
    seeds: Sequence[int],
    duration_s: float = 120.0,
    frame_rate_hz: float = 15.0,
    executor: ExecutorLike = None,
) -> CharacterizationEnsemble:
    """Run several seeded characterization drives, optionally in parallel.

    ``executor`` follows the same convention as the campaign runner (``None``
    = serial, an int = worker count, or a shared
    :class:`~repro.runtime.executor.Executor`); the drives are independent, so
    serial and parallel ensembles are identical.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    with executor_scope(executor) as resolved:
        reports = resolved.map(
            functools.partial(_characterize_with_seed, duration_s, frame_rate_hz),
            [int(seed) for seed in seeds],
        )
    return CharacterizationEnsemble(reports=tuple(reports))
