"""The driving-scenario catalog: the paper's five scenarios plus extensions.

The paper's §V-C scenarios (Fig. 4):

* **DS-1** - the EV follows a target vehicle (TV) in its lane; the TV cruises
  at 25 kph and starts 60 m ahead.  Used for `Disappear` / `Move_Out` attacks
  on a vehicle.
* **DS-2** - a pedestrian illegally crosses the street ahead of the EV.  Used
  for `Disappear` / `Move_Out` attacks on a pedestrian.
* **DS-3** - a target vehicle is parked in the parking lane.  Used for the
  `Move_In` attack on a vehicle.
* **DS-4** - a pedestrian walks longitudinally towards the EV in the parking
  lane for 5 m and then stands still.  Used for the `Move_In` attack on a
  pedestrian.
* **DS-5** - the EV follows a target vehicle among several other vehicles with
  random trajectories; the baseline random attack is evaluated here.

Catalog extensions beyond the paper:

* **DS-6** - a multi-vehicle platoon cut-in (inspired by the ACC scenic
  scenarios of *acc_verifai*): the EV follows a two-vehicle platoon while a
  faster vehicle merges from the opposite lane into the gap ahead of the EV
  and settles to platoon speed.  The cut-in vehicle is the attack target.
* **DS-7** - a low-visibility pedestrian crossing: the DS-2 geometry under a
  degraded camera detector (fog/low-light: shorter detection range, noisier
  boxes, more frequent misdetection bursts) with a correspondingly slower EV.

Scenarios register themselves with the :func:`register_scenario` decorator,
which files each builder in a plain module dict keyed by scenario id —
downstream projects can plug in new scenarios (``@register_scenario("DS-8")``)
without touching this module, and every registered scenario is runnable
through :func:`repro.experiments.campaign.run_campaign`.

Each scenario builder accepts a :class:`ScenarioVariation` that randomizes the
initial conditions (speeds, gaps, pedestrian timing) so that campaigns of
independent runs can be generated from seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.geometry import Vec2
from repro.sim.actors import ActorDimensions, ActorKind, EgoVehicle, ScriptedActor
from repro.sim.road import Road
from repro.sim.waypoints import Waypoint, WaypointRoute
from repro.sim.world import World
from repro.utils.units import kph_to_mps

if TYPE_CHECKING:  # pragma: no cover - the sensing stack imports sim.actors,
    # so importing it back here at runtime would be circular.
    from repro.perception.detection import DetectorConfig
    from repro.perception.fusion import FusionConfig

__all__ = [
    "VARIATION_SAMPLING_RANGES",
    "ScenarioVariation",
    "DrivingScenario",
    "ScenarioBuilder",
    "register_scenario",
    "build_scenario",
    "list_scenario_ids",
    "scenario_catalog",
]

#: Longitudinal coordinate (m) at which the ego vehicle starts in every scenario.
_EGO_START_X = 0.0
#: Default cruise speed of the EV (paper: 45 kph unless otherwise specified).
_DEFAULT_CRUISE_KPH = 45.0


#: Uniform ranges the Monte-Carlo campaigns draw each variation field from
#: (``ScenarioVariation.sample``).  The sweep engine's default parameter
#: space (:func:`repro.sim.sweeps.default_variation_space`) is built from
#: this same table, so systematic sweeps cover exactly the volume the random
#: campaigns sample — adjust a range here and both stay in step.
VARIATION_SAMPLING_RANGES: Dict[str, tuple] = {
    "ego_speed_scale": (0.95, 1.05),
    "lead_gap_offset_m": (-8.0, 8.0),
    "lead_speed_offset_mps": (-0.8, 0.8),
    "pedestrian_delay_s": (0.0, 1.5),
    "pedestrian_speed_scale": (0.9, 1.15),
}


@dataclass(frozen=True)
class ScenarioVariation:
    """Per-run randomization of a scenario's initial conditions."""

    ego_speed_scale: float = 1.0
    lead_gap_offset_m: float = 0.0
    lead_speed_offset_mps: float = 0.0
    pedestrian_delay_s: float = 0.0
    pedestrian_speed_scale: float = 1.0
    npc_seed: int = 0

    def __post_init__(self) -> None:
        # Sweeps and manifests carry any value: reject what no scenario
        # builder can build before anything runs or is stored.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value!r}")
        for name in ("ego_speed_scale", "pedestrian_speed_scale", "pedestrian_delay_s",
                     "npc_seed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @staticmethod
    def sample(rng: np.random.Generator) -> "ScenarioVariation":
        """Draw a random variation (used by experiment campaigns)."""
        ranges = VARIATION_SAMPLING_RANGES
        return ScenarioVariation(
            ego_speed_scale=float(rng.uniform(*ranges["ego_speed_scale"])),
            lead_gap_offset_m=float(rng.uniform(*ranges["lead_gap_offset_m"])),
            lead_speed_offset_mps=float(rng.uniform(*ranges["lead_speed_offset_mps"])),
            pedestrian_delay_s=float(rng.uniform(*ranges["pedestrian_delay_s"])),
            pedestrian_speed_scale=float(rng.uniform(*ranges["pedestrian_speed_scale"])),
            npc_seed=int(rng.integers(0, 2**31 - 1)),
        )

    @staticmethod
    def nominal() -> "ScenarioVariation":
        """The unperturbed scenario (useful for golden-run tests)."""
        return ScenarioVariation()


@dataclass
class DrivingScenario:
    """A fully-instantiated scenario ready to be simulated."""

    scenario_id: str
    description: str
    world: World
    road: Road
    cruise_speed_mps: float
    #: Actor id of the intended attack target (the TV or the pedestrian).
    target_actor_id: Optional[int]
    #: Kind of the intended attack target.
    target_kind: Optional[ActorKind]
    duration_s: float
    #: Additional scenario metadata (initial gaps etc.), for logging.
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Detector override for degraded-sensing scenarios (``None`` = default).
    detector_config: Optional["DetectorConfig"] = None
    #: Fusion-policy override for fusion-variant victims (``None`` = the
    #: default late-fusion policy).
    fusion_config: Optional["FusionConfig"] = None


#: Signature every registered scenario builder must satisfy.
ScenarioBuilder = Callable[[ScenarioVariation], DrivingScenario]

#: Scenario id -> builder, and scenario id -> its one-line catalog
#: description; :func:`register_scenario` fills both.
_SCENARIOS: Dict[str, ScenarioBuilder] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_scenario(
    scenario_id: str, *, description: str = ""
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register the decorated builder in the scenario catalog under ``scenario_id``.

    Without a ``description`` the catalog shows the first line of the
    builder's docstring.  A taken id raises ``KeyError``, so a typo cannot
    silently shadow a scenario.

    >>> @register_scenario("DS-8")
    ... def _build_ds8(variation: ScenarioVariation) -> DrivingScenario:
    ...     ...
    """

    def register(builder: ScenarioBuilder) -> ScenarioBuilder:
        if scenario_id in _SCENARIOS:
            raise KeyError(f"driving scenario {scenario_id!r} is already registered")
        _SCENARIOS[scenario_id] = builder
        doc = (builder.__doc__ or "").strip()
        _DESCRIPTIONS[scenario_id] = description or doc.split("\n", 1)[0]
        return builder

    return register


def list_scenario_ids() -> List[str]:
    """The identifiers of all registered driving scenarios, sorted."""
    return sorted(_SCENARIOS)


def scenario_catalog() -> Dict[str, str]:
    """Mapping of scenario id to its one-line description, sorted by id."""
    return {scenario_id: _DESCRIPTIONS[scenario_id] for scenario_id in list_scenario_ids()}


def build_scenario(
    scenario_id: str, variation: ScenarioVariation | None = None
) -> DrivingScenario:
    """Instantiate a driving scenario by id with the given variation."""
    try:
        builder = _SCENARIOS[scenario_id]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario_id!r}; available: {list_scenario_ids()}"
        ) from None
    return builder(variation or ScenarioVariation.nominal())


def _make_ego(speed_mps: float) -> EgoVehicle:
    return EgoVehicle(position=Vec2(_EGO_START_X, 0.0), speed_mps=speed_mps)


@register_scenario("DS-1", description="EV follows a target vehicle in its lane")
def _build_ds1(variation: ScenarioVariation) -> DrivingScenario:
    """DS-1: EV follows a constant-speed target vehicle in the ego lane."""
    road = Road()
    cruise = kph_to_mps(_DEFAULT_CRUISE_KPH) * variation.ego_speed_scale
    tv_speed = max(1.0, kph_to_mps(25.0) + variation.lead_speed_offset_mps)
    start_gap = 60.0 + variation.lead_gap_offset_m
    ego = _make_ego(speed_mps=cruise)
    tv_start = Vec2(_EGO_START_X + start_gap, 0.0)
    tv_route = WaypointRoute.straight_line(
        start=tv_start, end=Vec2(tv_start.x + 1500.0, 0.0), speed_mps=tv_speed
    )
    target = ScriptedActor(ActorKind.VEHICLE, tv_route, ActorDimensions.suv(), name="target-vehicle")
    world = World(ego=ego, actors=[target], road=road)
    return DrivingScenario(
        scenario_id="DS-1",
        description="EV follows a target vehicle cruising at 25 kph, starting 60 m ahead",
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=target.actor_id,
        target_kind=ActorKind.VEHICLE,
        duration_s=35.0,
        metadata={"initial_gap_m": start_gap, "tv_speed_mps": tv_speed},
    )


def _pedestrian_crossing_scenario(
    variation: ScenarioVariation,
    scenario_id: str,
    description: str,
    crossing_x_nominal: float,
    cruise_kph: float,
    pedestrian_name: str,
    detector_config: Optional["DetectorConfig"] = None,
) -> DrivingScenario:
    """Shared geometry of the pedestrian-crossing scenarios (DS-2, DS-7)."""
    road = Road()
    cruise = kph_to_mps(cruise_kph) * variation.ego_speed_scale
    ego = _make_ego(speed_mps=cruise)
    crossing_x = crossing_x_nominal + variation.lead_gap_offset_m
    walk_speed = 1.4 * variation.pedestrian_speed_scale
    start_y, end_y = -6.0, 6.0
    route = WaypointRoute(
        [
            Waypoint(position=Vec2(crossing_x, start_y), speed_mps=0.0,
                     hold_s=variation.pedestrian_delay_s),
            Waypoint(position=Vec2(crossing_x, end_y), speed_mps=walk_speed),
        ]
    )
    pedestrian = ScriptedActor(ActorKind.PEDESTRIAN, route, name=pedestrian_name)
    world = World(ego=ego, actors=[pedestrian], road=road)
    return DrivingScenario(
        scenario_id=scenario_id,
        description=description,
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=pedestrian.actor_id,
        target_kind=ActorKind.PEDESTRIAN,
        duration_s=25.0,
        metadata={"crossing_x_m": crossing_x, "walk_speed_mps": walk_speed},
        detector_config=detector_config,
    )


@register_scenario("DS-2", description="A pedestrian illegally crosses ahead of the EV")
def _build_ds2(variation: ScenarioVariation) -> DrivingScenario:
    """DS-2: a pedestrian illegally crosses the street ahead of the EV."""
    return _pedestrian_crossing_scenario(
        variation,
        scenario_id="DS-2",
        description="A pedestrian illegally crosses the street in front of the EV",
        crossing_x_nominal=85.0,
        cruise_kph=_DEFAULT_CRUISE_KPH,
        pedestrian_name="crossing-pedestrian",
    )


@register_scenario("DS-3", description="A target vehicle is parked in the parking lane")
def _build_ds3(variation: ScenarioVariation) -> DrivingScenario:
    """DS-3: a target vehicle is parked in the parking lane."""
    road = Road()
    cruise = kph_to_mps(_DEFAULT_CRUISE_KPH) * variation.ego_speed_scale
    ego = _make_ego(speed_mps=cruise)
    parked_x = 110.0 + variation.lead_gap_offset_m
    parked_y = road.lane("parking").center_y
    parked = ScriptedActor(
        ActorKind.VEHICLE,
        WaypointRoute.stationary(Vec2(parked_x, parked_y)),
        ActorDimensions.sedan(),
        name="parked-vehicle",
    )
    world = World(ego=ego, actors=[parked], road=road)
    return DrivingScenario(
        scenario_id="DS-3",
        description="A target vehicle is parked on the side of the street in the parking lane",
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=parked.actor_id,
        target_kind=ActorKind.VEHICLE,
        duration_s=20.0,
        metadata={"parked_x_m": parked_x},
    )


@register_scenario("DS-4", description="A pedestrian walks towards the EV in the parking lane")
def _build_ds4(variation: ScenarioVariation) -> DrivingScenario:
    """DS-4: a pedestrian walks towards the EV in the parking lane, then stops."""
    road = Road()
    cruise = kph_to_mps(_DEFAULT_CRUISE_KPH) * variation.ego_speed_scale
    ego = _make_ego(speed_mps=cruise)
    walk_speed = 1.4 * variation.pedestrian_speed_scale
    ped_start_x = 120.0 + variation.lead_gap_offset_m
    ped_y = road.lane("parking").center_y + 0.8
    route = WaypointRoute(
        [
            Waypoint(position=Vec2(ped_start_x, ped_y), speed_mps=0.0,
                     hold_s=variation.pedestrian_delay_s),
            Waypoint(position=Vec2(ped_start_x - 5.0, ped_y), speed_mps=walk_speed,
                     hold_s=1e6),
        ]
    )
    pedestrian = ScriptedActor(ActorKind.PEDESTRIAN, route, name="walking-pedestrian")
    world = World(ego=ego, actors=[pedestrian], road=road)
    return DrivingScenario(
        scenario_id="DS-4",
        description=(
            "A pedestrian walks longitudinally towards the EV in the parking lane "
            "for 5 m and then stands still"
        ),
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=pedestrian.actor_id,
        target_kind=ActorKind.PEDESTRIAN,
        duration_s=20.0,
        metadata={"ped_start_x_m": ped_start_x},
    )


@register_scenario("DS-5", description="EV follows a target vehicle among random traffic")
def _build_ds5(variation: ScenarioVariation) -> DrivingScenario:
    """DS-5: the EV follows a target vehicle among other random-traffic vehicles."""
    road = Road()
    rng = np.random.default_rng(variation.npc_seed)
    cruise = kph_to_mps(_DEFAULT_CRUISE_KPH) * variation.ego_speed_scale
    ego = _make_ego(speed_mps=cruise)
    tv_speed = max(1.0, kph_to_mps(25.0) + variation.lead_speed_offset_mps)
    start_gap = 60.0 + variation.lead_gap_offset_m
    tv_start = Vec2(_EGO_START_X + start_gap, 0.0)
    target = ScriptedActor(
        ActorKind.VEHICLE,
        WaypointRoute.straight_line(tv_start, Vec2(tv_start.x + 1500.0, 0.0), tv_speed),
        ActorDimensions.suv(),
        name="target-vehicle",
    )
    actors: List[ScriptedActor] = [target]
    opposite_y = road.lane("opposite").center_y
    n_npcs = int(rng.integers(2, 5))
    for npc_index in range(n_npcs):
        npc_speed = float(rng.uniform(kph_to_mps(20.0), kph_to_mps(50.0)))
        npc_start_x = float(rng.uniform(80.0, 400.0))
        # Oncoming traffic in the opposite lane drives towards the EV.
        npc_route = WaypointRoute.straight_line(
            start=Vec2(npc_start_x, opposite_y),
            end=Vec2(npc_start_x - 1500.0, opposite_y),
            speed_mps=npc_speed,
        )
        actors.append(
            ScriptedActor(ActorKind.VEHICLE, npc_route, name=f"npc-vehicle-{npc_index}")
        )
    # Background traffic in the ego lane far ahead of the target vehicle and
    # behind the EV (paper: "as well as in front or behind").  These actors
    # rarely interact with the EV but are legitimate targets for the random
    # baseline attack.
    far_ahead_speed = kph_to_mps(40.0)
    actors.append(
        ScriptedActor(
            ActorKind.VEHICLE,
            WaypointRoute.straight_line(
                Vec2(tv_start.x + 220.0, 0.0), Vec2(tv_start.x + 1700.0, 0.0), far_ahead_speed
            ),
            name="npc-vehicle-far-ahead",
        )
    )
    actors.append(
        ScriptedActor(
            ActorKind.VEHICLE,
            WaypointRoute.straight_line(
                Vec2(_EGO_START_X - 40.0, 0.0), Vec2(_EGO_START_X + 1400.0, 0.0), kph_to_mps(20.0)
            ),
            name="npc-vehicle-behind",
        )
    )
    world = World(ego=ego, actors=actors, road=road)
    return DrivingScenario(
        scenario_id="DS-5",
        description="EV follows a target vehicle among other vehicles with random trajectories",
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=target.actor_id,
        target_kind=ActorKind.VEHICLE,
        duration_s=35.0,
        metadata={"n_npcs": float(n_npcs), "initial_gap_m": start_gap},
    )


@register_scenario("DS-6", description="A faster vehicle cuts into the platoon gap ahead of the EV")
def _build_ds6(variation: ScenarioVariation) -> DrivingScenario:
    """DS-6: multi-vehicle platoon cut-in (acc_verifai-style ACC scenario).

    The EV follows a two-vehicle platoon cruising at 25 kph.  A faster vehicle
    approaches in the opposite lane, merges diagonally into the gap between the
    EV and the platoon tail, and settles to platoon speed — the classic ACC
    cut-in stressor.  The cut-in vehicle is the intended attack target: once it
    occupies the ego lane it is a candidate for `Disappear` / `Move_Out`.
    """
    road = Road()
    cruise = kph_to_mps(_DEFAULT_CRUISE_KPH) * variation.ego_speed_scale
    ego = _make_ego(speed_mps=cruise)
    platoon_speed = max(1.0, kph_to_mps(25.0) + variation.lead_speed_offset_mps)
    tail_gap = 85.0 + variation.lead_gap_offset_m
    tail_start = Vec2(_EGO_START_X + tail_gap, 0.0)
    platoon_tail = ScriptedActor(
        ActorKind.VEHICLE,
        WaypointRoute.straight_line(tail_start, Vec2(tail_start.x + 1500.0, 0.0), platoon_speed),
        ActorDimensions.suv(),
        name="platoon-tail",
    )
    platoon_lead = ScriptedActor(
        ActorKind.VEHICLE,
        WaypointRoute.straight_line(
            Vec2(tail_start.x + 18.0, 0.0), Vec2(tail_start.x + 1518.0, 0.0), platoon_speed
        ),
        ActorDimensions.sedan(),
        name="platoon-lead",
    )
    # The cutter starts beside/ahead of the EV in the opposite lane, merges
    # into the ego lane well ahead of the EV, and decelerates to platoon
    # speed.  The merge point leaves the EV a DS-1-like following gap at
    # merge completion (the EV covers ~30 m while the cutter crosses over),
    # so a benign run ends in ordinary car following, not a crash — the
    # hazard must come from the attack, not the geometry.
    opposite_y = road.lane("opposite").center_y
    merge_speed = max(platoon_speed + 3.0, kph_to_mps(40.0))
    merge_x = _EGO_START_X + 90.0 + 0.5 * variation.lead_gap_offset_m
    cutter_route = WaypointRoute(
        [
            Waypoint(position=Vec2(merge_x - 25.0, opposite_y), speed_mps=merge_speed),
            Waypoint(position=Vec2(merge_x, 0.0), speed_mps=merge_speed),
            Waypoint(position=Vec2(merge_x + 40.0, 0.0), speed_mps=platoon_speed),
            Waypoint(position=Vec2(merge_x + 1500.0, 0.0), speed_mps=platoon_speed),
        ]
    )
    cutter = ScriptedActor(
        ActorKind.VEHICLE, cutter_route, ActorDimensions.sedan(), name="cut-in-vehicle"
    )
    world = World(ego=ego, actors=[platoon_tail, platoon_lead, cutter], road=road)
    return DrivingScenario(
        scenario_id="DS-6",
        description=(
            "EV follows a two-vehicle platoon while a faster vehicle cuts in "
            "from the opposite lane and settles to platoon speed"
        ),
        world=world,
        road=road,
        cruise_speed_mps=cruise,
        target_actor_id=cutter.actor_id,
        target_kind=ActorKind.VEHICLE,
        duration_s=35.0,
        metadata={
            "platoon_gap_m": tail_gap,
            "platoon_speed_mps": platoon_speed,
            "merge_x_m": merge_x,
        },
    )


def _degraded_detector_config() -> "DetectorConfig":
    """A fog/low-light detector: noisier boxes, longer bursts, shorter range.

    Expressed through the same :class:`DetectorDegradation` factors the sweep
    engine exposes as its ``detector.*`` axes, so DS-7's fixed fog level is
    one point of the sweepable degradation space.  ``range_scale=2`` halves
    the usable detection range: objects must appear twice as tall in the
    image before the detector reports them.
    """
    from repro.perception.detection import DetectorDegradation

    return DetectorDegradation(
        sigma_scale=1.5, misdetection_scale=4.0, burst_scale=1.25, range_scale=2.0
    ).apply()


@register_scenario("DS-7", description="Pedestrian crossing in fog with a degraded detector")
def _build_ds7(variation: ScenarioVariation) -> DrivingScenario:
    """DS-7: low-visibility pedestrian crossing with a degraded camera detector.

    The DS-2 geometry under fog/low-light sensing: the simulated detector
    reports objects later (shorter range), with wider centre noise and more
    frequent misdetection bursts, and the EV cruises slower (35 kph), as a
    human-supervised deployment would in fog.  Degraded sensing both masks the
    attacker's perturbations inside a noisier baseline and leaves the ADS less
    margin to recover.
    """
    return _pedestrian_crossing_scenario(
        variation,
        scenario_id="DS-7",
        description=(
            "A pedestrian crosses ahead of the EV in fog: the camera detector "
            "sees late, noisily, and with frequent misdetection bursts"
        ),
        crossing_x_nominal=75.0,
        cruise_kph=35.0,
        pedestrian_name="fog-crossing-pedestrian",
        detector_config=_degraded_detector_config(),
    )
