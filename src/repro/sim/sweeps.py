"""Parametric scenario sweeps: a declarative space over the perturbation grid.

The paper's evaluation samples :class:`~repro.sim.scenarios.ScenarioVariation`
uniformly at random (Monte-Carlo campaigns).  Systematic attack evaluation —
"how does the accident rate move as the initial gap closes?", "at which fog
density does the intrusion detector stop seeing the attack?" — needs the dual:
*chosen* points of the perturbation space, each evaluated as its own campaign.

A :class:`ParameterSpace` declares axes over four namespaces:

* ``variation.*``  — the :class:`ScenarioVariation` initial-condition fields
  (``variation.lead_gap_offset_m``, ``variation.ego_speed_scale``, ...);
* ``simulation.*`` — :class:`~repro.sim.config.SimulationConfig` fields
  (``simulation.halt_gap_m``, ``simulation.max_duration_s``, ...);
* ``detector.*``   — :class:`~repro.perception.detection.DetectorDegradation`
  factors (``detector.sigma_scale``, ``detector.range_scale``, ...), the
  fog/low-light axis of the DS-7 extension;
* ``fusion.*``     — :class:`~repro.perception.fusion.FusionConfig` fields,
  the fusion-policy victim variants (``fusion.policy=late,lidar_only``,
  ``fusion.camera_weight=0.3:0.9``, ``fusion.consistency_gate_m=0.5:2.5``)
  behind the defense-evaluation table
  (:func:`repro.experiments.tables.fusion_defense_from_store`).

Each axis is a :class:`Uniform` interval or a discrete :class:`Choice`, and
the space expands into concrete assignments through three samplers — full
:meth:`~ParameterSpace.grid`, seeded :meth:`~ParameterSpace.random`, and
:meth:`~ParameterSpace.latin_hypercube` (stratified: every axis is cut into
``n`` strata and each stratum is hit exactly once).  Assignments then expand
into :class:`~repro.experiments.campaign.CampaignConfig` batches via
:func:`expand_campaigns` / :func:`sweep_campaigns`, runnable through the
ordinary campaign runner and durably recordable in the experiment store
(``repro-campaign sweep`` wires all of this together).

Axes can also be declared as compact strings (the CLI syntax)::

    variation.lead_gap_offset_m=-8:8        # Uniform(-8, 8)
    variation.ego_speed_scale=0.9:1.1:5     # Uniform with 5 grid points
    simulation.halt_gap_m=3.0,4.0,5.0       # Choice of explicit values
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.perception.detection import DetectorDegradation
from repro.perception.fusion import FusionConfig
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import VARIATION_SAMPLING_RANGES, ScenarioVariation

if TYPE_CHECKING:  # pragma: no cover - type hints only (avoids a hard
    # sim -> experiments dependency at import time; see expand_campaigns)
    from repro.experiments.campaign import CampaignConfig

__all__ = [
    "Uniform",
    "Choice",
    "ParameterSpec",
    "ParameterSpace",
    "Assignment",
    "SeedLike",
    "DEFAULT_SWEEP_POINTS",
    "SAMPLERS",
    "parse_spec",
    "parse_axis",
    "default_variation_space",
    "expand_campaigns",
    "sweep_campaigns",
]

#: One sampled point of a parameter space: axis path -> concrete value.
Assignment = Dict[str, object]

#: Anything the stochastic samplers accept as a randomness source: an int
#: seed (a fresh ``default_rng(seed)`` per call, the historical behaviour)
#: or a live :class:`numpy.random.Generator` whose stream simply advances —
#: what adaptive samplers need to draw repeatedly without re-seeding.
SeedLike = Union[int, np.random.Generator]


def _resolve_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Uniform:
    """A continuous axis: values uniform over ``[low, high]``.

    ``grid_points`` is only consulted by the grid sampler (endpoints
    included); random and Latin-hypercube sampling draw from the continuum.
    """

    low: float
    high: float
    grid_points: int = 5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"Uniform needs finite bounds, got [{self.low}, {self.high}]")
        if not self.high > self.low:
            raise ValueError(f"Uniform needs high > low, got [{self.low}, {self.high}]")
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")

    def value_at(self, unit: float) -> float:
        """Map a unit-interval coordinate to a parameter value."""
        return float(self.low + (self.high - self.low) * unit)

    def grid_values(self) -> List[float]:
        return [float(v) for v in np.linspace(self.low, self.high, self.grid_points)]


@dataclass(frozen=True)
class Choice:
    """A discrete axis: one of an explicit tuple of values."""

    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("Choice needs at least one value")
        for value in self.values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"Choice values must be finite, got {value!r}")

    def value_at(self, unit: float) -> object:
        index = min(int(unit * len(self.values)), len(self.values) - 1)
        return self.values[index]

    def grid_values(self) -> List[object]:
        return list(self.values)


ParameterSpec = Union[Uniform, Choice]

#: Declared field types per axis namespace — names gate validation, types
#: drive coercion (a float sampled for an int field like
#: ``variation.npc_seed`` is rounded, not passed through to crash later).
_NAMESPACE_FIELDS: Dict[str, Dict[str, type]] = {
    "variation": typing.get_type_hints(ScenarioVariation),
    "simulation": typing.get_type_hints(SimulationConfig),
    "detector": typing.get_type_hints(DetectorDegradation),
    "fusion": typing.get_type_hints(FusionConfig),
}


def _coerce(namespace: str, name: str, value: object) -> object:
    declared = _NAMESPACE_FIELDS[namespace].get(name)
    if declared in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"axis {namespace}.{name} expects a number, got {value!r}"
            )
        return int(round(value)) if declared is int else float(value)
    return value


def _validate_path(path: str) -> None:
    namespace, dot, name = path.partition(".")
    if not dot or namespace not in _NAMESPACE_FIELDS:
        raise ValueError(
            f"axis {path!r} must be namespaced as one of "
            f"{sorted(ns + '.<field>' for ns in _NAMESPACE_FIELDS)}"
        )
    if name not in _NAMESPACE_FIELDS[namespace]:
        raise ValueError(
            f"unknown field {name!r} in namespace {namespace!r}; "
            f"choose from {sorted(_NAMESPACE_FIELDS[namespace])}"
        )


@dataclass(frozen=True)
class ParameterSpace:
    """A declarative, ordered set of sweep axes (path -> spec)."""

    axes: Mapping[str, ParameterSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a parameter space needs at least one axis")
        for path in self.axes:
            _validate_path(path)

    def __len__(self) -> int:
        return len(self.axes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.axes)

    # ------------------------------------------------------------------ #
    # Axis metadata — what adaptive samplers introspect
    # ------------------------------------------------------------------ #

    def paths(self) -> List[str]:
        """The axis paths in declaration order (the unit-cube column order)."""
        return list(self.axes)

    def spec(self, path: str) -> ParameterSpec:
        """The :class:`Uniform` / :class:`Choice` spec declared for an axis."""
        try:
            return self.axes[path]
        except KeyError:
            raise KeyError(
                f"unknown axis {path!r}; declared axes: {list(self.axes)}"
            ) from None

    # ------------------------------------------------------------------ #
    # Samplers
    # ------------------------------------------------------------------ #

    def grid(self) -> List[Assignment]:
        """The full cartesian product of every axis's grid values."""
        paths = list(self.axes)
        value_lists = [self.axes[path].grid_values() for path in paths]
        return [
            dict(zip(paths, combo)) for combo in itertools.product(*value_lists)
        ]

    def random(self, n: int, seed: SeedLike = 0) -> List[Assignment]:
        """``n`` independent uniform draws from the space.

        ``seed`` may be an int (a fresh generator per call, so equal seeds
        give equal draws) or a live :class:`numpy.random.Generator` whose
        stream advances across calls — the contract adaptive samplers rely on
        to interleave proposals without re-seed bookkeeping.
        """
        if n < 1:
            raise ValueError("n must be positive")
        rng = _resolve_rng(seed)
        units = rng.uniform(size=(n, len(self.axes)))
        return self.sample_from(units)

    def latin_hypercube(self, n: int, seed: SeedLike = 0) -> List[Assignment]:
        """``n`` Latin-hypercube samples: each axis stratified into ``n`` cells.

        Every axis is cut into ``n`` equal strata; each sample occupies a
        distinct stratum on every axis (independently permuted per axis), so
        the marginals cover their ranges evenly even for small ``n`` — the
        standard design for expensive simulation sweeps.  ``seed`` accepts an
        int or a live :class:`numpy.random.Generator` (see :meth:`random`).
        """
        if n < 1:
            raise ValueError("n must be positive")
        rng = _resolve_rng(seed)
        units = np.empty((n, len(self.axes)))
        for column in range(len(self.axes)):
            strata = rng.permutation(n)
            units[:, column] = (strata + rng.uniform(size=n)) / n
        return self.sample_from(units)

    def sample_from(self, units: np.ndarray) -> List[Assignment]:
        """Map unit-cube rows to concrete assignments (one row per point).

        ``units`` must be shaped ``(n_points, len(self))`` with every
        coordinate in ``[0, 1]``; columns follow :meth:`paths` order.  This is
        the public bridge for adaptive samplers (cross-entropy, bandits, RL)
        that maintain their own distributions in unit-cube space: they propose
        unit rows and the space owns the mapping onto axis values — without
        reaching into private internals.
        """
        units = np.asarray(units, dtype=np.float64)
        if units.ndim != 2 or units.shape[1] != len(self.axes):
            raise ValueError(
                f"units must be shaped (n_points, {len(self.axes)}), "
                f"got {units.shape}"
            )
        if units.size and not ((units >= 0.0) & (units <= 1.0)).all():
            raise ValueError("unit coordinates must lie in [0, 1]")
        paths = list(self.axes)
        return [
            {
                path: self.axes[path].value_at(float(row[column]))
                for column, path in enumerate(paths)
            }
            for row in units
        ]


#: Default number of sweep points for the stochastic samplers (random/lhs).
DEFAULT_SWEEP_POINTS = 50


def _grid_sampler(
    space: ParameterSpace, n: Optional[int], seed: Optional[int]
) -> List[Assignment]:
    """The full grid; warns when a requested ``n``/``seed`` cannot apply.

    A grid's size is structural — the product of its axes' grid points — so a
    requested point count or sampler seed is silently meaningless.  Surfacing
    the mismatch loudly keeps ``repro-campaign sweep --sampler grid -n 100``
    from running a different number of points than the user asked for with no
    indication why.
    """
    assignments = space.grid()
    if n is not None and n != len(assignments):
        warnings.warn(
            f"the grid sampler ignores n={n}: this space's grid has "
            f"{len(assignments)} points (the product of its axes' grid "
            "points); size it via Uniform(grid_points=...) / the "
            "low:high:points axis syntax, or use the random/lhs samplers "
            "for an exact point count",
            UserWarning,
            stacklevel=3,
        )
    if seed is not None:
        warnings.warn(
            "the grid sampler is deterministic and ignores the sampler seed",
            UserWarning,
            stacklevel=3,
        )
    return assignments


def _random_sampler(
    space: ParameterSpace, n: Optional[int], seed: Optional[int]
) -> List[Assignment]:
    return space.random(
        n if n is not None else DEFAULT_SWEEP_POINTS, seed if seed is not None else 0
    )


def _lhs_sampler(
    space: ParameterSpace, n: Optional[int], seed: Optional[int]
) -> List[Assignment]:
    return space.latin_hypercube(
        n if n is not None else DEFAULT_SWEEP_POINTS, seed if seed is not None else 0
    )


#: Sampler name -> callable(space, n, seed): the choices of ``sweep --sampler``.
#: ``n``/``seed`` may be ``None`` (defaulted); the grid sampler warns when
#: explicit values are passed that it cannot honour.
SAMPLERS = {
    "grid": _grid_sampler,
    "random": _random_sampler,
    "lhs": _lhs_sampler,
}


# ---------------------------------------------------------------------- #
# Compact string syntax (shared by the CLI and config files)
# ---------------------------------------------------------------------- #


def _parse_scalar(text: str) -> object:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text.strip()


def parse_spec(text: str) -> ParameterSpec:
    """Parse the compact axis syntax: ``low:high[:points]`` or ``v1,v2,...``."""
    text = text.strip()
    if not text:
        raise ValueError("empty axis specification")
    if "," in text:
        return Choice(tuple(_parse_scalar(part) for part in text.split(",")))
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            return Uniform(float(parts[0]), float(parts[1]))
        if len(parts) == 3:
            return Uniform(float(parts[0]), float(parts[1]), grid_points=int(parts[2]))
        raise ValueError(f"range axis must be low:high or low:high:points, got {text!r}")
    return Choice((_parse_scalar(text),))


def parse_axis(text: str) -> Tuple[str, ParameterSpec]:
    """Parse one ``path=spec`` CLI argument into a validated axis."""
    path, equals, spec = text.partition("=")
    if not equals:
        raise ValueError(f"axis {text!r} must look like name=spec (e.g. "
                         "variation.lead_gap_offset_m=-8:8)")
    path = path.strip()
    _validate_path(path)
    return path, parse_spec(spec)


def default_variation_space() -> ParameterSpace:
    """The Monte-Carlo sampling ranges of ``ScenarioVariation.sample`` as axes.

    The default space of ``repro-campaign sweep``: built from the same
    :data:`~repro.sim.scenarios.VARIATION_SAMPLING_RANGES` table the random
    campaigns draw from, so sweeping it systematically covers exactly the
    Monte-Carlo perturbation volume.
    """
    return ParameterSpace(
        {
            f"variation.{name}": Uniform(low, high)
            for name, (low, high) in VARIATION_SAMPLING_RANGES.items()
        }
    )


# ---------------------------------------------------------------------- #
# Expansion into campaign configs
# ---------------------------------------------------------------------- #


def _apply_assignment(
    base: "CampaignConfig", assignment: Assignment, campaign_id: str
) -> "CampaignConfig":
    updates: Dict[str, Dict[str, object]] = {
        "variation": {}, "simulation": {}, "detector": {}, "fusion": {},
    }
    for path, value in assignment.items():
        _validate_path(path)
        namespace, _, name = path.partition(".")
        updates[namespace][name] = _coerce(namespace, name, value)

    replacements: Dict[str, object] = {"campaign_id": campaign_id}
    if updates["variation"]:
        variation = base.variation or ScenarioVariation.nominal()
        replacements["variation"] = dataclasses.replace(variation, **updates["variation"])
    if updates["simulation"]:
        replacements["simulation"] = dataclasses.replace(
            base.simulation, **updates["simulation"]
        )
    if updates["detector"]:
        degradation = base.detector_degradation or DetectorDegradation()
        replacements["detector_degradation"] = dataclasses.replace(
            degradation, **updates["detector"]
        )
    if updates["fusion"]:
        # dataclasses.replace re-runs FusionConfig.__post_init__, so a swept
        # point with an invalid weight or unknown policy fails at expansion
        # time, before any simulation runs.
        fusion = base.fusion or FusionConfig()
        replacements["fusion"] = dataclasses.replace(fusion, **updates["fusion"])
    return dataclasses.replace(base, **replacements)


def expand_campaigns(
    base: "CampaignConfig", assignments: Sequence[Assignment]
) -> List["CampaignConfig"]:
    """Expand sampled assignments into one campaign config per sweep point.

    Each point clones ``base`` with its assignment applied on top (pinning
    the variation / degrading the detector / adjusting the simulation) and a
    distinct ``campaign_id`` suffix, so every point is independently seeded,
    cacheable, and addressable in the experiment store.
    """
    return [
        _apply_assignment(base, assignment, f"{base.campaign_id}-p{index:04d}")
        for index, assignment in enumerate(assignments)
    ]


def sweep_campaigns(
    base: "CampaignConfig",
    space: Optional[ParameterSpace] = None,
    sampler: str = "lhs",
    n: Optional[int] = None,
    seed: Optional[int] = None,
) -> List["CampaignConfig"]:
    """Sample a parameter space and expand it into campaign configs.

    ``space`` defaults to :func:`default_variation_space`; ``sampler`` is one
    of :data:`SAMPLERS`.  ``n`` and ``seed`` default to
    :data:`DEFAULT_SWEEP_POINTS` and 0 for the stochastic samplers; the grid
    sampler's size is structural (the product of the axes' grid points), so
    explicitly passing ``n`` or ``seed`` with ``sampler="grid"`` raises a
    :class:`UserWarning` on mismatch instead of being silently ignored.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; choose from {sorted(SAMPLERS)}")
    space = space or default_variation_space()
    assignments = SAMPLERS[sampler](space, n, seed)
    return expand_campaigns(base, assignments)
