"""Adaptive samplers: propose/observe strategies over a :class:`ParameterSpace`.

The blind sweep samplers (:mod:`repro.sim.sweeps`) draw every point up front;
an *adaptive* sampler closes the loop — it proposes a batch, watches the
objective scores that come back from the simulator, and steers the next batch
toward the attack-success boundary.  The protocol is deliberately tiny:

* :meth:`AdaptiveSampler.propose` returns ``n`` assignments (axis path ->
  value, the same shape the sweep engine expands into campaigns);
* :meth:`AdaptiveSampler.observe` feeds back one score per proposed
  assignment (higher = closer to falsification);
* :meth:`AdaptiveSampler.state_dict` / :meth:`AdaptiveSampler.load_state_dict`
  round-trip the complete sampler state — including the RNG stream and the
  units of a proposed-but-unobserved batch — through JSON, which is what
  makes a killed search resume *bit-identically* from its checkpoint.

Built-ins (:data:`SEARCH_SAMPLERS`, the names ``--sampler`` accepts):

* ``random`` — the non-adaptive control: i.i.d. uniform draws whose first
  batch is bit-identical to ``ParameterSpace.random`` at the same seed (the
  golden bridge to plain sweeps);
* ``ce`` — cross-entropy: per-axis elite-quantile refitting (Gaussian over
  the unit interval for :class:`~repro.sim.sweeps.Uniform` axes, categorical
  for :class:`~repro.sim.sweeps.Choice` axes), the ``verifaiSamplerType =
  'ce'`` idiom of the VerifAI scenic files;
* ``ucb`` / ``thompson`` — bandit budget allocators over discrete arms
  (the cartesian product of the Choice axes, or strata of the first axis when
  the space is fully continuous), steering runs toward the arms where attack
  success is most uncertain (MAB-Malware's action-selection shape).

All samplers draw through the space's public unit-cube bridge
(:meth:`~repro.sim.sweeps.ParameterSpace.sample_from`) — none reaches into
sweep internals.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.sim.sweeps import Assignment, Choice, ParameterSpace, Uniform

__all__ = [
    "AdaptiveSampler",
    "RandomSearchSampler",
    "CrossEntropySampler",
    "BanditSampler",
    "SEARCH_SAMPLERS",
]


@runtime_checkable
class AdaptiveSampler(Protocol):
    """The closed-loop sampling protocol (see module docstring)."""

    #: The sampler's :data:`SEARCH_SAMPLERS` name (recorded in search manifests).
    name: str

    def propose(self, n: int) -> List[Assignment]:
        """Draw the next batch of ``n`` assignments to evaluate."""
        ...

    def observe(self, assignments: Sequence[Assignment], scores: Sequence[float]) -> None:
        """Feed back the objective scores of the *latest* proposed batch.

        ``assignments`` must be the batch :meth:`propose` returned (same
        order); ``scores`` align positionally, higher = closer to violation.
        """
        ...

    def state_dict(self) -> Dict[str, object]:
        """The complete, JSON-serializable sampler state."""
        ...

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output bit-identically."""
        ...


def _rng_state(rng: np.random.Generator) -> Dict[str, object]:
    return rng.bit_generator.state


def _restore_rng(state: Dict[str, object]) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def _check_batch(
    pending: Optional[List[List[float]]],
    assignments: Sequence[Assignment],
    scores: Sequence[float],
) -> None:
    if pending is None:
        raise RuntimeError("observe() called before propose()")
    if len(assignments) != len(pending) or len(scores) != len(pending):
        raise ValueError(
            f"observe() batch mismatch: proposed {len(pending)} points, "
            f"got {len(assignments)} assignments / {len(scores)} scores"
        )


class RandomSearchSampler:
    """The non-adaptive control: i.i.d. uniform draws from the space.

    The first ``propose(n)`` after construction is bit-identical to
    ``space.random(n, seed)`` — the bridge that lets a golden test pin
    ``repro-campaign search --sampler random`` to plain ``sweep`` output.
    Later batches simply continue the same RNG stream.
    """

    name = "random"

    def __init__(self, space: ParameterSpace, seed: int = 0):
        self.space = space
        self._rng = np.random.default_rng(seed)
        self._pending: Optional[List[List[float]]] = None

    def propose(self, n: int) -> List[Assignment]:
        units = self._rng.uniform(size=(n, len(self.space)))
        self._pending = units.tolist()
        return self.space.sample_from(units)

    def observe(self, assignments: Sequence[Assignment], scores: Sequence[float]) -> None:
        _check_batch(self._pending, assignments, scores)
        self._pending = None

    def state_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rng": _rng_state(self._rng),
            "pending": self._pending,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._rng = _restore_rng(state["rng"])  # type: ignore[arg-type]
        self._pending = state["pending"]  # type: ignore[assignment]


class CrossEntropySampler:
    """Cross-entropy search: refit elite-quantile distributions per axis.

    The sampler maintains an independent proposal distribution per axis in
    unit-cube space: a (mean, sigma) Gaussian for :class:`Uniform` axes
    (draws clipped to ``[0, 1]``) and a categorical over values for
    :class:`Choice` axes.  After each batch, the elite fraction (top
    ``elite_frac`` by score) refits the distributions with exponential
    smoothing — the textbook CE loop, and the ``verifaiSamplerType = 'ce'``
    idiom of the VerifAI scenic files.

    ``min_sigma`` floors the Gaussian widths so the search keeps exploring
    instead of collapsing onto a point estimate; ``smoothing`` blends the
    refit toward the previous parameters (1.0 = replace outright).
    """

    name = "ce"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        elite_frac: float = 0.25,
        smoothing: float = 0.7,
        min_sigma: float = 0.03,
        init_sigma: float = 0.35,
    ):
        if not 0.0 < elite_frac <= 1.0:
            raise ValueError("elite_frac must be in (0, 1]")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        for name, sigma in (("min_sigma", min_sigma), ("init_sigma", init_sigma)):
            if not 0.0 < sigma < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {sigma!r}")
        self.space = space
        self.elite_frac = float(elite_frac)
        self.smoothing = float(smoothing)
        self.min_sigma = float(min_sigma)
        self._rng = np.random.default_rng(seed)
        self._paths = space.paths()
        self._means: Dict[str, float] = {}
        self._sigmas: Dict[str, float] = {}
        self._probs: Dict[str, List[float]] = {}
        for path in self._paths:
            spec = space.spec(path)
            if isinstance(spec, Uniform):
                self._means[path] = 0.5
                self._sigmas[path] = float(init_sigma)
            else:
                k = len(spec.values)
                self._probs[path] = [1.0 / k] * k
        self._pending: Optional[List[List[float]]] = None
        self.iterations_observed = 0

    # ------------------------------------------------------------------ #

    def propose(self, n: int) -> List[Assignment]:
        columns: List[np.ndarray] = []
        for path in self._paths:
            spec = self.space.spec(path)
            if isinstance(spec, Uniform):
                draws = self._rng.normal(self._means[path], self._sigmas[path], size=n)
                columns.append(np.clip(draws, 0.0, 1.0))
            else:
                k = len(spec.values)
                categories = self._rng.choice(k, size=n, p=np.asarray(self._probs[path]))
                # Category j maps back through the unit interval's j-th cell
                # midpoint, so Choice.value_at recovers exactly values[j].
                columns.append((categories + 0.5) / k)
        units = np.column_stack(columns) if columns else np.empty((n, 0))
        self._pending = units.tolist()
        return self.space.sample_from(units)

    def observe(self, assignments: Sequence[Assignment], scores: Sequence[float]) -> None:
        _check_batch(self._pending, assignments, scores)
        units = np.asarray(self._pending, dtype=np.float64)
        values = np.asarray(scores, dtype=np.float64)
        n_elite = max(1, int(round(self.elite_frac * len(values))))
        # Stable selection: ties broken by proposal order, so the elite set
        # (and thus the refit state) is identical across resumes.
        elite_rows = np.argsort(-values, kind="stable")[:n_elite]
        elites = units[elite_rows]
        alpha = self.smoothing
        for column, path in enumerate(self._paths):
            spec = self.space.spec(path)
            if isinstance(spec, Uniform):
                mean = float(np.mean(elites[:, column]))
                sigma = float(np.std(elites[:, column]))
                self._means[path] = alpha * mean + (1 - alpha) * self._means[path]
                self._sigmas[path] = max(
                    self.min_sigma, alpha * sigma + (1 - alpha) * self._sigmas[path]
                )
            else:
                k = len(spec.values)
                categories = np.minimum((elites[:, column] * k).astype(int), k - 1)
                counts = np.bincount(categories, minlength=k).astype(np.float64)
                freshly = counts / counts.sum()
                old = np.asarray(self._probs[path])
                blended = alpha * freshly + (1 - alpha) * old
                self._probs[path] = (blended / blended.sum()).tolist()
        self._pending = None
        self.iterations_observed += 1

    # ------------------------------------------------------------------ #

    def distribution(self, path: str) -> Dict[str, object]:
        """The current proposal distribution of one axis (for reports)."""
        spec = self.space.spec(path)
        if isinstance(spec, Uniform):
            return {"mean": self._means[path], "sigma": self._sigmas[path]}
        return {"probs": list(self._probs[path])}

    def state_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rng": _rng_state(self._rng),
            "means": dict(self._means),
            "sigmas": dict(self._sigmas),
            "probs": {path: list(probs) for path, probs in self._probs.items()},
            "pending": self._pending,
            "iterations_observed": self.iterations_observed,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self._rng = _restore_rng(state["rng"])  # type: ignore[arg-type]
        self._means = {path: float(v) for path, v in state["means"].items()}  # type: ignore[union-attr]
        self._sigmas = {path: float(v) for path, v in state["sigmas"].items()}  # type: ignore[union-attr]
        self._probs = {
            path: [float(p) for p in probs]
            for path, probs in state["probs"].items()  # type: ignore[union-attr]
        }
        self._pending = state["pending"]  # type: ignore[assignment]
        self.iterations_observed = int(state["iterations_observed"])


class BanditSampler:
    """UCB / Thompson budget allocation over discrete arms of the space.

    Arms are the cartesian product of the :class:`Choice` axes (a scenario
    list, fusion policies, ...); within an arm, the continuous axes draw
    uniformly.  When the space has no Choice axis, the *first* axis is
    discretized into ``bins`` equal strata so a fully continuous space still
    yields a meaningful arm structure.

    ``mode="ucb"`` allocates each proposal to the arm maximizing the UCB1
    index ``mean + c * sqrt(2 ln N / n)`` (unplayed arms first);
    ``mode="thompson"`` samples a Beta posterior per arm — scores in
    ``[0, 1]`` update the posterior fractionally (``a += score``,
    ``b += 1 - score``), so rate-valued objectives need no binarization.
    Both concentrate the run budget where attack success is still uncertain.
    """

    name = "bandit"

    def __init__(
        self,
        space: ParameterSpace,
        seed: int = 0,
        mode: str = "ucb",
        exploration: float = 1.0,
        bins: int = 8,
    ):
        if mode not in ("ucb", "thompson"):
            raise ValueError(f"unknown bandit mode {mode!r}: expected 'ucb' or 'thompson'")
        if bins < 2:
            raise ValueError("bins must be at least 2")
        if not 0.0 <= exploration < math.inf:
            raise ValueError(f"exploration must be non-negative and finite, got {exploration!r}")
        self.space = space
        self.mode = mode
        self.name = mode
        self.exploration = float(exploration)
        self.bins = int(bins)
        self._rng = np.random.default_rng(seed)
        self._paths = space.paths()
        self._choice_paths = [
            path for path in self._paths if isinstance(space.spec(path), Choice)
        ]
        if self._choice_paths:
            self._binned_path: Optional[str] = None
            sizes = [len(space.spec(path).values) for path in self._choice_paths]
            self._arms: List[Tuple[int, ...]] = [
                combo for combo in itertools.product(*(range(size) for size in sizes))
            ]
        else:
            self._binned_path = self._paths[0]
            self._arms = [(index,) for index in range(self.bins)]
        n_arms = len(self._arms)
        self._counts = [0] * n_arms
        self._score_sums = [0.0] * n_arms
        self._alpha = [1.0] * n_arms
        self._beta = [1.0] * n_arms
        self._pending: Optional[List[List[float]]] = None
        self._pending_arms: Optional[List[int]] = None

    # ------------------------------------------------------------------ #

    @property
    def n_arms(self) -> int:
        return len(self._arms)

    def arm_label(self, arm_index: int) -> Dict[str, object]:
        """Human-readable description of an arm (for reports)."""
        combo = self._arms[arm_index]
        if self._binned_path is not None:
            low = combo[0] / self.bins
            return {self._binned_path: f"[{low:.3f}, {low + 1.0 / self.bins:.3f})"}
        return {
            path: self.space.spec(path).values[value_index]
            for path, value_index in zip(self._choice_paths, combo)
        }

    def _select_arms(self, n: int) -> List[int]:
        counts = np.asarray(self._counts, dtype=np.float64)
        sums = np.asarray(self._score_sums, dtype=np.float64)
        picked: List[int] = []
        if self.mode == "ucb":
            for _ in range(n):
                total = counts.sum()
                with np.errstate(divide="ignore", invalid="ignore"):
                    means = np.where(counts > 0, sums / counts, 0.0)
                    bonus = self.exploration * np.sqrt(
                        2.0 * np.log(max(total, 1.0)) / counts
                    )
                index = np.where(
                    counts == 0, np.inf, means + np.where(counts > 0, bonus, 0.0)
                )
                arm = int(np.argmax(index))
                picked.append(arm)
                # Provisional update within the batch: count the pull and
                # assume the arm's current mean repeats, so the shrinking
                # bonus spreads a batch across near-tied arms instead of
                # dumping every proposal on one argmax.
                counts[arm] += 1
                if counts[arm] > 1:
                    sums[arm] += sums[arm] / (counts[arm] - 1)
        else:
            for _ in range(n):
                draws = self._rng.beta(np.asarray(self._alpha), np.asarray(self._beta))
                picked.append(int(np.argmax(draws)))
        return picked

    def propose(self, n: int) -> List[Assignment]:
        arms = self._select_arms(n)
        units = np.empty((n, len(self._paths)), dtype=np.float64)
        for row, arm in enumerate(arms):
            combo = self._arms[arm]
            for column, path in enumerate(self._paths):
                spec = self.space.spec(path)
                if self._binned_path == path:
                    stratum = combo[0]
                    units[row, column] = (stratum + self._rng.uniform()) / self.bins
                elif isinstance(spec, Choice):
                    value_index = combo[self._choice_paths.index(path)]
                    units[row, column] = (value_index + 0.5) / len(spec.values)
                else:
                    units[row, column] = self._rng.uniform()
        self._pending = units.tolist()
        self._pending_arms = arms
        return self.space.sample_from(units)

    def observe(self, assignments: Sequence[Assignment], scores: Sequence[float]) -> None:
        _check_batch(self._pending, assignments, scores)
        assert self._pending_arms is not None
        for arm, score in zip(self._pending_arms, scores):
            value = float(min(max(score, 0.0), 1.0))
            self._counts[arm] += 1
            self._score_sums[arm] += value
            self._alpha[arm] += value
            self._beta[arm] += 1.0 - value
        self._pending = None
        self._pending_arms = None

    # ------------------------------------------------------------------ #

    def arm_statistics(self) -> List[Dict[str, object]]:
        """Per-arm pull counts and mean scores (for reports and tests)."""
        return [
            {
                "arm": self.arm_label(index),
                "pulls": self._counts[index],
                "mean_score": (
                    self._score_sums[index] / self._counts[index]
                    if self._counts[index]
                    else float("nan")
                ),
            }
            for index in range(self.n_arms)
        ]

    def state_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "mode": self.mode,
            "rng": _rng_state(self._rng),
            "counts": list(self._counts),
            "score_sums": list(self._score_sums),
            "alpha": list(self._alpha),
            "beta": list(self._beta),
            "pending": self._pending,
            "pending_arms": self._pending_arms,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if state.get("mode", self.mode) != self.mode:
            raise ValueError(
                f"checkpoint was written by a {state['mode']!r} bandit, "
                f"this sampler runs {self.mode!r}"
            )
        self._rng = _restore_rng(state["rng"])  # type: ignore[arg-type]
        self._counts = [int(v) for v in state["counts"]]  # type: ignore[union-attr]
        self._score_sums = [float(v) for v in state["score_sums"]]  # type: ignore[union-attr]
        self._alpha = [float(v) for v in state["alpha"]]  # type: ignore[union-attr]
        self._beta = [float(v) for v in state["beta"]]  # type: ignore[union-attr]
        self._pending = state["pending"]  # type: ignore[assignment]
        self._pending_arms = (
            [int(v) for v in state["pending_arms"]]  # type: ignore[union-attr]
            if state["pending_arms"] is not None
            else None
        )


#: Sampler name -> factory(space, seed, **options): the names ``--sampler``
#: and ``SearchSpec.sampler`` accept.
SEARCH_SAMPLERS: Dict[str, Callable[..., AdaptiveSampler]] = {
    "random": RandomSearchSampler,
    "ce": CrossEntropySampler,
    "ucb": lambda space, seed=0, **options: BanditSampler(space, seed, mode="ucb", **options),
    "thompson":
        lambda space, seed=0, **options: BanditSampler(space, seed, mode="thompson", **options),
}
