"""The closed-loop falsification driver.

:class:`FalsificationLoop` turns the repo from a replay harness into an
attack-discovery system: each iteration it asks an
:class:`~repro.search.samplers.AdaptiveSampler` for a batch of parameter
assignments, expands them into campaigns (one per point, exactly like the
sweep engine), executes them through the ordinary runtime — serial or
parallel executors over lockstep batch-simulator lanes — scores the stored
run records with an :class:`~repro.search.objectives.Objective`, and feeds the
scores back so the next proposal moves toward the attack-success boundary.

Durability mirrors the model registry's content-addressed discipline.  A
search is addressed by the SHA-256 of its complete specification
(:func:`search_spec_hash`), and everything lives under the store root at
``searches/<search_hash>/``:

* ``manifest.json`` — the spec, written once;
* ``state.json`` — the resume checkpoint, atomically rewritten at two points
  per iteration: right *after* proposing (phase ``"proposed"``, carrying the
  pending assignments and the sampler state with its RNG already advanced)
  and right *after* observing (phase ``"observed"``);
* ``iterations.jsonl`` — one appended record per completed iteration (the
  material behind the ``search_report`` table).

Because the checkpoint is written before any simulation of an iteration
starts, a search killed mid-iteration — even with SIGKILL — resumes *without
re-proposing*: the pending batch is replayed verbatim, the store skips every
run already on disk, and the final sampler state is bit-identical to an
uninterrupted search.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.campaign import (
    DEFAULT_BATCH_SIZE,
    CampaignConfig,
    StoreLike,
    _check_engine,
    resolve_store,
    run_campaigns,
)
from repro.experiments.store import ExperimentStore, config_hash
from repro.runtime import ExecutorLike, resolve_executor
from repro.runtime.cache import encode_key
from repro.search.objectives import AttackSuccessRate, Objective, build_objective
from repro.search.samplers import AdaptiveSampler, build_search_sampler
from repro.sim.sweeps import Assignment, Choice, ParameterSpace, Uniform, expand_campaigns

__all__ = [
    "SearchSpec",
    "SearchResult",
    "FalsificationLoop",
    "search_spec_hash",
    "axes_to_json",
    "axes_from_json",
    "run_falsification_search",
]


def axes_to_json(space: ParameterSpace) -> Dict[str, Dict[str, object]]:
    """A JSON-safe rendering of a space's axes (search-manifest provenance)."""
    payload: Dict[str, Dict[str, object]] = {}
    for path in space.paths():
        spec = space.spec(path)
        if isinstance(spec, Uniform):
            payload[path] = {
                "kind": "uniform",
                "low": spec.low,
                "high": spec.high,
                "grid_points": spec.grid_points,
            }
        else:
            payload[path] = {"kind": "choice", "values": list(spec.values)}
    return payload


def axes_from_json(payload: Mapping[str, Mapping[str, object]]) -> ParameterSpace:
    """Invert :func:`axes_to_json` (how stored searches rebuild their space)."""
    axes: Dict[str, object] = {}
    for path, spec in payload.items():
        if spec["kind"] == "uniform":
            axes[path] = Uniform(
                float(spec["low"]), float(spec["high"]), int(spec["grid_points"])
            )
        elif spec["kind"] == "choice":
            axes[path] = Choice(tuple(spec["values"]))
        else:
            raise ValueError(f"unknown axis kind {spec['kind']!r} for {path!r}")
    return ParameterSpace(axes)


@dataclass(frozen=True)
class SearchSpec:
    """The complete, content-addressable specification of one search.

    ``base`` is the campaign template every proposed point clones
    (``base.n_runs`` seeded runs per point — the per-point sample size);
    ``budget_runs`` caps the *total* number of simulation runs the search may
    spend; ``batch_points`` is the proposal batch per iteration;
    ``target_score`` stops the search early once any point scores at or above
    it (``None`` = spend the whole budget).
    """

    base: CampaignConfig
    space: ParameterSpace
    sampler: str = "ce"
    objective: str = "attack_success"
    budget_runs: int = 300
    batch_points: int = 8
    seed: int = 0
    target_score: Optional[float] = None
    sampler_options: Mapping[str, object] = field(default_factory=dict)
    objective_options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_points < 1:
            raise ValueError("batch_points must be positive")
        if self.seed < 0:
            raise ValueError(f"search seed must be non-negative, got {self.seed}")
        if self.budget_runs < self.base.n_runs:
            raise ValueError(
                f"budget_runs={self.budget_runs} cannot fund a single point "
                f"({self.base.n_runs} runs per point)"
            )
        if self.target_score is not None and not 0.0 <= self.target_score <= 1.0:
            raise ValueError("target_score must lie in [0, 1]")
        # Every proposal lies inside the axes: check each axis's bounds and
        # choices against the base now, before a search writes its store.
        for path in self.space:
            axis = self.space.spec(path)
            values = (axis.low, axis.high) if isinstance(axis, Uniform) else axis.values
            for value in values:
                try:
                    expand_campaigns(self.base, [{path: value}])
                except ValueError as error:
                    raise ValueError(f"search axis {path} at {value!r}: {error}") from None

    def to_json_dict(self) -> Dict[str, object]:
        """The manifest payload (provenance; resume keys off the hash)."""
        return {
            "base": self.base.to_json_dict(),
            "base_config_hash": config_hash(self.base),
            "axes": axes_to_json(self.space),
            "sampler": self.sampler,
            "objective": self.objective,
            "budget_runs": self.budget_runs,
            "batch_points": self.batch_points,
            "seed": self.seed,
            "target_score": self.target_score,
            "sampler_options": dict(self.sampler_options),
            "objective_options": dict(self.objective_options),
        }


def search_spec_hash(spec: SearchSpec) -> str:
    """Content address of a search: SHA-256 over its canonical spec encoding.

    Two specs that could search differently never share a hash; the same
    logical spec hashes identically in every process — which is what lets
    ``repro-campaign search`` auto-resume by simply re-deriving the address.
    """
    key = (
        config_hash(spec.base),
        dict(spec.space.axes),
        spec.sampler,
        spec.objective,
        spec.budget_runs,
        spec.batch_points,
        spec.seed,
        spec.target_score,
        dict(spec.sampler_options),
        dict(spec.objective_options),
    )
    return hashlib.sha256(encode_key(key).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SearchPoint:
    """One evaluated point: the assignment, its campaign, and its score."""

    iteration: int
    point_index: int
    assignment: Assignment
    campaign_id: str
    config_hash: str
    n_runs: int
    score: float
    #: The point's attack-success rate, whatever the search's objective.
    success_rate: float


@dataclass
class SearchResult:
    """What a finished (or budget-exhausted) search found."""

    search_hash: str
    spec: SearchSpec
    iterations_completed: int
    runs_spent: int
    reached_target: bool
    best_score: float
    best_assignment: Optional[Assignment]
    best_config_hash: Optional[str]
    #: Every point of the final iteration at or above the elite threshold —
    #: the current estimate of the attack-success boundary region.
    elite_front: List[SearchPoint] = field(default_factory=list)
    points: List[SearchPoint] = field(default_factory=list)


class FalsificationLoop:
    """Drive one search spec to completion against an experiment store.

    ``executor`` / ``batch_size`` pass straight through to
    :func:`~repro.experiments.campaign.run_campaigns`, so a search fans out
    over worker processes and lockstep batch-simulator lanes exactly like a
    sweep does; ``engine`` accepts only ``"batch"``.  Construction is cheap;
    :meth:`run` does the work and may be called again after an interruption
    (it reloads the checkpoint).
    """

    def __init__(
        self,
        spec: SearchSpec,
        store: StoreLike,
        executor: ExecutorLike = None,
        engine: str = "batch",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        _check_engine(engine)
        resolved = resolve_store(store)
        if resolved is None:
            raise ValueError(
                "a falsification search needs an experiment store: the store "
                "carries its outcome feedback, checkpoints, and report"
            )
        self.spec = spec
        self.store: ExperimentStore = resolved
        self.executor = executor
        self.batch_size = batch_size
        self.search_hash = search_spec_hash(spec)
        self._elite_frac = float(
            spec.sampler_options.get("elite_frac", 0.25)  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------ #

    def _configs_for(
        self, iteration: int, assignments: Sequence[Assignment]
    ) -> List[CampaignConfig]:
        base = dataclasses.replace(
            self.spec.base,
            campaign_id=f"{self.spec.base.campaign_id}-i{iteration:03d}",
        )
        return expand_campaigns(base, assignments)

    def _save_state(
        self,
        phase: str,
        sampler: AdaptiveSampler,
        iteration: int,
        runs_spent: int,
        best: Dict[str, object],
        pending: Optional[Dict[str, object]],
        reached_target: bool,
    ) -> None:
        self.store.save_search_state(
            self.search_hash,
            {
                "phase": phase,
                "iteration": iteration,
                "runs_spent": runs_spent,
                "reached_target": reached_target,
                "best": best,
                "sampler": sampler.state_dict(),
                "pending": pending,
            },
        )

    def _score_points(
        self,
        objective: Objective,
        iteration: int,
        assignments: Sequence[Assignment],
        configs: Sequence[CampaignConfig],
    ) -> List[SearchPoint]:
        # Only this iteration's logs are read, not the whole store.
        points: List[SearchPoint] = []
        for index, (assignment, config) in enumerate(zip(assignments, configs)):
            hash_ = config_hash(config)
            records = self.store.load_records(hash_, with_traces=False)
            points.append(
                SearchPoint(
                    iteration=iteration,
                    point_index=index,
                    assignment=dict(assignment),
                    campaign_id=config.campaign_id,
                    config_hash=hash_,
                    n_runs=len(records),
                    score=float(objective.score(records)),
                    success_rate=AttackSuccessRate().score(records),
                )
            )
        return points

    def _elite_threshold(self, scores: Sequence[float]) -> float:
        n_elite = max(1, int(round(self._elite_frac * len(scores))))
        ordered = sorted(scores, reverse=True)
        return float(ordered[n_elite - 1])

    # ------------------------------------------------------------------ #

    def run(self, max_iterations: Optional[int] = None) -> SearchResult:
        """Execute (or resume) the search until budget, target, or cap.

        ``max_iterations`` bounds how many iterations *this call* executes
        (``None`` = until the budget or target stops the search) — the knob
        tests and step-wise drivers use.
        """
        spec = self.spec
        self.store.write_search_manifest(self.search_hash, {"spec": spec.to_json_dict()})
        objective = build_objective(spec.objective, **dict(spec.objective_options))
        sampler = build_search_sampler(
            spec.sampler, spec.space, seed=spec.seed, **dict(spec.sampler_options)
        )

        iteration = 0
        runs_spent = 0
        reached_target = False
        best: Dict[str, object] = {"score": None, "assignment": None, "config_hash": None}
        pending: Optional[Dict[str, object]] = None
        state = self.store.load_search_state(self.search_hash)
        if state is not None:
            sampler.load_state_dict(state["sampler"])  # type: ignore[arg-type]
            iteration = int(state["iteration"])
            runs_spent = int(state["runs_spent"])
            reached_target = bool(state["reached_target"])
            best = dict(state["best"])  # type: ignore[arg-type]
            pending = state["pending"]  # type: ignore[assignment]

        all_points: List[SearchPoint] = []
        last_iteration_points: List[SearchPoint] = []
        iterations_this_call = 0
        executor = resolve_executor(self.executor)
        try:
            while True:
                if reached_target and pending is None:
                    break
                if max_iterations is not None and iterations_this_call >= max_iterations:
                    break
                if pending is None:
                    n_points = min(
                        spec.batch_points,
                        (spec.budget_runs - runs_spent) // spec.base.n_runs,
                    )
                    if n_points < 1:
                        break
                    assignments = sampler.propose(n_points)
                    pending = {"iteration": iteration, "assignments": assignments}
                    # Checkpoint *before* simulating: the sampler state already
                    # carries the advanced RNG and the pending units, so a kill
                    # anywhere past this line resumes without re-proposing.
                    self._save_state(
                        "proposed", sampler, iteration, runs_spent, best,
                        pending, reached_target,
                    )
                else:
                    iteration = int(pending["iteration"])
                    assignments = [
                        dict(assignment) for assignment in pending["assignments"]  # type: ignore[union-attr]
                    ]
                configs = self._configs_for(iteration, assignments)
                run_campaigns(
                    configs,
                    use_cache=False,
                    executor=executor,
                    store=self.store,
                    batch_size=self.batch_size,
                )
                points = self._score_points(objective, iteration, assignments, configs)
                scores = [point.score for point in points]
                sampler.observe(assignments, scores)
                runs_spent += sum(config.n_runs for config in configs)

                best_index = int(np.argmax(scores))
                if best["score"] is None or scores[best_index] > float(best["score"]):  # type: ignore[arg-type]
                    best = {
                        "score": scores[best_index],
                        "assignment": dict(assignments[best_index]),
                        "config_hash": points[best_index].config_hash,
                    }
                if spec.target_score is not None and float(best["score"]) >= spec.target_score:  # type: ignore[arg-type]
                    reached_target = True

                elite_threshold = self._elite_threshold(scores)
                self.store.append_search_iteration(
                    self.search_hash,
                    {
                        "iteration": iteration,
                        "sampler": spec.sampler,
                        "objective": spec.objective,
                        "n_points": len(points),
                        "n_runs": sum(config.n_runs for config in configs),
                        "runs_spent_after": runs_spent,
                        "elite_threshold": elite_threshold,
                        "best_score": scores[best_index],
                        "best_score_so_far": best["score"],
                        "reached_target": reached_target,
                        "points": [
                            {
                                "point_index": point.point_index,
                                "assignment": point.assignment,
                                "campaign_id": point.campaign_id,
                                "config_hash": point.config_hash,
                                "n_runs": point.n_runs,
                                "score": point.score,
                                "success_rate": point.success_rate,
                            }
                            for point in points
                        ],
                    },
                )
                # Observed-phase checkpoint lands *after* the iteration record:
                # a kill between the two replays the iteration idempotently
                # (same record content, last write wins on the iteration key).
                iteration += 1
                pending = None
                self._save_state(
                    "observed", sampler, iteration, runs_spent, best, None,
                    reached_target,
                )
                all_points.extend(points)
                last_iteration_points = points
                iterations_this_call += 1
        finally:
            if executor is not self.executor:
                executor.close()

        elite_front: List[SearchPoint] = []
        if last_iteration_points:
            threshold = self._elite_threshold(
                [point.score for point in last_iteration_points]
            )
            elite_front = [
                point for point in last_iteration_points if point.score >= threshold
            ]
        return SearchResult(
            search_hash=self.search_hash,
            spec=spec,
            iterations_completed=iteration,
            runs_spent=runs_spent,
            reached_target=reached_target,
            best_score=float(best["score"]) if best["score"] is not None else float("nan"),  # type: ignore[arg-type]
            best_assignment=best["assignment"],  # type: ignore[arg-type]
            best_config_hash=best["config_hash"],  # type: ignore[arg-type]
            elite_front=elite_front,
            points=all_points,
        )


def run_falsification_search(
    spec: SearchSpec,
    store: StoreLike,
    executor: ExecutorLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_iterations: Optional[int] = None,
) -> SearchResult:
    """One-call convenience wrapper around :class:`FalsificationLoop`."""
    loop = FalsificationLoop(spec, store, executor=executor, batch_size=batch_size)
    return loop.run(max_iterations=max_iterations)
