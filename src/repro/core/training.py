"""Training the safety hijacker (paper §IV-B).

The oracle ``f_alpha`` is trained on a dataset collected from driving
simulations: each simulation run has a predefined trigger safety potential
``delta_inject`` and an attack duration ``k`` — the attack starts as soon as
the malware's own estimate of the safety potential drops to ``delta_inject``
and is maintained for ``k`` frames.  The recorded response of the ADS provides
the label:

* for ``Move_Out`` / ``Disappear`` the label is the *ground-truth* safety
  potential ``delta_{t+k}`` at the end of the attack window (the quantity that
  determines whether an accident results);
* for ``Move_In`` the label is the minimum *perceived* safety potential over
  the attack window (the quantity that determines whether the ADS is forced
  into emergency braking), because a Move_In attack does not reduce the true
  safety potential (paper §VI-D).

The collected dataset is used to train the 100-100-50 ReLU network with Adam
on an L2 loss with a 60/40 train/validation split, exactly as in the paper.

Every ``(delta_inject, k)`` grid point's scenario variation and RNG seeds are
pre-drawn in grid order from the root seed's single stream (cheap, no
simulation) and shipped with the point's job.  :func:`collect_safety_dataset`
cuts the pending jobs, in grid order, into chunks by the campaign runner's
rule (:func:`~repro.runtime.executor.chunked`), runs each chunk as the lanes
of one :class:`~repro.sim.batch.BatchSimulator`, and spreads the chunks over
the :mod:`repro.runtime` executors (``executor=``).  A lane's result does
not depend on the other lanes of its batch and the dataset is assembled in
grid order, so it depends on neither the executor nor the chunking; the
golden dataset digests in ``tests/core/test_training_pipeline.py`` pin it,
and trained oracle weights stay stable artifacts.  With a ``store=`` each
chunk's sample batches stream into the
:class:`~repro.experiments.store.ExperimentStore` as dataset records as the
chunk lands, and an interrupted collection resumes by skipping the grid
points already on disk.  :func:`train_and_register_predictor` chains
collection, training, and persistence into the content-addressed model
registry (dataset hash + training config), which is what the
``repro-campaign train`` subcommand and the campaign runner's pretrained-oracle
loading are built on.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ads.agent import AdsAgent
from repro.ads.planning import PlannerConfig
from repro.core.attack_vectors import AttackVector
from repro.core.robotack import CameraMitmAttackerBase, RoboTackConfig
from repro.core.safety_hijacker import AttackFeatures, NeuralSafetyPredictor
from repro.core.scenario_matcher import ScenarioMatcher
from repro.nn import Adam, FeedForwardNetwork, TrainingResult, train_network
from repro.perception.pipeline import PerceptionConfig
from repro.perception.transforms import WorldObjectEstimate
from repro.runtime.cache import encode_key
from repro.runtime.executor import ExecutorLike, chunked, resolve_executor
from repro.sim.batch import DEFAULT_BATCH_SIZE, BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.road import Road
from repro.sim.scenarios import DrivingScenario, ScenarioVariation, build_scenario
from repro.sim.simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - type hints only (store imports nothing here)
    from repro.experiments.store import ExperimentStore

__all__ = [
    "ScriptedAttacker",
    "SafetyDataset",
    "OracleArtifact",
    "expand_training_grid",
    "collection_hash_for",
    "dataset_content_hash",
    "training_spec_hash",
    "collect_safety_dataset",
    "train_neural_safety_predictor",
    "check_training_spec",
    "train_and_register_predictor",
    "load_registered_predictor",
]

#: Clamp applied to infinite perceived safety potentials ("road looks clear").
_CLEAR_ROAD_DELTA_M = 60.0


class ScriptedAttacker(CameraMitmAttackerBase):
    """Launches a fixed attack vector at a predefined trigger safety potential.

    Used only for data collection: the attack starts when the malware's own
    estimate of the safety potential first drops to ``delta_inject`` and lasts
    exactly ``k`` frames.
    """

    def __init__(
        self,
        road: Road,
        vector: AttackVector,
        delta_inject_m: float,
        k_frames: int,
        config: RoboTackConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        config = config or RoboTackConfig(allowed_vectors=(vector,))
        super().__init__(road, config, rng)
        self.vector = vector
        self.delta_inject_m = delta_inject_m
        self.k_frames = int(k_frames)
        self.scenario_matcher = ScenarioMatcher(
            road, self.config.matcher, allowed_vectors=(vector,)
        )

    def _maybe_launch(
        self, estimates: Sequence[WorldObjectEstimate], ego_speed_mps: float
    ) -> Optional[tuple[AttackVector, int, WorldObjectEstimate, Optional[AttackFeatures], float]]:
        target = self._closest_target(estimates)
        if target is None:
            return None
        if self.scenario_matcher.match(target) is not self.vector:
            return None
        features = self._features_for(target, ego_speed_mps)
        if features.delta_m > self.delta_inject_m:
            return None
        return self.vector, self.k_frames, target, features, float("nan")


@dataclass
class SafetyDataset:
    """Attack-response dataset for one attack vector."""

    vector: AttackVector
    scenario_id: str
    #: Rows of ``[delta_t, v_rel, a_rel, k]``.
    inputs: np.ndarray
    #: Rows of ``[delta_{t+k}]`` (ground-truth or perceived, depending on vector).
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float).reshape(-1, 1))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must have the same number of rows")

    @property
    def n_samples(self) -> int:
        return int(self.inputs.shape[0])

    def merged_with(self, other: "SafetyDataset") -> "SafetyDataset":
        """Concatenate two datasets for the same attack vector."""
        if other.vector is not self.vector:
            raise ValueError("cannot merge datasets for different attack vectors")
        return SafetyDataset(
            vector=self.vector,
            scenario_id=f"{self.scenario_id}+{other.scenario_id}",
            inputs=np.vstack([self.inputs, other.inputs]),
            targets=np.vstack([self.targets, other.targets]),
        )


def _label_for_run(
    vector: AttackVector,
    result: SimulationResult,
    attacker: ScriptedAttacker,
    k_frames: int,
) -> Optional[float]:
    """Extract the training label from one simulation run, if the attack fired."""
    if not attacker.record.launched or attacker.record.start_frame is None:
        return None
    # An attack launched on the very first frame yields start_frame - 1 == -1,
    # and a negative slice start would silently read the window from the *end*
    # of the trace — a corrupt label.  Clamp to the trace start instead.
    start_step = max(0, attacker.record.start_frame - 1)
    if vector is AttackVector.MOVE_IN:
        # The Move_In hazard is forced emergency braking: the label is the
        # perceived safety potential at the moment the faked in-path obstacle
        # first appears to the planner (the first finite perceived delta in the
        # window).  If it never appears (the window was too short to complete
        # the shift), the attack had no effect and the label saturates at the
        # clear-road value.
        trace = result.events.perceived_delta_trace
        window = trace[start_step : start_step + k_frames + 15]
        if not window:
            return None
        for value in window:
            if value < _CLEAR_ROAD_DELTA_M:
                return float(value)
        return float(_CLEAR_ROAD_DELTA_M)
    # Move_Out / Disappear: the hazard is a collision with the real target, so
    # the label is the minimum ground-truth safety potential over the attack
    # window (plus a short settling margin, since the closest approach can fall
    # a few frames after the final perturbed frame).
    trace = result.events.true_delta_trace
    if not trace:
        return None
    window = trace[start_step : start_step + k_frames + 15]
    if not window:
        return None
    return float(min(min(window), _CLEAR_ROAD_DELTA_M))


def expand_training_grid(
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    repeats: int = 1,
) -> List[Tuple[int, float, int]]:
    """The indexed ``(point_index, delta_inject, k)`` collection work list.

    The point index is the identity of a grid point everywhere: it derives the
    point's independent seed, orders the assembled dataset, and keys the
    store's dataset records for resume.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    grid = [
        (float(delta_inject), int(k_frames))
        for delta_inject in delta_inject_values
        for k_frames in k_values
        for _ in range(repeats)
    ]
    return [(index, delta, k) for index, (delta, k) in enumerate(grid)]


@dataclass(frozen=True)
class _GridPointJob:
    """One grid point of a collection: what its batch lane is built from.

    The variation and the three per-component seeds are pre-drawn in the
    parent process, in grid order, from the single root RNG stream, so a
    point's samples do not depend on which chunk, lane or worker process
    runs it (chunks of jobs are pickled to process workers).
    """

    point_index: int
    delta_inject_m: float
    k_frames: int
    variation: ScenarioVariation
    ads_seed: int
    attacker_seed: int
    simulator_seed: int


def _expand_jobs(
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    seed: int,
    repeats: int,
) -> List[_GridPointJob]:
    """Pre-draw every grid point's variation and seeds from the root stream."""
    rng = np.random.default_rng(seed)
    jobs: List[_GridPointJob] = []
    for point_index, delta_inject, k_frames in expand_training_grid(
        delta_inject_values, k_values, repeats
    ):
        variation = ScenarioVariation.sample(rng)
        jobs.append(
            _GridPointJob(
                point_index=point_index,
                delta_inject_m=delta_inject,
                k_frames=k_frames,
                variation=variation,
                ads_seed=int(rng.integers(0, 2**31 - 1)),
                attacker_seed=int(rng.integers(0, 2**31 - 1)),
                simulator_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return jobs


def _build_grid_point(
    scenario_id: str, vector: AttackVector, job: _GridPointJob
) -> Tuple[DrivingScenario, AdsAgent, ScriptedAttacker, np.random.Generator]:
    """One grid point's scenario, victim agent, scripted attacker and
    simulator generator, built from the job's pre-drawn variation and seeds."""
    scenario = build_scenario(scenario_id, job.variation)
    # Degraded-sensing scenarios (e.g. DS-7's fog) must train under the
    # same detector the campaign evaluates with, or the oracle is
    # calibrated for clean sensing it will never see.
    perception_config = (
        PerceptionConfig(detector=scenario.detector_config)
        if scenario.detector_config is not None
        else None
    )
    ads = AdsAgent(
        road=scenario.road,
        planner_config=PlannerConfig(cruise_speed_mps=scenario.cruise_speed_mps),
        perception_config=perception_config,
        rng=np.random.default_rng(job.ads_seed),
    )
    # The attacker's own reconstruction and stealth bounds must track the
    # scenario's (possibly degraded) detector, exactly as at evaluation time.
    attacker_config = RoboTackConfig.for_detector((vector,), scenario.detector_config)
    attacker = ScriptedAttacker(
        road=scenario.road,
        vector=vector,
        delta_inject_m=job.delta_inject_m,
        k_frames=job.k_frames,
        config=attacker_config,
        rng=np.random.default_rng(job.attacker_seed),
    )
    return scenario, ads, attacker, np.random.default_rng(job.simulator_seed)


def _point_samples(
    vector: AttackVector,
    job: _GridPointJob,
    result: SimulationResult,
    attacker: ScriptedAttacker,
) -> Tuple[int, List[List[float]], List[float]]:
    """A finished grid point's sample rows; both lists are empty when the
    scripted attack never fired."""
    label = _label_for_run(vector, result, attacker, job.k_frames)
    features = attacker.record.features_at_launch
    if label is None or features is None:
        return job.point_index, [], []
    return (
        job.point_index,
        [[float(value) for value in features.as_array(job.k_frames)]],
        [float(label)],
    )


def _collect_chunk(
    scenario_id: str,
    vector: AttackVector,
    simulation_config: SimulationConfig,
    jobs: Sequence[_GridPointJob],
) -> List[Tuple[int, List[List[float]], List[float]]]:
    """Simulate a chunk of grid points as the lanes of one batch (the work
    item); returns every point's sample rows in chunk order."""
    lanes = [_build_grid_point(scenario_id, vector, job) for job in jobs]
    results = BatchSimulator(
        [
            BatchRunSpec(scenario=scenario, ads=ads, attacker=attacker, rng=rng)
            for scenario, ads, attacker, rng in lanes
        ],
        config=simulation_config,
    ).run()
    return [
        _point_samples(vector, job, result, attacker)
        for job, (_, _, attacker, _), result in zip(jobs, lanes, results)
    ]


def collection_hash_for(
    scenario_id: str,
    vector: AttackVector,
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    seed: int,
    repeats: int,
    simulation_config: SimulationConfig | None = None,
) -> str:
    """Content address of a dataset collection: SHA-256 of its full spec.

    Two collections that could produce different samples never share a hash,
    so resuming against a store can only ever skip points collected by an
    identically specified earlier attempt.
    """
    key = (
        "safety-dataset",
        scenario_id,
        vector,
        tuple(float(value) for value in delta_inject_values),
        tuple(int(value) for value in k_values),
        int(seed),
        int(repeats),
        simulation_config or SimulationConfig(),
    )
    return hashlib.sha256(encode_key(key).encode("utf-8")).hexdigest()


def collect_safety_dataset(
    scenario_id: str,
    vector: AttackVector,
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    seed: int = 0,
    repeats: int = 1,
    simulation_config: SimulationConfig | None = None,
    executor: ExecutorLike = None,
    store: "ExperimentStore | str | Path | None" = None,
) -> SafetyDataset:
    """Run the scripted-attack simulations and assemble the training dataset.

    Each ``(delta_inject, k)`` grid point is simulated ``repeats`` times with
    independently randomized scenario variations.  Every grid point's
    variation and seeds are pre-drawn in grid order from the root seed's
    single RNG stream, and the pending points run in grid-order chunks of at
    most :data:`~repro.sim.batch.DEFAULT_BATCH_SIZE` lockstep batch lanes,
    narrowed so every worker of ``executor`` gets a chunk.  The assembled
    dataset is bit-identical whichever ``executor`` runs the chunks (trained
    oracle weights are stable artifacts).
    With a ``store=`` (an :class:`~repro.experiments.store.ExperimentStore`
    or its root path) each point's sample batch is durably recorded as its
    chunk lands and already-stored points are skipped on restart — an
    interrupted collection loses at most the chunks in flight and resumes
    instead of recomputing.
    """
    grid = _expand_jobs(delta_inject_values, k_values, seed, repeats)
    simulation_config = simulation_config or SimulationConfig()
    resolved_store = _resolve_store(store)
    collected: Dict[int, Tuple[List[List[float]], List[float]]] = {}
    if resolved_store is not None:
        collection_hash_ = collection_hash_for(
            scenario_id, vector, delta_inject_values, k_values, seed, repeats,
            simulation_config,
        )
        resolved_store.write_dataset_manifest(
            collection_hash_,
            {
                "scenario_id": scenario_id,
                "vector": vector.name,
                "delta_inject_values": [float(v) for v in delta_inject_values],
                "k_values": [int(v) for v in k_values],
                "seed": int(seed),
                "repeats": int(repeats),
                "n_points": len(grid),
            },
        )
        done = resolved_store.dataset_point_indices(collection_hash_)
        pending = [job for job in grid if job.point_index not in done]
    else:
        collection_hash_ = None
        pending = grid
    worker = functools.partial(_collect_chunk, scenario_id, vector, simulation_config)
    resolved = resolve_executor(executor)
    try:
        # Streaming fan-out: each completed chunk's points are checkpointed
        # (store path) or staged (in-memory path) as the chunk lands, so a
        # killed collection loses at most the chunks in flight.
        chunks = chunked(pending, DEFAULT_BATCH_SIZE, resolved)
        for _, points in resolved.imap(worker, chunks):
            for point_index, input_rows, target_rows in points:
                if resolved_store is not None:
                    resolved_store.append_dataset_point(
                        collection_hash_, point_index, input_rows, target_rows
                    )
                else:
                    collected[point_index] = (input_rows, target_rows)
    finally:
        if resolved is not executor:
            resolved.close()
    if resolved_store is not None:
        collected = resolved_store.load_dataset_points(collection_hash_)
        missing = [job.point_index for job in grid if job.point_index not in collected]
        if missing:  # pragma: no cover - store invariant
            raise RuntimeError(
                f"collection {collection_hash_[:12]} is missing grid points "
                f"{missing} after the fan-out completed"
            )
    inputs: List[List[float]] = []
    targets: List[float] = []
    # Assembly order is the grid order, never the completion order — the
    # invariant behind bit-identical serial/parallel/resumed datasets.
    for job in grid:
        point_inputs, point_targets = collected.get(job.point_index, ([], []))
        inputs.extend(point_inputs)
        targets.extend(point_targets)
    if not inputs:
        raise RuntimeError(
            f"no training samples collected for {scenario_id}/{vector.value}; "
            "check the delta_inject grid against the scenario geometry"
        )
    return SafetyDataset(
        vector=vector,
        scenario_id=scenario_id,
        inputs=np.asarray(inputs, dtype=float),
        targets=np.asarray(targets, dtype=float).reshape(-1, 1),
    )


def _resolve_store(store: "ExperimentStore | str | Path | None"):
    """Coerce a store spec to a store (lazy import: experiments imports us)."""
    if store is None:
        return None
    from repro.experiments.store import ExperimentStore

    if isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)


def train_neural_safety_predictor(
    dataset: SafetyDataset,
    epochs: int = 200,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> tuple[NeuralSafetyPredictor, TrainingResult]:
    """Train the paper's NN oracle on a collected dataset.

    Returns the ready-to-use predictor (with input standardization baked in)
    and the training history.
    """
    rng = np.random.default_rng(seed)
    means = dataset.inputs.mean(axis=0)
    stds = dataset.inputs.std(axis=0)
    stds = np.where(stds <= 1e-9, 1.0, stds)
    normalized_inputs = (dataset.inputs - means) / stds
    target_mean = float(dataset.targets.mean())
    target_std = float(dataset.targets.std())
    if target_std <= 1e-9:
        target_std = 1.0
    normalized_targets = (dataset.targets - target_mean) / target_std

    network = FeedForwardNetwork.safety_hijacker_architecture(
        NeuralSafetyPredictor.INPUT_DIM, rng=rng
    )
    result = train_network(
        network,
        normalized_inputs,
        normalized_targets,
        epochs=epochs,
        batch_size=32,
        optimizer=Adam(learning_rate=learning_rate),
        train_fraction=0.6,
        rng=rng,
    )
    predictor = NeuralSafetyPredictor(
        network, means, stds, target_mean=target_mean, target_std=target_std
    )
    return predictor, result


# --------------------------------------------------------------------- #
# Model registry — content-addressed trained oracles in the store
# --------------------------------------------------------------------- #


def dataset_content_hash(dataset: SafetyDataset) -> str:
    """SHA-256 over the dataset's exact contents (vector, inputs, targets)."""
    digest = hashlib.sha256()
    digest.update(dataset.vector.name.encode("utf-8"))
    digest.update(dataset.scenario_id.encode("utf-8"))
    for array in (dataset.inputs, dataset.targets):
        contiguous = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(str(contiguous.shape).encode("utf-8"))
        digest.update(contiguous.tobytes())
    return digest.hexdigest()


def _training_spec_key(
    scenario_id: str,
    vector: AttackVector,
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    collect_seed: int,
    repeats: int,
    epochs: int,
    learning_rate: float,
    train_seed: int,
    simulation_config: SimulationConfig | None,
) -> Tuple:
    return (
        "oracle-spec",
        scenario_id,
        vector,
        tuple(float(value) for value in delta_inject_values),
        tuple(int(value) for value in k_values),
        int(collect_seed),
        int(repeats),
        int(epochs),
        float(learning_rate),
        int(train_seed),
        simulation_config or SimulationConfig(),
    )


def training_spec_hash(
    scenario_id: str,
    vector: AttackVector,
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    collect_seed: int = 7,
    repeats: int = 2,
    epochs: int = 200,
    learning_rate: float = 1e-3,
    train_seed: Optional[int] = None,
    simulation_config: SimulationConfig | None = None,
) -> str:
    """Hash of the full *specification* of a trained oracle.

    This is the registry's lookup key: a campaign process that knows only the
    spec (not the dataset contents) resolves it to a published model hash via
    the store's ``models/index/``.
    """
    key = _training_spec_key(
        scenario_id, vector, delta_inject_values, k_values, collect_seed, repeats,
        epochs, learning_rate, train_seed if train_seed is not None else collect_seed,
        simulation_config,
    )
    return hashlib.sha256(encode_key(key).encode("utf-8")).hexdigest()


@dataclass
class OracleArtifact:
    """Everything :func:`train_and_register_predictor` produced."""

    predictor: NeuralSafetyPredictor
    training: TrainingResult
    dataset: SafetyDataset
    dataset_hash: str
    spec_hash: str
    #: ``None`` when no store was supplied (nothing was persisted).
    model_hash: Optional[str] = None
    model_dir: Optional[Path] = None


def check_training_spec(
    seed: int,
    repeats: int,
    epochs: int,
    learning_rate: float,
    train_seed: Optional[int] = None,
) -> None:
    """Reject a training spec that could never train (``ValueError``).

    :func:`train_and_register_predictor` runs this before collecting, so a
    bad spec fails before it simulates anything into the store.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if train_seed is not None and train_seed < 0:
        raise ValueError(f"train_seed must be non-negative, got {train_seed}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not learning_rate > 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")


def train_and_register_predictor(
    scenario_id: str,
    vector: AttackVector,
    delta_inject_values: Sequence[float],
    k_values: Sequence[int],
    seed: int = 7,
    repeats: int = 2,
    epochs: int = 200,
    learning_rate: float = 1e-3,
    train_seed: Optional[int] = None,
    simulation_config: SimulationConfig | None = None,
    executor: ExecutorLike = None,
    store: "ExperimentStore | str | Path | None" = None,
) -> OracleArtifact:
    """Collect (parallel, resumable), train, and persist the neural oracle.

    The end-to-end training pipeline: the dataset is collected through
    :func:`collect_safety_dataset` (fanned out over ``executor``, streamed
    into ``store`` when given), the paper's network is trained on it, and —
    when a store is supplied — the predictor is published into the
    content-addressed model registry under
    ``sha256(dataset_hash + training config)`` and indexed by its spec hash
    for lookup by campaign processes.
    """
    check_training_spec(seed, repeats, epochs, learning_rate, train_seed)
    train_seed = train_seed if train_seed is not None else seed
    resolved_store = _resolve_store(store)
    dataset = collect_safety_dataset(
        scenario_id=scenario_id,
        vector=vector,
        delta_inject_values=delta_inject_values,
        k_values=k_values,
        seed=seed,
        repeats=repeats,
        simulation_config=simulation_config,
        executor=executor,
        store=resolved_store,
    )
    predictor, result = train_neural_safety_predictor(
        dataset, epochs=epochs, learning_rate=learning_rate, seed=train_seed
    )
    dataset_hash = dataset_content_hash(dataset)
    spec_hash = training_spec_hash(
        scenario_id, vector, delta_inject_values, k_values, collect_seed=seed,
        repeats=repeats, epochs=epochs, learning_rate=learning_rate,
        train_seed=train_seed, simulation_config=simulation_config,
    )
    artifact = OracleArtifact(
        predictor=predictor,
        training=result,
        dataset=dataset,
        dataset_hash=dataset_hash,
        spec_hash=spec_hash,
    )
    if resolved_store is None:
        return artifact
    training_key = _training_spec_key(
        scenario_id, vector, delta_inject_values, k_values, seed, repeats, epochs,
        learning_rate, train_seed, simulation_config,
    )
    model_hash = hashlib.sha256(
        f"{dataset_hash}:{encode_key(training_key)}".encode("utf-8")
    ).hexdigest()
    metadata = {
        "scenario_id": scenario_id,
        "vector": vector.name,
        "dataset_hash": dataset_hash,
        "spec_hash": spec_hash,
        "n_samples": dataset.n_samples,
        "collect_seed": int(seed),
        "repeats": int(repeats),
        "epochs": int(epochs),
        "learning_rate": float(learning_rate),
        "train_seed": int(train_seed),
        "n_train_samples": result.n_train_samples,
        "n_validation_samples": result.n_validation_samples,
        "train_loss": [float(value) for value in result.history.train_loss],
        "validation_loss": [float(value) for value in result.history.validation_loss],
    }
    artifact.model_dir = resolved_store.publish_model(
        model_hash,
        lambda staging: predictor.save(staging / "predictor"),
        metadata,
    )
    artifact.model_hash = model_hash
    resolved_store.register_model_spec(
        spec_hash, model_hash, {"scenario_id": scenario_id, "vector": vector.name}
    )
    return artifact


def load_registered_predictor(
    store: "ExperimentStore | str | Path", spec_hash: str
) -> Optional[NeuralSafetyPredictor]:
    """Load the pretrained oracle registered for a training spec, if any.

    Returns ``None`` when the spec was never trained into this store (or its
    model directory is gone), which callers treat as "train it now".
    """
    resolved_store = _resolve_store(store)
    model_hash = resolved_store.resolve_model_spec(spec_hash)
    if model_hash is None or not resolved_store.has_model(model_hash):
        return None
    return NeuralSafetyPredictor.load(resolved_store.model_dir(model_hash) / "predictor")
