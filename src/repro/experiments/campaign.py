"""Campaign runner: seeded batches of (possibly attacked) simulation runs.

A *campaign* fixes a driving scenario, an attack vector, and an attacker kind
(RoboTack, RoboTack without the safety hijacker, the random baseline, or no
attacker at all) and executes ``n_runs`` independent, seeded simulation runs
with randomized initial conditions — mirroring the experimental campaigns of
paper §VI-C ("a set of simulation runs executed with the same driving scenario
and attack vector").

Every run is seeded from ``SeedSequence([campaign_seed, run_index])`` and
shares no state with its siblings, so campaigns fan out over the
:mod:`repro.runtime` executors: ``run_campaign(config, executor=4)`` runs on
four worker processes and produces *element-wise identical* results to the
serial path.  :func:`run_campaign` has one body, with or without a store:
the pending run indices are cut into lockstep batch chunks
(:func:`~repro.runtime.executor.chunked`), the chunks stream back through
:meth:`~repro.runtime.executor.Executor.imap`, and every record goes to one
sink.  A store (``store=``) only adds the campaign manifest, the skip set of
already-stored runs and an append per record.  Safety-hijacker predictors
are trained once per (scenario, vector) pair in the parent process (their
dataset collection fans out over the campaign's executor) and shipped to the
workers.
Predictors and store-less campaign results are memoized per process; what
outlives the process is the experiment store: its run records and model
registry are the one persistence path.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ads.agent import AdsAgent, build_ads_agent
from repro.core.attack_vectors import AttackVector
from repro.core.baselines import RandomAttacker, RoboTackWithoutSafetyHijacker
from repro.core.robotack import CameraMitmAttackerBase, RoboTack, RoboTackConfig
from repro.core.safety_hijacker import (
    KinematicSafetyPredictor,
    SafetyHijacker,
    SafetyHijackerConfig,
    SafetyPredictor,
    k_max_frames_for,
)
from repro.core.training import (
    load_registered_predictor,
    train_and_register_predictor,
    training_spec_hash,
)
from repro.experiments.results import CampaignResult, RunResult
from repro.experiments.store import (
    ExperimentStore,
    RunRecord,
    StoreLike,
    config_hash,
    resolve_store,
)
from repro.perception.detection import DetectorDegradation
from repro.perception.fusion import DEFAULT_FUSION_POLICY, FusionConfig
from repro.perception.pipeline import PerceptionConfig
from repro.runtime import ExecutorLike, chunked, executor_scope
from repro.runtime.cache import encode_key
from repro.sim.batch import DEFAULT_BATCH_SIZE, BatchRunSpec, BatchSimulator
from repro.sim.config import SimulationConfig
from repro.sim.scenarios import DrivingScenario, ScenarioVariation, build_scenario
from repro.sim.simulator import SimulationResult

__all__ = [
    "AttackerKind",
    "PredictorKind",
    "CampaignConfig",
    "build_ads_agent",
    "run_single_experiment",
    "run_single_experiment_record",
    "run_campaign",
    "run_campaigns",
    "get_or_train_predictor",
    "training_grid_for",
    "oracle_spec_hash",
    "clear_caches",
]

class AttackerKind(enum.Enum):
    """Which attacker (if any) is installed on the camera link."""

    ROBOTACK = "robotack"
    ROBOTACK_NO_SH = "robotack_no_sh"
    RANDOM = "random"
    NONE = "none"


class PredictorKind(enum.Enum):
    """Which safety-potential oracle the safety hijacker uses."""

    NEURAL = "neural"
    KINEMATIC = "kinematic"


#: Training grids (delta_inject values, k values) per scenario used to collect
#: the safety-hijacker dataset.  Pedestrian scenarios use shorter windows.
_TRAINING_GRIDS: Dict[str, Tuple[Tuple[float, ...], Tuple[int, ...]]] = {
    "DS-1": ((28.0, 24.0, 21.0, 18.0, 15.0, 12.0), (30, 42, 50, 58)),
    "DS-2": ((55.0, 48.0, 42.0, 38.0, 34.0, 30.0), (10, 16, 22, 28)),
    "DS-3": ((20.0, 15.0, 11.0, 7.0, 3.0, 0.0), (12, 25, 40, 55)),
    "DS-4": ((16.0, 12.0, 9.0, 6.0, 3.0, 0.0), (10, 16, 23, 30)),
    "DS-5": ((28.0, 24.0, 21.0, 18.0, 15.0, 12.0), (30, 42, 50, 58)),
    # DS-6's cut-in target behaves like the DS-1 lead once it occupies the
    # ego lane, but the gap is tighter, so the trigger grid sits lower.
    "DS-6": ((24.0, 21.0, 18.0, 15.0, 12.0, 9.0), (30, 42, 50, 58)),
    # DS-7's foggy pedestrian crossing: the slower EV and late detections
    # compress the usable trigger range versus DS-2.
    "DS-7": ((45.0, 40.0, 35.0, 30.0, 26.0, 22.0), (10, 16, 22, 28)),
}

#: Fallback grid for scenarios registered by downstream plugins without a
#: curated grid: a wide trigger sweep with mid-length windows.
_DEFAULT_TRAINING_GRID: Tuple[Tuple[float, ...], Tuple[int, ...]] = (
    (40.0, 32.0, 24.0, 18.0, 12.0, 6.0),
    (12, 24, 36, 48),
)

#: Per-process memos keyed by the :func:`encode_key` encoding of a predictor
#: key (for store-backed oracles: the registered model hash) or
#: ``CampaignConfig.cache_key()``.
_PREDICTOR_CACHE: Dict[str, SafetyPredictor] = {}
_CAMPAIGN_CACHE: Dict[str, CampaignResult] = {}


def training_grid_for(scenario_id: str) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """The (delta_inject, k) training grid for a scenario (with a generic fallback)."""
    return _TRAINING_GRIDS.get(scenario_id, _DEFAULT_TRAINING_GRID)


def clear_caches() -> None:
    """Drop all memoized predictors and campaign results (mainly for tests)."""
    _PREDICTOR_CACHE.clear()
    _CAMPAIGN_CACHE.clear()


@dataclass(frozen=True)
class CampaignConfig:
    """Specification of one experimental campaign."""

    campaign_id: str
    scenario_id: str
    attacker: AttackerKind
    vector: Optional[AttackVector] = None
    n_runs: int = 30
    seed: int = 2020
    predictor: PredictorKind = PredictorKind.NEURAL
    #: Epochs used when training the neural predictor for this campaign.
    training_epochs: int = 200
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    #: Pin every run of the campaign to this exact initial-condition variation
    #: (``None`` = sample a fresh variation per run, the Monte-Carlo default).
    #: Sweeps pin variations to probe specific points of the perturbation space.
    variation: Optional[ScenarioVariation] = None
    #: Degrade the scenario's camera detector (fog/low-light sweeps); ``None``
    #: keeps whatever detector the scenario itself prescribes.
    detector_degradation: Optional[DetectorDegradation] = None
    #: Fusion-policy victim variant for the campaign's ADS agent; ``None``
    #: keeps whatever fusion the scenario prescribes (the late-fusion default
    #: for the paper's catalog).
    fusion: Optional[FusionConfig] = None

    def __post_init__(self) -> None:
        if self.n_runs <= 0:
            raise ValueError("n_runs must be positive")
        if self.seed < 0:
            # SeedSequence rejects negative entropy, so no run could start.
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.training_epochs < 1:
            raise ValueError(f"training_epochs must be at least 1, got {self.training_epochs}")
        if self.attacker in (AttackerKind.ROBOTACK, AttackerKind.ROBOTACK_NO_SH) and self.vector is None:
            raise ValueError("RoboTack campaigns must pin an attack vector")
        if self.simulation.dt != PerceptionConfig.frame_dt_s:
            # The perception pipeline, its image-to-world transform and
            # RoboTack's hijacker all difference over one 15 Hz frame.
            raise ValueError(
                f"simulation.camera_rate_hz={self.simulation.camera_rate_hz:g} is not "
                f"supported: perception assumes {1.0 / PerceptionConfig.frame_dt_s:g} Hz "
                "camera frames"
            )

    @property
    def fusion_policy(self) -> str:
        """Effective fusion-policy name (defaulted configs run ``late``)."""
        return self.fusion.policy if self.fusion is not None else DEFAULT_FUSION_POLICY

    def cache_key(self) -> Tuple:
        # Every field that changes the campaign's results belongs here: two
        # configs differing only in training epochs or simulation parameters
        # must never shadow each other.  The experiment store's content
        # address is derived from this same key.
        key = (
            self.campaign_id,
            self.scenario_id,
            self.attacker,
            self.vector,
            self.n_runs,
            self.seed,
            self.predictor,
            self.training_epochs,
            self.simulation,
            self.variation,
            self.detector_degradation,
        )
        # Appended only when set, so every pre-fusion config keeps its exact
        # hash and existing stores resume without re-running anything.
        if self.fusion is not None:
            key = key + (self.fusion,)
        return key

    # ------------------------------------------------------------------ #
    # JSON round-trip — the experiment-store manifest format
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-safe dict that :meth:`from_json_dict` inverts losslessly."""
        return {
            "campaign_id": self.campaign_id,
            "scenario_id": self.scenario_id,
            "attacker": self.attacker.value,
            "vector": self.vector.name if self.vector is not None else None,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "predictor": self.predictor.value,
            "training_epochs": self.training_epochs,
            "simulation": dataclasses.asdict(self.simulation),
            "variation": (
                dataclasses.asdict(self.variation) if self.variation is not None else None
            ),
            "detector_degradation": (
                dataclasses.asdict(self.detector_degradation)
                if self.detector_degradation is not None
                else None
            ),
            "fusion": (
                dataclasses.asdict(self.fusion) if self.fusion is not None else None
            ),
        }

    @staticmethod
    def from_json_dict(payload: Dict[str, object]) -> "CampaignConfig":
        """Reconstruct a config from :meth:`to_json_dict` output."""
        vector = payload["vector"]
        variation = payload.get("variation")
        degradation = payload.get("detector_degradation")
        # .get: manifests written before the fusion-policy refactor carry no
        # "fusion" key and must load as fusion=None (same config, same hash).
        fusion = payload.get("fusion")
        return CampaignConfig(
            campaign_id=str(payload["campaign_id"]),
            scenario_id=str(payload["scenario_id"]),
            attacker=AttackerKind(payload["attacker"]),
            vector=AttackVector[str(vector)] if vector else None,
            n_runs=int(payload["n_runs"]),
            seed=int(payload["seed"]),
            predictor=PredictorKind(payload["predictor"]),
            training_epochs=int(payload["training_epochs"]),
            simulation=SimulationConfig(**payload["simulation"]),  # type: ignore[arg-type]
            variation=ScenarioVariation(**variation) if variation else None,
            detector_degradation=(
                DetectorDegradation(**degradation) if degradation else None
            ),
            fusion=FusionConfig(**fusion) if fusion else None,  # type: ignore[arg-type]
        )


def oracle_spec_hash(
    scenario_id: str,
    vector: AttackVector,
    seed: int = 7,
    training_epochs: int = CampaignConfig.training_epochs,
) -> str:
    """The registry spec hash a store-backed campaign looks its oracle up by.

    The defaults are the ones :func:`run_campaign` resolves: the collection
    seed of :func:`get_or_train_predictor` and the config's default epochs.
    A model trained under any other spec is registered but never auto-loaded.

    The hash covers (scenario, vector, seed, epochs) and the scenario's
    training grid, not the campaign's victim: every campaign of a scenario
    and vector shares one oracle, collected against the victim
    ``build_ads_agent`` builds for the scenario itself.  A campaign's
    ``fusion`` or ``detector_degradation`` override therefore does not change
    it (see :func:`get_or_train_predictor`).
    """
    delta_grid, k_grid = training_grid_for(scenario_id)
    return training_spec_hash(
        scenario_id, vector, delta_grid, k_grid,
        collect_seed=seed, repeats=2, epochs=training_epochs,
    )


def _store_backed_predictor(
    scenario_id: str,
    vector: AttackVector,
    seed: int,
    training_epochs: int,
    store: ExperimentStore,
    executor: ExecutorLike = None,
) -> SafetyPredictor:
    """Load the registered oracle from the store, or train-and-register it.

    This is the train-once/deploy-many path: the first process (usually
    ``repro-campaign train``) pays collection + training and publishes the
    model; every later campaign process — including every restart — reloads
    the identical weights instead of retraining.

    Oracles are memoized by the model hash the store's registry resolves to,
    so the same model registered in any number of stores is one object per
    process.  A store whose registry lacks it still trains and publishes it.
    """
    spec_hash = oracle_spec_hash(scenario_id, vector, seed, training_epochs)
    model_hash = store.resolve_model_spec(spec_hash)
    if model_hash is not None and store.has_model(model_hash):
        key = encode_key(("model", model_hash))
        if key not in _PREDICTOR_CACHE:
            _PREDICTOR_CACHE[key] = load_registered_predictor(store, spec_hash)
        return _PREDICTOR_CACHE[key]
    delta_grid, k_grid = training_grid_for(scenario_id)
    artifact = train_and_register_predictor(
        scenario_id, vector, delta_grid, k_grid,
        seed=seed, repeats=2, epochs=training_epochs,
        executor=executor, store=store,
    )
    return _PREDICTOR_CACHE.setdefault(
        encode_key(("model", artifact.model_hash)), artifact.predictor
    )


def get_or_train_predictor(
    scenario_id: str,
    vector: AttackVector,
    kind: PredictorKind = PredictorKind.NEURAL,
    seed: int = 7,
    training_epochs: int = CampaignConfig.training_epochs,
    store: StoreLike = None,
    executor: ExecutorLike = None,
) -> SafetyPredictor:
    """Return the safety-potential oracle for a scenario/vector, training it if needed.

    With a ``store=``, the store's model registry is consulted first (and a
    freshly trained oracle is published back into it), and the dataset
    collection behind a training miss is itself resumable.  Without one, a
    neural oracle goes through the same pipeline in-process, unpersisted.
    Either way the collection fans out over ``executor``, and the training
    spec is checked before anything is simulated.

    The defaults are the spec a default campaign looks up
    (:func:`oracle_spec_hash`), so they train the oracle its attacks use.

    Oracles are per (scenario, vector, seed, epochs), and the collection's
    victim is ``build_ads_agent(scenario)``'s: the scenario's own detector and
    fusion policy.  A campaign that overrides its victim's ``fusion`` or
    ``detector_degradation`` is attacked with that scenario-default oracle, a
    transfer attack, while the attacker's replica, stealth bound and K_max
    follow the campaign's (possibly degraded) detector.
    """
    resolved_store = resolve_store(store)
    if resolved_store is not None and kind is PredictorKind.NEURAL:
        return _store_backed_predictor(
            scenario_id, vector, seed, training_epochs, resolved_store, executor
        )
    # training_epochs is part of the key: a predictor trained with different
    # epochs must never shadow this one.
    key = encode_key((scenario_id, vector, kind, seed, training_epochs))
    if key not in _PREDICTOR_CACHE:
        if kind is PredictorKind.KINEMATIC:
            _PREDICTOR_CACHE[key] = KinematicSafetyPredictor(vector)
        else:
            delta_grid, k_grid = training_grid_for(scenario_id)
            _PREDICTOR_CACHE[key] = train_and_register_predictor(
                scenario_id, vector, delta_grid, k_grid,
                seed=seed, repeats=2, epochs=training_epochs, executor=executor,
            ).predictor
    return _PREDICTOR_CACHE[key]


def _build_attacker(
    config: CampaignConfig,
    scenario: DrivingScenario,
    rng: np.random.Generator,
    predictor: Optional[SafetyPredictor] = None,
) -> Optional[CameraMitmAttackerBase]:
    if config.attacker is AttackerKind.NONE:
        return None
    allowed = (config.vector,) if config.vector is not None else tuple(AttackVector)
    # Scenarios with a degraded detector (e.g. DS-7's fog) recalibrate the
    # attacker's reconstruction, stealth bounds and Kmax from that detector.
    attack_config = RoboTackConfig.for_detector(allowed, scenario.detector_config)
    if config.attacker is AttackerKind.ROBOTACK:
        if predictor is None:
            predictor = get_or_train_predictor(
                config.scenario_id,
                config.vector,
                kind=config.predictor,
                training_epochs=config.training_epochs,
            )
        hijacker = SafetyHijacker(predictor, SafetyHijackerConfig(
            k_max_frames=k_max_frames_for(scenario.detector_config)
        ))
        return RoboTack(scenario.road, hijacker, attack_config, rng=rng)
    if config.attacker is AttackerKind.ROBOTACK_NO_SH:
        return RoboTackWithoutSafetyHijacker(scenario.road, attack_config, rng=rng)
    return RandomAttacker(
        scenario.road,
        attack_config,
        rng=rng,
        candidate_target_actor_ids=[actor.actor_id for actor in scenario.world.actors],
    )


def _true_delta_at_attack_end(
    result: SimulationResult, attacker: Optional[CameraMitmAttackerBase]
) -> float:
    if attacker is None or not attacker.record.launched or attacker.record.start_frame is None:
        return float("nan")
    trace = result.true_delta_trace
    if not trace:
        return float("nan")
    index = min(
        attacker.record.start_frame - 1 + attacker.record.planned_k_frames, len(trace) - 1
    )
    return float(trace[index])


@dataclasses.dataclass
class _RunSetup:
    """Everything a seeded run needs before its simulator starts stepping."""

    run_index: int
    run_seed: int
    variation: ScenarioVariation
    scenario: DrivingScenario
    ads: AdsAgent
    attacker: Optional[CameraMitmAttackerBase]
    sim_rng: np.random.Generator


def _build_run_setup(
    config: CampaignConfig,
    run_index: int,
    predictor: Optional[SafetyPredictor] = None,
) -> _RunSetup:
    """Derive one run's scenario, agent, attacker, and RNGs from its seed.

    The draw order on ``rng`` (the variation unless the config pins one, then
    the ads seed, the attacker seed and the simulator seed — the attacker
    seed is drawn even for :attr:`AttackerKind.NONE`) is the determinism
    contract of every stored run; changing it changes every stored trace.

    It also pairs every attacked run with a *twin*: the run with the same
    index in the benign campaign of the same scenario and seed gets the same
    variation and the same victim and simulator seeds.  Until its attack
    starts, an attacked run's traces and events equal its twin's, and a run
    where nothing launched equals its twin entirely
    (``tests/experiments/test_twins.py``).
    """
    run_seed = int(np.random.SeedSequence([config.seed, run_index]).generate_state(1)[0])
    rng = np.random.default_rng(run_seed)
    if config.variation is not None:
        variation = config.variation
    else:
        variation = ScenarioVariation.sample(rng)
    scenario = build_scenario(config.scenario_id, variation)
    if config.detector_degradation is not None and not config.detector_degradation.is_identity():
        scenario.detector_config = config.detector_degradation.apply(scenario.detector_config)
    ads = build_ads_agent(
        scenario,
        np.random.default_rng(int(rng.integers(0, 2**31 - 1))),
        fusion=config.fusion,
    )
    attacker = _build_attacker(
        config,
        scenario,
        np.random.default_rng(int(rng.integers(0, 2**31 - 1))),
        predictor=predictor,
    )
    return _RunSetup(
        run_index=run_index,
        run_seed=run_seed,
        variation=variation,
        scenario=scenario,
        ads=ads,
        attacker=attacker,
        sim_rng=np.random.default_rng(int(rng.integers(0, 2**31 - 1))),
    )


def run_single_experiment_record(
    config: CampaignConfig,
    run_index: int,
    predictor: Optional[SafetyPredictor] = None,
) -> RunRecord:
    """Execute one seeded run and flatten it into a durable :class:`RunRecord`.

    The run is a one-lane chunk of the campaign runner's path.
    ``predictor`` lets the campaign runner pre-train the safety-potential
    oracle in the parent process and ship it to worker processes; when omitted
    (direct calls), the per-process predictor cache is consulted as before.
    """
    return _run_batch_chunk(config, [run_index], predictor=predictor)[0]


def _record_from_result(
    config: CampaignConfig, setup: _RunSetup, result: SimulationResult
) -> RunRecord:
    """Flatten a finished run into the durable, store-appendable record."""
    attacker = setup.attacker
    record = attacker.record if attacker is not None else None
    min_delta = result.min_true_delta_from_attack()
    accident = result.accident_occurred(config.simulation.halt_gap_m)
    run_result = RunResult(
        run_index=setup.run_index,
        seed=setup.run_seed,
        scenario_id=config.scenario_id,
        attacker_kind=config.attacker.value,
        vector=record.vector if record is not None else None,
        target_kind=(
            record.target_kind if record is not None else setup.scenario.target_kind
        ),
        attack_launched=bool(record.launched) if record is not None else False,
        emergency_braking=result.emergency_braking_occurred,
        collision=result.collision_occurred,
        accident=accident,
        min_true_delta_m=min_delta,
        true_delta_at_attack_end_m=_true_delta_at_attack_end(result, attacker),
        predicted_delta_m=record.predicted_delta_m if record is not None else float("nan"),
        planned_k_frames=record.planned_k_frames if record is not None else 0,
        frames_perturbed=record.frames_perturbed if record is not None else 0,
        k_prime_frames=record.shift_frames_k_prime if record is not None else 0,
        delta_at_launch_m=(
            record.features_at_launch.delta_m
            if record is not None and record.features_at_launch is not None
            else float("nan")
        ),
    )
    events = tuple(
        (event.kind.value, event.step_index, event.time_s, dict(event.details))
        for event in result.events
    )
    return RunRecord(
        config_hash=config_hash(config),
        campaign_id=config.campaign_id,
        run_index=setup.run_index,
        seed=setup.run_seed,
        variation=setup.variation,
        result=run_result,
        steps_executed=result.steps_executed,
        duration_s=result.duration_s,
        halted_on_collision=result.halted_on_collision,
        events=events,
        true_delta_trace=np.asarray(result.true_delta_trace, dtype=np.float64),
        perceived_delta_trace=np.asarray(result.perceived_delta_trace, dtype=np.float64),
        ego_speed_trace=np.asarray(result.ego_speed_trace, dtype=np.float64),
    )


def run_single_experiment(
    config: CampaignConfig,
    run_index: int,
    predictor: Optional[SafetyPredictor] = None,
) -> RunResult:
    """Execute one seeded run of a campaign and summarize it."""
    return run_single_experiment_record(config, run_index, predictor=predictor).result


def _check_run_options(engine: str, batch_size: int) -> None:
    """Check the ``engine`` and ``batch_size`` arguments of ``run_campaign``
    and ``FalsificationLoop`` before either writes or simulates anything;
    ``engine`` accepts only the one engine, ``"batch"``."""
    if engine != "batch":
        raise ValueError(f"unknown engine {engine!r}: the only engine is 'batch'")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")


def _run_batch_chunk(
    config: CampaignConfig,
    run_indices: Sequence[int],
    predictor: Optional[SafetyPredictor] = None,
) -> List[RunRecord]:
    """Execute a chunk of runs in lockstep on one :class:`BatchSimulator`.

    Every run is independently seeded by :func:`_build_run_setup`, and a
    lane's result does not depend on the other lanes of its batch, so the
    records do not depend on how the runs were chunked.
    """
    setups = [
        _build_run_setup(config, run_index, predictor=predictor)
        for run_index in run_indices
    ]
    specs = [
        BatchRunSpec(
            scenario=setup.scenario,
            ads=setup.ads,
            attacker=setup.attacker,
            rng=setup.sim_rng,
        )
        for setup in setups
    ]
    results = BatchSimulator(specs, config=config.simulation).run()
    return [
        _record_from_result(config, setup, result)
        for setup, result in zip(setups, results)
    ]


def run_campaign(
    config: CampaignConfig,
    use_cache: bool = True,
    executor: ExecutorLike = None,
    store: StoreLike = None,
    engine: str = "batch",
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> CampaignResult:
    """Execute all runs of a campaign, optionally fanning out over processes.

    ``executor`` accepts anything :func:`repro.runtime.resolve_executor`
    understands: ``None`` (serial), a worker count, or an
    :class:`~repro.runtime.executor.Executor` instance to share a worker pool
    across campaigns.  With ``use_cache`` (the default) a store-less
    campaign's result is memoized for the rest of the process.

    The runs are simulated on :class:`~repro.sim.batch.BatchSimulator` lanes,
    up to ``batch_size`` runs per work item, narrowed so every worker of
    ``executor`` gets one, advancing in lockstep groups of at most
    :data:`~repro.sim.batch.LOCKSTEP_LANES`; the work items stream back
    through :meth:`~repro.runtime.executor.Executor.imap`.  Results do not
    depend on the chunking, so ``batch_size`` does not enter the cache key or
    the store's config hash.  ``engine`` accepts only ``"batch"``.

    ``store`` (an :class:`~repro.experiments.store.ExperimentStore` or its
    root path) makes the campaign durable and resumable: its manifest is
    written first, already-stored runs are skipped, every record is appended
    as its chunk completes (a killed campaign loses at most the chunks in
    flight), and the result is read back from the store.  Every run is
    seeded from ``(campaign_seed, run_index)``, so a resumed campaign, also
    one resumed with another chunk size, returns the statistics of an
    uninterrupted serial one.  The in-process memo is bypassed: the store
    *is* the durable record.
    """
    _check_run_options(engine, batch_size)
    resolved_store = resolve_store(store)
    key = encode_key(config.cache_key())
    memoize = use_cache and resolved_store is None
    if memoize and key in _CAMPAIGN_CACHE:
        return _CAMPAIGN_CACHE[key]
    pending: Sequence[int] = range(config.n_runs)
    if resolved_store is not None:
        resolved_store.write_manifest(config)
        done = resolved_store.run_indices(config_hash(config))
        pending = [index for index in pending if index not in done]
    runs: Dict[int, RunResult] = {}
    if pending:
        with executor_scope(executor) as resolved:
            # The oracle is prepared once, before the fan-out, so workers never
            # train copies and serial and parallel campaigns use the same
            # weights.  A store's registry supplies a published one; a miss
            # trains it, collecting its dataset on this executor.
            predictor = None
            if config.attacker is AttackerKind.ROBOTACK:
                predictor = get_or_train_predictor(
                    config.scenario_id,
                    config.vector,
                    kind=config.predictor,
                    training_epochs=config.training_epochs,
                    store=resolved_store,
                    executor=resolved,
                )
            worker = functools.partial(_run_batch_chunk, config, predictor=predictor)
            for _, records in resolved.imap(worker, chunked(pending, batch_size, resolved)):
                for record in records:
                    if resolved_store is not None:
                        resolved_store.append(record)
                    else:
                        runs[record.run_index] = record.result
    if resolved_store is not None:
        return resolved_store.campaign_result(config)
    campaign = CampaignResult(
        campaign_id=config.campaign_id,
        scenario_id=config.scenario_id,
        attacker_kind=config.attacker.value,
        vector=config.vector,
        runs=[runs[index] for index in range(config.n_runs)],
    )
    if memoize:
        _CAMPAIGN_CACHE[key] = campaign
    return campaign


def run_campaigns(
    configs: Sequence[CampaignConfig],
    use_cache: bool = True,
    executor: ExecutorLike = None,
    store: StoreLike = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[CampaignResult]:
    """Execute several campaigns, sharing one executor (and its worker pool)."""
    resolved_store = resolve_store(store)
    with executor_scope(executor) as resolved:
        return [
            run_campaign(
                config,
                use_cache=use_cache,
                executor=resolved,
                store=resolved_store,
                batch_size=batch_size,
            )
            for config in configs
        ]


def standard_campaigns(
    n_runs: int = 30,
    seed: int = 2020,
    attacker: AttackerKind = AttackerKind.ROBOTACK,
    predictor: PredictorKind = PredictorKind.NEURAL,
) -> Sequence[CampaignConfig]:
    """The six RoboTack campaigns of paper Table II (without the random baseline)."""
    pairs = [
        ("DS-1", AttackVector.DISAPPEAR),
        ("DS-2", AttackVector.DISAPPEAR),
        ("DS-1", AttackVector.MOVE_OUT),
        ("DS-2", AttackVector.MOVE_OUT),
        ("DS-3", AttackVector.MOVE_IN),
        ("DS-4", AttackVector.MOVE_IN),
    ]
    suffix = "R" if attacker is AttackerKind.ROBOTACK else "R-wo-SH"
    return [
        CampaignConfig(
            campaign_id=f"{scenario}-{vector.name.title()}-{suffix}",
            scenario_id=scenario,
            attacker=attacker,
            vector=vector,
            n_runs=n_runs,
            seed=seed,
            predictor=predictor,
        )
        for scenario, vector in pairs
    ]


def baseline_random_campaign(n_runs: int = 30, seed: int = 2020) -> CampaignConfig:
    """The DS-5 Baseline-Random campaign of paper Table II."""
    return CampaignConfig(
        campaign_id="DS-5-Baseline-Random",
        scenario_id="DS-5",
        attacker=AttackerKind.RANDOM,
        vector=None,
        n_runs=n_runs,
        seed=seed,
    )
