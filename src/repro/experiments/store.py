"""Durable, append-only, content-addressed experiment store.

The paper's evaluation is thousands of Monte-Carlo simulation runs over a
(scenario x attack-vector x variation) grid.  A
:class:`~repro.experiments.results.CampaignResult` held in memory is no
queryable record of individual runs, and an interrupted campaign would
restart from zero.  :class:`ExperimentStore` is the one persistence path that
fixes both:

* every simulation run flattens into a :class:`RunRecord` — campaign config
  hash, per-run seed, the exact :class:`~repro.sim.scenarios.ScenarioVariation`
  instantiated, the simulation events, the per-step safety-potential traces,
  and the outcome flags of the paper's evaluation;
* records are *content-addressed* by the campaign's config hash
  (SHA-256 over the canonical :func:`~repro.runtime.cache.encode_key`
  encoding of ``CampaignConfig.cache_key()``) and *append-only*: scalars go
  to one JSONL line per run under ``runs/<hash>.jsonl`` and the δ-traces to
  ``traces/<hash>/<run_index>.npz``;
* appends are crash-safe and multi-process-safe: the NPZ is published with a
  temp-file + :func:`os.replace` rename, and the JSONL line is written under
  an exclusive ``flock`` in a single ``write`` call, so concurrent writers
  never corrupt or interleave records;
* a campaign *manifest* (the JSON-serialized config) is stored next to the
  records, which is what makes ``repro-campaign resume`` possible without
  re-specifying the campaign on the command line.

Store layout::

    <root>/
      manifests/<config_hash>.json      # the CampaignConfig, JSON-serialized
      manifests/datasets/<collection_hash>.json   # dataset-collection provenance
      runs/<config_hash>.jsonl          # one line per completed run
      traces/<config_hash>/<run>.npz    # per-step δ / speed traces
      datasets/<collection_hash>.jsonl  # one line per collected training grid point
      models/<model_hash>/              # a persisted predictor + registry.json
      models/index/<spec_hash>.json     # training-spec hash -> model hash
      searches/<search_hash>/           # falsification-search manifest,
                                        #   state.json checkpoint, iterations.jsonl

The *dataset* records are the second record kind: the safety-hijacker
training pipeline streams each ``(delta_inject, k)`` grid point's collected
sample batch into ``datasets/<collection_hash>.jsonl`` as its batch chunk
completes, so an interrupted collection resumes by skipping the stored point
indices — the same crash/resume discipline as campaign runs.  The *model
registry* is content-addressed: a trained predictor lives under the SHA-256
of its (dataset content hash, training config) pair, and ``models/index/``
maps the hash of the *specification* (scenario, vector, grids, seeds, epochs)
to that model so campaign processes can load a pretrained oracle without
ever touching the dataset.

Every consumer reads stored runs as :class:`RunRecord` objects through one
load/query API (:meth:`ExperimentStore.load_records`,
:meth:`ExperimentStore.iter_records`, :meth:`ExperimentStore.campaign_result`,
:meth:`ExperimentStore.summaries`): the table and figure generators, resume,
and the falsification search's objectives.  Underneath, every JSON read goes
through one of two readers — ``_scan_jsonl`` for the logs, ``_read_document``
for the documents — and both reject a record written by a newer
:data:`SCHEMA_VERSION`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.attack_vectors import AttackVector
from repro.experiments.results import CampaignResult, RunResult
from repro.runtime.cache import atomic_publish, encode_key, fsync_directory
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation

try:  # pragma: no cover - fcntl is always present on the Linux CI targets
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - type hints only (campaign imports us)
    from repro.experiments.campaign import CampaignConfig

__all__ = [
    "RunRecord",
    "ExperimentStore",
    "StoreLike",
    "resolve_store",
    "config_hash",
    "records_equal",
]

#: Bump when a store document or log line changes incompatibly; both readers
#: (``_scan_jsonl``, ``_read_document``) reject anything newer.
SCHEMA_VERSION = 1

#: One recorded simulation event: (kind value, step index, time, details).
EventTuple = Tuple[str, int, float, Dict[str, float]]


def _check_schema(payload: Dict[str, object], path: Path) -> None:
    """Reject a document or log line written by a newer store schema."""
    schema = int(payload.get("schema", 0))  # type: ignore[arg-type]
    if schema > SCHEMA_VERSION:
        raise ValueError(
            f"{path} was written by a newer schema ({schema} > {SCHEMA_VERSION})"
        )


def config_hash(config: "CampaignConfig") -> str:
    """Content address of a campaign: SHA-256 of its canonical cache key.

    Two configs that could produce different results never share a hash (the
    hash covers every field of ``cache_key()``), and the same logical config
    hashes identically in every process and session.
    """
    return hashlib.sha256(encode_key(config.cache_key()).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One simulation run, flattened for durable storage.

    ``result`` carries the paper's per-run evaluation fields; the record adds
    the provenance (config hash, instantiated variation) and the raw material
    (events, traces) needed to regenerate figures without re-simulating.
    Equality is deliberately not synthesized (the traces are arrays); use
    :func:`records_equal` in tests.
    """

    config_hash: str
    campaign_id: str
    run_index: int
    #: The derived per-run seed (``SeedSequence([campaign_seed, run_index])``).
    seed: int
    #: The exact initial-condition variation this run instantiated.
    variation: ScenarioVariation
    result: RunResult
    steps_executed: int
    duration_s: float
    halted_on_collision: bool
    #: Simulation events as (kind, step_index, time_s, details) tuples.
    events: Tuple[EventTuple, ...]
    #: Ground-truth safety potential per step.
    true_delta_trace: np.ndarray
    #: Safety potential as perceived by the ADS per step.
    perceived_delta_trace: np.ndarray
    #: Ego speed per step.
    ego_speed_trace: np.ndarray

    @property
    def scenario_id(self) -> str:
        return self.result.scenario_id

    @property
    def attacker_kind(self) -> str:
        return self.result.attacker_kind

    # ------------------------------------------------------------------ #
    # JSON (de)serialization — traces travel separately as NPZ
    # ------------------------------------------------------------------ #

    def to_json_dict(self) -> Dict[str, object]:
        """The scalar payload of this record (everything but the traces)."""
        result = dataclasses.asdict(self.result)
        result["vector"] = self.result.vector.name if self.result.vector else None
        result["target_kind"] = (
            self.result.target_kind.value if self.result.target_kind else None
        )
        return {
            "schema": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "campaign_id": self.campaign_id,
            "run_index": self.run_index,
            "seed": self.seed,
            "variation": dataclasses.asdict(self.variation),
            "result": result,
            "steps_executed": self.steps_executed,
            "duration_s": self.duration_s,
            "halted_on_collision": self.halted_on_collision,
            "events": [list(event) for event in self.events],
        }

    @staticmethod
    def from_json_dict(
        payload: Dict[str, object],
        true_delta_trace: np.ndarray,
        perceived_delta_trace: np.ndarray,
        ego_speed_trace: np.ndarray,
    ) -> "RunRecord":
        result_payload = dict(payload["result"])  # type: ignore[arg-type]
        vector = result_payload["vector"]
        result_payload["vector"] = AttackVector[vector] if vector else None
        target_kind = result_payload["target_kind"]
        result_payload["target_kind"] = ActorKind(target_kind) if target_kind else None
        return RunRecord(
            config_hash=str(payload["config_hash"]),
            campaign_id=str(payload["campaign_id"]),
            run_index=int(payload["run_index"]),
            seed=int(payload["seed"]),
            variation=ScenarioVariation(**payload["variation"]),  # type: ignore[arg-type]
            result=RunResult(**result_payload),
            steps_executed=int(payload["steps_executed"]),
            duration_s=float(payload["duration_s"]),
            halted_on_collision=bool(payload["halted_on_collision"]),
            events=tuple(
                (str(kind), int(step), float(time_s), dict(details))
                for kind, step, time_s, details in payload["events"]  # type: ignore[union-attr]
            ),
            true_delta_trace=np.asarray(true_delta_trace, dtype=np.float64),
            perceived_delta_trace=np.asarray(perceived_delta_trace, dtype=np.float64),
            ego_speed_trace=np.asarray(ego_speed_trace, dtype=np.float64),
        )


def _floats_equal(left: float, right: float) -> bool:
    if isinstance(left, float) and np.isnan(left):
        return isinstance(right, float) and np.isnan(right)
    return left == right


def records_equal(left: RunRecord, right: RunRecord) -> bool:
    """Field-wise equality with NaN == NaN (the test-suite comparator)."""
    for name in ("config_hash", "campaign_id", "run_index", "seed", "variation",
                 "steps_executed", "halted_on_collision", "events"):
        if getattr(left, name) != getattr(right, name):
            return False
    if not _floats_equal(left.duration_s, right.duration_s):
        return False
    for name in RunResult.__dataclass_fields__:
        if not _floats_equal(getattr(left.result, name), getattr(right.result, name)):
            return False
    for name in ("true_delta_trace", "perceived_delta_trace", "ego_speed_trace"):
        if not np.array_equal(getattr(left, name), getattr(right, name), equal_nan=True):
            return False
    return True


class ExperimentStore:
    """A durable run store rooted at a directory (see module docstring).

    The store is safe to share between the worker processes of a
    :class:`~repro.runtime.executor.ParallelExecutor` and between concurrent
    campaign processes: all writes are atomic appends or atomic renames.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def _runs_path(self, config_hash_: str) -> Path:
        return self.root / "runs" / f"{config_hash_}.jsonl"

    def _traces_dir(self, config_hash_: str) -> Path:
        return self.root / "traces" / config_hash_

    def _trace_path(self, config_hash_: str, run_index: int) -> Path:
        return self._traces_dir(config_hash_) / f"{run_index:06d}.npz"

    def _manifest_path(self, config_hash_: str) -> Path:
        return self.root / "manifests" / f"{config_hash_}.json"

    def _dataset_path(self, collection_hash_: str) -> Path:
        return self.root / "datasets" / f"{collection_hash_}.jsonl"

    def _dataset_manifest_path(self, collection_hash_: str) -> Path:
        return self.root / "manifests" / "datasets" / f"{collection_hash_}.json"

    def model_dir(self, model_hash_: str) -> Path:
        """The directory of a registered model (may not exist yet)."""
        return self.root / "models" / model_hash_

    def _model_index_path(self, spec_hash_: str) -> Path:
        return self.root / "models" / "index" / f"{spec_hash_}.json"

    def search_dir(self, search_hash_: str) -> Path:
        """The directory of a falsification search (may not exist yet)."""
        return self.root / "searches" / search_hash_

    def _search_manifest_path(self, search_hash_: str) -> Path:
        return self.search_dir(search_hash_) / "manifest.json"

    def _search_state_path(self, search_hash_: str) -> Path:
        return self.search_dir(search_hash_) / "state.json"

    def _search_iterations_path(self, search_hash_: str) -> Path:
        return self.search_dir(search_hash_) / "iterations.jsonl"

    # ------------------------------------------------------------------ #
    # Append path
    # ------------------------------------------------------------------ #

    def append(self, record: RunRecord) -> None:
        """Durably record one completed run (multi-process safe).

        The traces are published first (fsynced atomic rename), then the
        JSONL line is appended under an exclusive lock — a crash between the
        two steps leaves an orphaned NPZ, never a dangling JSONL line, so
        every line in the log always has its traces.  If an earlier writer
        died mid-append and left a torn tail without a newline, the next
        append starts on a fresh line rather than gluing onto (and thereby
        hiding) the torn one.  Re-appending a run index is allowed
        (crash/retry overlap); readers keep the last occurrence.
        """
        self._write_traces(record)
        self._append_jsonl(self._runs_path(record.config_hash), record.to_json_dict())

    @staticmethod
    def _append_jsonl(path: Path, payload: Dict[str, object]) -> None:
        """Append one JSON line to a log (flock-exclusive, single write, fsynced)."""
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        with os.fdopen(fd, "r+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                size = handle.seek(0, os.SEEK_END)
                prefix = b""
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        prefix = b"\n"
                # One write call; O_APPEND positions it at the current end.
                handle.write(prefix + line.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    @staticmethod
    def _write_document(path: Path, fields: Dict[str, object]) -> None:
        """Publish one JSON document, ``schema`` first (atomic, fsynced)."""
        document = {"schema": SCHEMA_VERSION, **fields}
        atomic_publish(
            path,
            lambda handle: handle.write(json.dumps(document, indent=2).encode("utf-8")),
            durable=True,
        )

    def _write_traces(self, record: RunRecord) -> None:
        def write(handle) -> None:
            np.savez_compressed(
                handle,
                true_delta=np.asarray(record.true_delta_trace, dtype=np.float64),
                perceived_delta=np.asarray(
                    record.perceived_delta_trace, dtype=np.float64
                ),
                ego_speed=np.asarray(record.ego_speed_trace, dtype=np.float64),
            )

        atomic_publish(
            self._trace_path(record.config_hash, record.run_index), write, durable=True
        )

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #

    def write_manifest(self, config: "CampaignConfig") -> str:
        """Record the campaign config (idempotent); returns its hash."""
        config_hash_ = config_hash(config)
        path = self._manifest_path(config_hash_)
        if path.exists():
            return config_hash_
        self._write_document(
            path, {"config_hash": config_hash_, "config": config.to_json_dict()}
        )
        return config_hash_

    def load_manifest(self, config_hash_: str) -> "CampaignConfig":
        """Reconstruct the campaign config stored under a hash."""
        from repro.experiments.campaign import CampaignConfig

        payload = self._read_document(self._manifest_path(config_hash_))
        return CampaignConfig.from_json_dict(payload["config"])  # type: ignore[arg-type]

    def manifests(self) -> Dict[str, "CampaignConfig"]:
        """All stored campaign configs, keyed by config hash."""
        directory = self.root / "manifests"
        if not directory.exists():
            return {}
        return {
            path.stem: self.load_manifest(path.stem)
            for path in sorted(directory.glob("*.json"))
        }

    # ------------------------------------------------------------------ #
    # Load / query
    # ------------------------------------------------------------------ #

    def run_indices(self, config_hash_: str) -> Set[int]:
        """The run indices already durably recorded for a campaign."""
        return set(self._scan_lines(config_hash_))

    def load_records(
        self, config_hash_: str, with_traces: bool = True
    ) -> List[RunRecord]:
        """All records of a campaign, sorted by run index (last write wins).

        ``with_traces=False`` skips the NPZ loads (the traces come back as
        empty arrays) — the fast path for tables and search scoring.
        """
        by_index = self._scan_lines(config_hash_)
        records: List[RunRecord] = []
        empty = np.empty(0, dtype=np.float64)
        for run_index in sorted(by_index):
            payload = by_index[run_index]
            if with_traces:
                traces = self._load_traces(config_hash_, run_index)
            else:
                traces = (empty, empty, empty)
            records.append(RunRecord.from_json_dict(payload, *traces))
        return records

    def _scan_lines(self, config_hash_: str) -> Dict[int, Dict[str, object]]:
        return self._scan_jsonl(self._runs_path(config_hash_), "run_index")

    @staticmethod
    def _scan_jsonl(path: Path, index_field: str) -> Dict[int, Dict[str, object]]:
        """Read a JSONL log keyed by ``index_field`` (last occurrence wins).

        The one reader of every log (runs, dataset points, search
        iterations); a line written by a newer schema raises.
        """
        if not path.exists():
            return {}
        by_index: Dict[int, Dict[str, object]] = {}
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    # A torn line can only be the (crashed) tail of the log;
                    # everything before it is intact.
                    continue
                _check_schema(payload, path)
                by_index[int(payload[index_field])] = payload
        return by_index

    @staticmethod
    def _read_document(path: Path) -> Dict[str, object]:
        """The one reader of every JSON document; a newer schema raises."""
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
        _check_schema(payload, path)
        return payload

    def _load_traces(
        self, config_hash_: str, run_index: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        path = self._trace_path(config_hash_, run_index)
        with np.load(path) as archive:
            return (
                archive["true_delta"],
                archive["perceived_delta"],
                archive["ego_speed"],
            )

    def iter_records(
        self,
        scenario_id: Optional[str] = None,
        attacker_kind: Optional[str] = None,
        campaign_id: Optional[str] = None,
        with_traces: bool = False,
    ) -> Iterator[RunRecord]:
        """Query records across every stored campaign, with optional filters.

        Campaigns whose manifest already contradicts a filter are skipped
        without scanning their JSONL at all (the filtered fields are constant
        per campaign), so filtered queries scale with the matching subset,
        not the whole store.  Logs without a manifest are always scanned.
        """
        runs_dir = self.root / "runs"
        if not runs_dir.exists():
            return
        manifests = (
            self.manifests()
            if scenario_id is not None or attacker_kind is not None or campaign_id is not None
            else {}
        )
        for path in sorted(runs_dir.glob("*.jsonl")):
            config = manifests.get(path.stem)
            if config is not None:
                if scenario_id is not None and config.scenario_id != scenario_id:
                    continue
                if attacker_kind is not None and config.attacker.value != attacker_kind:
                    continue
                if campaign_id is not None and config.campaign_id != campaign_id:
                    continue
            for record in self.load_records(path.stem, with_traces=with_traces):
                if scenario_id is not None and record.scenario_id != scenario_id:
                    continue
                if attacker_kind is not None and record.attacker_kind != attacker_kind:
                    continue
                if campaign_id is not None and record.campaign_id != campaign_id:
                    continue
                yield record

    # ------------------------------------------------------------------ #
    # Dataset records — streamed safety-hijacker training collection
    # ------------------------------------------------------------------ #

    def append_dataset_point(
        self,
        collection_hash_: str,
        point_index: int,
        inputs: Sequence[Sequence[float]],
        targets: Sequence[float],
    ) -> None:
        """Durably record one collected training grid point (multi-process safe).

        ``inputs``/``targets`` are the sample rows the point contributed (zero
        rows when the scripted attack never fired); floats survive the JSON
        round-trip bit-exactly, which is what keeps a store-assembled dataset
        identical to an in-memory one.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "point_index": int(point_index),
            "inputs": [[float(value) for value in row] for row in inputs],
            "targets": [float(value) for value in targets],
        }
        self._append_jsonl(self._dataset_path(collection_hash_), payload)

    def dataset_point_indices(self, collection_hash_: str) -> Set[int]:
        """The grid-point indices already durably collected (the resume skip set)."""
        return set(self._scan_jsonl(self._dataset_path(collection_hash_), "point_index"))

    def load_dataset_points(
        self, collection_hash_: str
    ) -> Dict[int, Tuple[List[List[float]], List[float]]]:
        """All collected grid points, keyed by point index (last write wins)."""
        by_index = self._scan_jsonl(self._dataset_path(collection_hash_), "point_index")
        return {
            point_index: (
                [[float(value) for value in row] for row in payload["inputs"]],
                [float(value) for value in payload["targets"]],
            )
            for point_index, payload in by_index.items()
        }

    def write_dataset_manifest(
        self, collection_hash_: str, payload: Dict[str, object]
    ) -> None:
        """Record a collection's provenance (idempotent)."""
        path = self._dataset_manifest_path(collection_hash_)
        if path.exists():
            return
        self._write_document(path, {"collection_hash": collection_hash_, **payload})

    def load_dataset_manifest(self, collection_hash_: str) -> Dict[str, object]:
        """The provenance document of a stored collection."""
        return self._read_document(self._dataset_manifest_path(collection_hash_))

    # ------------------------------------------------------------------ #
    # Model registry — content-addressed trained predictors
    # ------------------------------------------------------------------ #

    def has_model(self, model_hash_: str) -> bool:
        """Whether a model directory is fully published under this hash."""
        return self.model_dir(model_hash_).is_dir()

    def publish_model(
        self,
        model_hash_: str,
        write: Callable[[Path], None],
        metadata: Dict[str, object],
    ) -> Path:
        """Atomically publish a model directory under its content hash.

        ``write`` populates a temporary sibling directory, which is then
        renamed into place — readers never observe a half-written model, and
        concurrent publishers of the same hash race benignly (the loser's
        rename fails against the existing directory and is discarded: the
        content address guarantees both wrote the same artifact).  Every file
        and directory of the staging tree is fsynced before the rename and
        ``models/`` after it, so an index entry written afterwards
        (:meth:`register_model_spec`) never survives a crash that its model
        does not.
        """
        final = self.model_dir(model_hash_)
        if final.is_dir():
            return final
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = final.parent / f".tmp-{model_hash_}-{os.getpid()}"
        try:
            staging.mkdir(parents=True, exist_ok=True)
            write(staging)
            self._write_document(
                staging / "registry.json", {"model_hash": model_hash_, **metadata}
            )
            for directory, _, files in os.walk(staging, topdown=False):
                for name in files:
                    with open(os.path.join(directory, name), "rb") as handle:
                        os.fsync(handle.fileno())
                fsync_directory(Path(directory))
            try:
                os.replace(staging, final)
            except OSError:
                if not final.is_dir():
                    raise
            fsync_directory(final.parent)
        finally:
            if staging.is_dir():
                shutil.rmtree(staging, ignore_errors=True)
        return final

    def load_model_metadata(self, model_hash_: str) -> Dict[str, object]:
        """The registry document published next to a model's artifact files."""
        return self._read_document(self.model_dir(model_hash_) / "registry.json")

    def register_model_spec(
        self, spec_hash_: str, model_hash_: str, metadata: Optional[Dict[str, object]] = None
    ) -> None:
        """Map a training-spec hash to a published model (last write wins)."""
        self._write_document(
            self._model_index_path(spec_hash_),
            {"spec_hash": spec_hash_, "model_hash": model_hash_, **(metadata or {})},
        )

    def resolve_model_spec(self, spec_hash_: str) -> Optional[str]:
        """The model hash registered for a training spec, if any."""
        path = self._model_index_path(spec_hash_)
        if not path.exists():
            return None
        return str(self._read_document(path)["model_hash"])

    def model_hashes(self) -> List[str]:
        """Every fully published model hash in the registry."""
        directory = self.root / "models"
        if not directory.exists():
            return []
        return sorted(
            path.name
            for path in directory.iterdir()
            if path.is_dir() and path.name != "index" and not path.name.startswith(".")
        )

    # ------------------------------------------------------------------ #
    # Search records — falsification-loop checkpoints and reports
    # ------------------------------------------------------------------ #

    def write_search_manifest(self, search_hash_: str, payload: Dict[str, object]) -> None:
        """Record a search's specification (idempotent, content-addressed).

        The manifest is what makes ``repro-campaign search`` auto-resume
        possible: the same spec hashes to the same directory, so a restarted
        search finds its own checkpoint without re-specifying anything.
        """
        path = self._search_manifest_path(search_hash_)
        if path.exists():
            return
        self._write_document(path, {"search_hash": search_hash_, **payload})

    def load_search_manifest(self, search_hash_: str) -> Dict[str, object]:
        """The specification document of a stored search."""
        return self._read_document(self._search_manifest_path(search_hash_))

    def save_search_state(self, search_hash_: str, payload: Dict[str, object]) -> None:
        """Atomically checkpoint a search's sampler/loop state (last write wins).

        Same durability discipline as the model registry: temp file + fsynced
        rename, so a SIGKILL mid-write leaves the previous checkpoint intact,
        never a torn one.
        """
        self._write_document(
            self._search_state_path(search_hash_), {"search_hash": search_hash_, **payload}
        )

    def load_search_state(self, search_hash_: str) -> Optional[Dict[str, object]]:
        """The latest checkpoint of a search, or ``None`` if never saved."""
        path = self._search_state_path(search_hash_)
        if not path.exists():
            return None
        return self._read_document(path)

    def append_search_iteration(
        self, search_hash_: str, payload: Dict[str, object]
    ) -> None:
        """Durably record one completed search iteration (multi-process safe)."""
        document = {"schema": SCHEMA_VERSION, **payload}
        self._append_jsonl(self._search_iterations_path(search_hash_), document)

    def load_search_iterations(self, search_hash_: str) -> List[Dict[str, object]]:
        """All recorded iterations of a search, sorted (last write wins)."""
        by_index = self._scan_jsonl(self._search_iterations_path(search_hash_), "iteration")
        return [by_index[index] for index in sorted(by_index)]

    def search_hashes(self) -> List[str]:
        """Every search recorded in the store (manifest present)."""
        directory = self.root / "searches"
        if not directory.exists():
            return []
        return sorted(
            path.name
            for path in directory.iterdir()
            if path.is_dir() and (path / "manifest.json").exists()
        )

    # ------------------------------------------------------------------ #
    # Campaign results — what tables/figures consume
    # ------------------------------------------------------------------ #

    def campaign_result(
        self, config: "CampaignConfig", allow_partial: bool = False
    ) -> CampaignResult:
        """Assemble the stored runs of a campaign into a :class:`CampaignResult`.

        An incomplete (interrupted, not yet resumed) campaign raises by
        default — statistics over a partial run set are silently wrong.
        ``allow_partial=True`` opts into partial assembly (how the resume
        machinery inspects in-flight campaigns).
        """
        records = self.load_records(config_hash(config), with_traces=False)
        if not allow_partial and len(records) != config.n_runs:
            raise ValueError(
                f"campaign {config.campaign_id!r} is incomplete: "
                f"{len(records)} of {config.n_runs} runs stored — finish it "
                f"with `repro-campaign resume --store {self.root}` or pass "
                "allow_partial=True"
            )
        return CampaignResult(
            campaign_id=config.campaign_id,
            scenario_id=config.scenario_id,
            attacker_kind=config.attacker.value,
            vector=config.vector,
            runs=[record.result for record in records],
        )

    def campaign_results(
        self,
        config_hashes: Optional[Sequence[str]] = None,
        allow_partial: bool = False,
    ) -> List[CampaignResult]:
        """Stored campaigns as :class:`CampaignResult` objects (all by default).

        Raises on incomplete campaigns unless ``allow_partial=True`` — an
        aggregate built over a partial run set is a silently wrong statistic —
        and on explicitly requested hashes with no stored manifest (a missing
        campaign must not silently vanish from a table).
        """
        manifests = self.manifests()
        if config_hashes is None:
            hashes = sorted(manifests)
        else:
            hashes = list(config_hashes)
            unknown = [h for h in hashes if h not in manifests]
            if unknown:
                raise KeyError(
                    f"no manifest stored for config hash(es) {unknown}; "
                    "was the campaign ever started with this store?"
                )
        return [
            self.campaign_result(manifests[h], allow_partial=allow_partial)
            for h in hashes
        ]

    def incomplete_campaigns(self) -> List[Tuple["CampaignConfig", Set[int]]]:
        """Stored campaigns with missing run indices — the resume worklist."""
        incomplete = []
        for config_hash_, config in sorted(self.manifests().items()):
            missing = set(range(config.n_runs)) - self.run_indices(config_hash_)
            if missing:
                incomplete.append((config, missing))
        return incomplete

    def summaries(self, allow_partial: bool = False) -> List["CampaignSummary"]:  # noqa: F821
        """Per-campaign summary rows (EB/crash rates) over every stored campaign."""
        from repro.experiments.metrics import summarize_campaign

        return [
            summarize_campaign(result)
            for result in self.campaign_results(allow_partial=allow_partial)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExperimentStore({str(self.root)!r})"


#: Anything the ``store=`` knobs accept: a store instance or its root path.
StoreLike = Union[ExperimentStore, str, Path, None]


def resolve_store(store: StoreLike) -> Optional[ExperimentStore]:
    """Coerce a store spec (instance, root path, or ``None``) to a store."""
    if store is None or isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)
