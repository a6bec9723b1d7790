"""Canonical content keys and atomic file publication.

Two primitives every content address in the reproduction derives from:

* :func:`encode_key` canonicalizes a key built from primitives, enums,
  tuples, and frozen dataclasses into a stable, process-independent string —
  the experiment store hashes it into campaign config hashes, and the
  training pipeline and search loop into dataset, model, and search hashes;
* :func:`atomic_publish` writes a file through a temp sibling and an
  :func:`os.replace` rename, so concurrent writers never corrupt each other
  and readers never see a torn file.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

__all__ = ["atomic_publish", "encode_key", "fsync_directory"]


def atomic_publish(path: Path, write: Callable[[Any], None], durable: bool = False) -> None:
    """Atomically publish a file: write a temp sibling, then rename over ``path``.

    Concurrent writers race benignly (last one wins, readers always see a
    complete file) and a failure cleans up the temp file.  ``durable=True``
    additionally fsyncs the data before the rename and the directory after
    it — the ordering the experiment store's write-ahead discipline relies
    on ("a log line implies its payload file exists after a crash").
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)


def fsync_directory(path: Path) -> None:
    """fsync a directory, making its entries (renames, new files) durable.

    Best-effort: not every platform can open or fsync a directory (e.g.
    Windows).
    """
    try:  # pragma: no cover - platform-dependent
        dir_fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def encode_key(key: Any) -> str:
    """Canonicalize a cache key into a stable, process-independent string.

    Enums encode as ``ClassName.MEMBER`` (never by identity or hash), frozen
    dataclasses by their field values, and containers recursively — so the
    same logical key encodes identically in every worker process and session.
    """
    if isinstance(key, enum.Enum):
        return f"{type(key).__name__}.{key.name}"
    if key is None or isinstance(key, (bool, int, str, bytes)):
        return repr(key)
    if isinstance(key, float):
        return repr(key)  # repr round-trips floats exactly
    if dataclasses.is_dataclass(key) and not isinstance(key, type):
        fields = ", ".join(
            f"{f.name}={encode_key(getattr(key, f.name))}"
            for f in dataclasses.fields(key)
        )
        return f"{type(key).__name__}({fields})"
    if isinstance(key, (tuple, list)):
        inner = ", ".join(encode_key(item) for item in key)
        open_, close = ("(", ")") if isinstance(key, tuple) else ("[", "]")
        return f"{open_}{inner}{close}"
    if isinstance(key, (dict,)):
        inner = ", ".join(
            f"{encode_key(k)}: {encode_key(key[k])}" for k in sorted(key, key=repr)
        )
        return f"{{{inner}}}"
    if isinstance(key, frozenset):
        inner = ", ".join(sorted(encode_key(item) for item in key))
        return f"frozenset({{{inner}}})"
    raise TypeError(
        f"cannot build a stable cache key from {type(key).__name__}: {key!r}"
    )
