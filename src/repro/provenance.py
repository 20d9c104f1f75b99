"""Result provenance: git revision and configuration fingerprints.

Every exported result document (``BENCH_*.json``, profile reports,
streaming-metrics snapshots, sweep records) is keyed by *where the
code was* and *what machine was simulated* when it was produced, so the
future result-store/dashboard work can join documents across time:

* :func:`git_rev` — the short commit hash of the working tree that
  produced the run (``None`` outside a git checkout; never raises);
* :func:`config_hash` — a stable content hash over every field of a
  :class:`~repro.config.SystemConfig`, including nested cache geometry
  and the protocol kind.  Two configs hash equal iff every architectural
  parameter matches, so a record's hash pins the exact simulated machine.

Both are additive schema fields: readers of the existing ``repro-bench-v1``
and sweep documents ignore unknown keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Optional

from repro.config import SystemConfig


#: per-process memo for :func:`git_rev`, keyed by the resolved cwd.  At
#: campaign scale every sweep cell stamps provenance; without the memo
#: each cell would spawn its own ``git rev-parse`` subprocess.
_GIT_REV_CACHE: dict = {}


def git_rev(cwd: Optional[Path] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (default: this package's checkout).

    Returns ``None`` when git is unavailable or the tree is not a
    repository — provenance is best-effort and must never fail a run.
    The answer is memoized per process (the working tree's HEAD cannot
    move under a run we are stamping), so only the first call pays the
    subprocess.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    if cwd in _GIT_REV_CACHE:
        return _GIT_REV_CACHE[cwd]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        _GIT_REV_CACHE[cwd] = None
        return None
    rev = out.stdout.strip()
    result = rev if out.returncode == 0 and rev else None
    _GIT_REV_CACHE[cwd] = result
    return result


def _jsonable(value: Any) -> Any:
    """Canonical JSON form for config field values (enums by value)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "value") and not isinstance(value, (int, float, str)):
        return value.value  # Enum members (ProtocolKind)
    return value


def config_hash(config: SystemConfig) -> str:
    """Stable 12-hex-digit fingerprint of a full machine configuration.

    Hashes the canonical JSON of every dataclass field (nested cache
    configs included), so any architectural change — protocol, core
    count, latencies, signature geometry, seed — yields a new hash while
    re-running the same config reproduces the old one.
    """
    doc = _jsonable(config)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def provenance(config: Optional[SystemConfig] = None) -> dict:
    """The standard additive provenance fields for a result document."""
    out: dict = {"git_rev": git_rev()}
    if config is not None:
        out["config_hash"] = config_hash(config)
    return out


__all__ = ["config_hash", "git_rev", "provenance"]
