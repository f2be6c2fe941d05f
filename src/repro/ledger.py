"""The run ledger: an append-only JSONL record of every invocation.

Every ``repro run`` / ``sweep`` / ``fleet`` / ``bench run`` invocation
appends one line: what ran (command + argv), the SHA-256 of its
canonical-JSON config, the git revision of the working tree, wall time,
a few key metrics, and the artifact paths it wrote.  The ledger is the
one record of what ran — ``repro ledger show`` lists it, ``repro ledger
show --index N`` replays one entry's full config, ``repro ledger diff
A B`` compares two entries' metrics with the same direction-aware
threshold logic as ``repro diff``, and the trend sentinel of ``repro
bench compare`` forecasts over its ``bench`` rows.

Design constraints:

* **Append-only JSONL.**  One canonical-JSON object per line; a crashed
  write corrupts at most the final line, and :func:`read_ledger` skips
  unparsable lines rather than failing the whole history.
* **Config identity by hash.**  ``config_sha256`` is the SHA-256 of the
  canonical JSON of the config mapping — the same keying the sweep
  cache uses — so "did anything change?" is a string compare across
  entries, machines, and time.
* **No clock in the identity.**  ``recorded_at`` (UTC wall clock) and
  ``wall_s`` are provenance, not identity; everything byte-sensitive
  lives in the config hash and metrics.

The default path is ``.repro_ledger.jsonl`` in the working directory;
the ``REPRO_LEDGER`` environment variable overrides it, and setting it
to the empty string (or passing ``--no-ledger``) disables recording.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sweep.spec import canonical_json

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA",
    "LedgerEntry",
    "append_entry",
    "config_sha256",
    "diff_entries",
    "git_revision",
    "make_entry",
    "read_ledger",
    "render_entries",
    "resolve_ledger_path",
]

#: Schema tag carried by every ledger line.
LEDGER_SCHEMA = "repro.ledger/1"

#: Default ledger file, relative to the working directory.
DEFAULT_LEDGER_PATH = ".repro_ledger.jsonl"

#: Environment variable overriding the ledger path ("" disables).
LEDGER_ENV = "REPRO_LEDGER"


def resolve_ledger_path(explicit: Optional[str] = None) -> Optional[Path]:
    """The ledger file to use, or ``None`` when recording is disabled.

    Precedence: explicit path argument > ``REPRO_LEDGER`` env var >
    default.  An empty string at either level disables recording.
    """
    if explicit is not None:
        return Path(explicit) if explicit else None
    env = os.environ.get(LEDGER_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path(DEFAULT_LEDGER_PATH)


def config_sha256(config: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``config``."""
    return hashlib.sha256(canonical_json(dict(config)).encode()).hexdigest()


def git_revision() -> Optional[str]:
    """The working tree's HEAD revision, or ``None`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded invocation."""

    command: str
    config: Dict[str, Any]
    config_sha256: str
    recorded_at: str
    wall_s: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    argv: List[str] = field(default_factory=list)
    git_rev: Optional[str] = None
    status: str = "ok"
    #: Runtime self-metering of the invocation: ``{"counters": {...},
    #: "timings": {...}}`` from the run's :class:`repro.perf.RuntimeMeter`
    #: snapshot.  Kept separate from ``metrics`` (experiment outcomes) so
    #: direction-aware metric diffs never mix in machine-load noise.
    meter: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": LEDGER_SCHEMA,
            "command": self.command,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "recorded_at": self.recorded_at,
            "wall_s": self.wall_s,
            "metrics": self.metrics,
            "artifacts": self.artifacts,
            "argv": self.argv,
            "git_rev": self.git_rev,
            "status": self.status,
            "meter": self.meter,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "LedgerEntry":
        return LedgerEntry(
            command=str(data["command"]),
            config=dict(data.get("config", {})),
            config_sha256=str(data.get("config_sha256", "")),
            recorded_at=str(data.get("recorded_at", "")),
            wall_s=float(data.get("wall_s", 0.0)),
            metrics=dict(data.get("metrics", {})),
            artifacts=[str(a) for a in data.get("artifacts", ())],
            argv=[str(a) for a in data.get("argv", ())],
            git_rev=data.get("git_rev"),
            status=str(data.get("status", "ok")),
            # Legacy records (pre-meter) read back with an empty meter.
            meter=dict(data.get("meter", {})),
        )


def make_entry(
    command: str,
    config: Mapping[str, Any],
    wall_s: float,
    metrics: Optional[Mapping[str, Any]] = None,
    artifacts: Sequence[str] = (),
    argv: Sequence[str] = (),
    status: str = "ok",
    meter: Optional[Mapping[str, Any]] = None,
) -> LedgerEntry:
    """Build an entry, stamping config hash, git rev, and UTC time."""
    return LedgerEntry(
        command=command,
        config=dict(config),
        config_sha256=config_sha256(config),
        recorded_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        wall_s=round(float(wall_s), 3),
        metrics=dict(metrics or {}),
        artifacts=[str(a) for a in artifacts],
        argv=[str(a) for a in argv],
        git_rev=git_revision(),
        status=status,
        meter=dict(meter or {}),
    )


def append_entry(path: Path, entry: LedgerEntry) -> int:
    """Append one entry; returns its index in the ledger."""
    path.parent.mkdir(parents=True, exist_ok=True)
    index = 0
    if path.exists():
        with path.open("r") as handle:
            index = sum(1 for line in handle if line.strip())
    with path.open("a") as handle:
        handle.write(canonical_json(entry.to_dict()) + "\n")
    return index


def read_ledger(path: Path) -> List[LedgerEntry]:
    """Every parsable entry in file order (corrupt lines are skipped)."""
    if not path.exists():
        return []
    entries: List[LedgerEntry] = []
    with path.open("r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if data.get("schema") != LEDGER_SCHEMA:
                    continue
                entries.append(LedgerEntry.from_dict(data))
            except (ValueError, KeyError, TypeError):
                continue
    return entries


def render_entries(indexed: Sequence[Tuple[int, LedgerEntry]]) -> str:
    """A compact terminal table of ``(ledger index, entry)`` pairs."""
    lines = [
        f"{'#':>4}  {'recorded_at':<20} {'command':<7} {'status':<6} "
        f"{'config':<12} {'git':<9} {'wall_s':>8}  metrics"
    ]
    for index, entry in indexed:
        brief = ", ".join(
            f"{key}={entry.metrics[key]}" for key in sorted(entry.metrics)[:4]
        )
        lines.append(
            f"{index:>4}  {entry.recorded_at:<20} "
            f"{entry.command:<7} {entry.status:<6} "
            f"{entry.config_sha256[:12]:<12} "
            f"{(entry.git_rev or '-'):<9} {entry.wall_s:>8.3f}  {brief}"
        )
    return "\n".join(lines) + "\n"


def diff_entries(a: LedgerEntry, b: LedgerEntry, threshold: float = 0.05):
    """Compare two entries' numeric metrics via the profile differ.

    Returns a :class:`~repro.monitor.diff.TraceDiff`; direction-aware
    regressions follow the same higher-is-better table ``repro diff``
    uses.  Raises ``ValueError`` when the entries ran different
    commands (their metrics would not be comparable) or are ``bench``
    rows, whose throughput metrics that table would read backwards.
    """
    from repro.monitor.diff import Profile, diff_profiles

    if a.command != b.command:
        raise ValueError(
            f"cannot diff a {a.command!r} run against a {b.command!r} run"
        )
    if a.command == "bench":
        raise ValueError(
            "bench rows carry per-metric directions the ledger diff does "
            "not know; judge them with 'repro bench compare'"
        )

    def numeric(entry: LedgerEntry) -> Dict[str, float]:
        return {
            key: float(value)
            for key, value in entry.metrics.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    profile_a = Profile(
        kind="ledger", path=f"ledger:{a.config_sha256[:12]}",
        metrics=numeric(a),
    )
    profile_b = Profile(
        kind="ledger", path=f"ledger:{b.config_sha256[:12]}",
        metrics=numeric(b),
    )
    return diff_profiles(profile_a, profile_b, threshold=threshold)
