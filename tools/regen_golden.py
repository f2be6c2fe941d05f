#!/usr/bin/env python
"""Regenerate the golden-trace fixtures under tests/golden/.

Run this ONLY when a change is *supposed* to alter simulated behaviour
(new fault mode, different draw order, a fixed bug).  Commit the fixture
diff alongside the change so review sees exactly which numbers moved:

    PYTHONPATH=src python tools/regen_golden.py [--check]

``--check`` regenerates in memory and exits non-zero if the committed
fixtures are stale, without writing anything (useful in CI).  For each
stale fixture it prints the first differing JSON paths with their old
and new values, so a drift that should touch only event counters shows
at a glance whether it did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.testing.golden import (  # noqa: E402 - path bootstrap above
    GOLDEN_SEED,
    TRACE_SCHEMA,
    OFFLOAD_MATRIX_WORKLOAD,
    run_golden_fleet,
    run_golden_scenario,
    run_offload_matrix,
    trace_digest,
)

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
VARIANTS = {
    "pipeline_baseline.json": {"with_faults": False},
    "pipeline_faults.json": {"with_faults": True},
    "pipeline_traced.json": {"with_faults": True, "traced": True},
}
#: The two CI fleet smokes: monitored ring, remediated pairs.
FLEET_VARIANTS = {
    "fleet_monitored.json": {"couple": "ring", "remediate": False},
    "fleet_remediated.json": {"couple": "pairs", "remediate": True},
}
MATRIX_FIXTURE = "offload_matrix.json"
#: How many differing paths ``--check`` prints per stale fixture.
DIFF_LIMIT = 20


def render(with_faults: bool, traced: bool = False) -> dict:
    lines = run_golden_scenario(with_faults, traced=traced)
    doc = {
        "schema": TRACE_SCHEMA,
        "seed": GOLDEN_SEED,
        "with_faults": with_faults,
        "digest": trace_digest(lines),
        "lines": lines,
    }
    if traced:
        # Keyed only when set, so the pre-telemetry fixtures regenerate
        # byte-identically.
        doc["traced"] = True
    return doc


def render_fleet(couple: str, remediate: bool) -> dict:
    """The fleet artifacts as JSON, plus the SHA-256 of their exact text
    (the parsed documents alone would not see an int turn into a float)."""
    texts = run_golden_fleet(couple, remediate)
    return {
        "schema": TRACE_SCHEMA,
        "couple": couple,
        "remediate": remediate,
        "digests": {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(texts.items())
        },
        "merged": json.loads(texts["merged"]),
        "health": json.loads(texts["health"]),
        "actions": texts["actions"].splitlines(),
    }


def render_matrix() -> dict:
    """Every offload-matrix cell as JSON, plus one digest over the cells'
    exact canonical text in name order (the parsed cells alone would not
    see an int turn into a float)."""
    texts = run_offload_matrix()
    names = sorted(texts)
    return {
        "schema": TRACE_SCHEMA,
        "workload": OFFLOAD_MATRIX_WORKLOAD,
        "digest": trace_digest([texts[name] for name in names]),
        "cells": {name: json.loads(texts[name]) for name in names},
    }


def diff_paths(old, new, path: str = ""):
    """Yield ``(path, old, new)`` for every leaf where two JSON values
    differ, in document order; a key or item present on one side only
    shows the other side as ``<missing>``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from diff_paths(
                old.get(key, "<missing>"), new.get(key, "<missing>"),
                f"{path}/{key}",
            )
    elif isinstance(old, list) and isinstance(new, list):
        for index in range(max(len(old), len(new))):
            yield from diff_paths(
                old[index] if index < len(old) else "<missing>",
                new[index] if index < len(new) else "<missing>",
                f"{path}[{index}]",
            )
    elif old != new or type(old) is not type(new):
        yield path or "/", old, new


def report_drift(filename: str, current, fresh) -> None:
    """Print the first :data:`DIFF_LIMIT` paths where ``fresh`` moved."""
    drift = list(diff_paths(current, fresh))
    print(f"STALE    {filename}  {len(drift)} differing paths")
    for path, old, new in drift[:DIFF_LIMIT]:
        print(f"  {path}: {old!r} -> {new!r}")
    if len(drift) > DIFF_LIMIT:
        print(f"  ... {len(drift) - DIFF_LIMIT} more")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify fixtures are current instead of rewriting them",
    )
    args = parser.parse_args()

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    renders = [(name, render, kwargs) for name, kwargs in VARIANTS.items()]
    renders += [
        (name, render_fleet, kwargs) for name, kwargs in FLEET_VARIANTS.items()
    ]
    renders.append((MATRIX_FIXTURE, render_matrix, {}))
    for filename, renderer, kwargs in renders:
        path = GOLDEN_DIR / filename
        fresh = renderer(**kwargs)
        digest = fresh.get("digest") or fresh["digests"]["health"]
        if args.check:
            current = json.loads(path.read_text()) if path.exists() else None
            if current != fresh:
                stale.append(filename)
                report_drift(filename, current, fresh)
                continue
            print(f"ok       {filename}  digest={digest[:16]}…")
        else:
            path.write_text(json.dumps(fresh, indent=1) + "\n")
            print(f"written  {filename}  digest={digest[:16]}…")
    if stale:
        print(f"STALE fixtures: {', '.join(stale)} — rerun without --check")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
