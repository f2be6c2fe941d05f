"""Golden-trace regression tests.

Each test replays the pinned end-to-end scenario from
:mod:`repro.testing.golden` and compares the rendered trace — every job
outcome, failure, and metric, with ``repr`` floats — against the fixture
committed under ``tests/golden/``.  A mismatch means simulated behaviour
changed; if the change is intentional, regenerate with::

    PYTHONPATH=src python tools/regen_golden.py

and commit the fixture diff so review sees exactly which numbers moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sweep import canonical_json
from repro.testing.golden import (
    GOLDEN_SEED,
    TRACE_SCHEMA,
    OFFLOAD_MATRIX_WORKLOAD,
    run_golden_fleet,
    run_golden_scenario,
    run_offload_matrix,
    trace_digest,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN_HINT = (
    "Simulated behaviour diverged from the committed golden trace. If this "
    "change is intentional, run `PYTHONPATH=src python tools/regen_golden.py` "
    "and commit the fixture diff."
)

VARIANTS = [
    ("pipeline_baseline.json", False),
    ("pipeline_faults.json", True),
]

TRACED_FIXTURE = "pipeline_traced.json"

#: (fixture, coupling, remediated): the two CI fleet smoke configurations.
FLEET_VARIANTS = [
    ("fleet_monitored.json", "ring", False),
    ("fleet_remediated.json", "pairs", True),
]


def _load(filename: str) -> dict:
    path = GOLDEN_DIR / filename
    assert path.exists(), f"missing golden fixture {path}"
    return json.loads(path.read_text())


@pytest.mark.parametrize("filename,with_faults", VARIANTS)
def test_trace_matches_committed_fixture(filename, with_faults):
    fixture = _load(filename)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["seed"] == GOLDEN_SEED
    assert fixture["with_faults"] is with_faults

    lines = run_golden_scenario(with_faults)
    # Compare lines first: on drift, the assertion diff shows *which*
    # trace entries moved, not just that two digests differ.
    assert lines == fixture["lines"], REGEN_HINT
    assert trace_digest(lines) == fixture["digest"], REGEN_HINT


@pytest.mark.parametrize("with_faults", [False, True])
def test_scenario_is_deterministic_in_process(with_faults):
    """Two fresh runs in one interpreter produce byte-identical traces."""
    first = run_golden_scenario(with_faults)
    second = run_golden_scenario(with_faults)
    assert first == second
    assert trace_digest(first) == trace_digest(second)


def test_fixture_digest_is_self_consistent():
    """The stored digest matches the stored lines (fixtures not hand-edited)."""
    for filename, _ in VARIANTS:
        fixture = _load(filename)
        assert trace_digest(fixture["lines"]) == fixture["digest"], filename


def test_traced_variant_matches_committed_fixture():
    """The telemetry-enabled run — spans, attribution, labeled metrics,
    and the Chrome-export digest — replays bit-for-bit, so trace-schema
    drift is caught exactly like behavioural drift."""
    fixture = _load(TRACED_FIXTURE)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["traced"] is True

    lines = run_golden_scenario(fixture["with_faults"], traced=True)
    assert lines == fixture["lines"], REGEN_HINT
    assert trace_digest(lines) == fixture["digest"], REGEN_HINT


def test_tracing_does_not_perturb_the_simulation():
    """The standard lines of a traced run are byte-identical to the
    untraced variant: instrumentation adds no events and no RNG draws."""
    untraced = run_golden_scenario(True)
    traced = run_golden_scenario(True, traced=True)
    assert traced[: len(untraced)] == untraced
    extra = traced[len(untraced):]
    assert extra, "traced run should append telemetry lines"
    assert all(
        line.split(" ", 1)[0] in {"trace", "span", "attribution", "labeled"}
        for line in extra
    )


def test_traced_fixture_covers_fault_annotations():
    """The traced fixture actually contains fault-window spans, retry
    instants, and per-phase attribution — not just job spans."""
    joined = "\n".join(_load(TRACED_FIXTURE)["lines"])
    for marker in (
        "cat=fault",
        "cat=cold_start",
        "cat=upload",
        "cat=execute",
        "attribution job=",
        "labeled fault_windows_total",
        "labeled jobs_total",
    ):
        assert marker in joined, f"expected telemetry marker {marker!r}"


def test_fault_variant_actually_injects_faults():
    """The faulted trace differs from the baseline and shows fault activity."""
    baseline = _load("pipeline_baseline.json")
    faulted = _load("pipeline_faults.json")
    assert baseline["digest"] != faulted["digest"]
    joined = "\n".join(faulted["lines"])
    for marker in (
        "faults.injected.zone_outage",
        "faas.retry.outage_waits",
        "faas.hedges",
        "faas.reclamations",
        "faas.straggler_slowdowns",
        "photo_backup.fallbacks",
        "ue.brownouts",
    ):
        assert marker in joined, f"expected fault marker {marker!r} in trace"
    assert not any(line.startswith("metric faults") for line in baseline["lines"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("filename,couple,remediate", FLEET_VARIANTS)
def test_fleet_artifacts_match_committed_fixture(filename, couple, remediate):
    """The merged fleet document, the health document and the action log
    of the pinned fleet replay byte for byte: the parsed documents give a
    readable diff, the digests pin the exact text."""
    fixture = _load(filename)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["couple"] == couple
    assert fixture["remediate"] is remediate

    texts = run_golden_fleet(couple, remediate)
    assert json.loads(texts["merged"]) == fixture["merged"], REGEN_HINT
    assert json.loads(texts["health"]) == fixture["health"], REGEN_HINT
    assert texts["actions"].splitlines() == fixture["actions"], REGEN_HINT
    assert {
        name: _sha256(text) for name, text in texts.items()
    } == fixture["digests"], REGEN_HINT


@pytest.mark.parametrize("filename,couple,remediate", FLEET_VARIANTS)
def test_fleet_fixture_digests_are_self_consistent(filename, couple, remediate):
    """The stored digests are those of the stored documents' canonical
    text (fixtures not hand-edited), and the fixtures exercise what they
    guard: an alert fires, and the remediated fleet acts on it."""
    fixture = _load(filename)
    lines = fixture["actions"]
    assert fixture["digests"] == {
        "actions": _sha256("\n".join(lines) + ("\n" if lines else "")),
        "health": _sha256(canonical_json(fixture["health"]) + "\n"),
        "merged": _sha256(canonical_json(fixture["merged"]) + "\n"),
    }
    assert fixture["health"]["fleet"]["alerts_fired"] >= 1
    assert bool(lines) is remediate


MATRIX_FIXTURE = "offload_matrix.json"


def test_offload_matrix_matches_committed_fixture():
    """Every catalog app x connectivity x scheduler cell of overlapping
    ``offload_run`` jobs, plus the object-store cell, replays byte for
    byte (event counts excluded): a change to how jobs execute in the
    kernel must not move any sim-time result."""
    fixture = _load(MATRIX_FIXTURE)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["workload"] == OFFLOAD_MATRIX_WORKLOAD

    texts = run_offload_matrix()
    assert {
        name: json.loads(text) for name, text in texts.items()
    } == fixture["cells"], REGEN_HINT
    assert trace_digest(
        [texts[name] for name in sorted(texts)]
    ) == fixture["digest"], REGEN_HINT


def test_offload_matrix_fixture_is_self_consistent():
    """The stored digest is that of the stored cells' canonical text,
    and the matrix exercises overlapping jobs and a store-staged run."""
    fixture = _load(MATRIX_FIXTURE)
    cells = fixture["cells"]
    assert fixture["digest"] == trace_digest(
        [canonical_json(cells[name]) for name in sorted(cells)]
    )
    assert len(cells) == 5 * 3 * 3 + 1
    spacing = OFFLOAD_MATRIX_WORKLOAD["spacing_s"]
    assert any(cell["mean_response_s"] > spacing for cell in cells.values())
    assert cells["photo_backup/4g/eager/storage"]["cloud_components"]


def _regen_tool():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_names_the_paths_that_moved(capsys):
    """``regen_golden.py --check`` prints each differing JSON path with
    its old and new value, at most ``DIFF_LIMIT`` of them per fixture."""
    tool = _regen_tool()
    old = {"lines": ["a", "events=640"], "meter": {"fast_lane_hits": 825},
           "n": 1, "gone": True}
    new = {"lines": ["a", "events=516"], "meter": {"fast_lane_hits": 497},
           "n": 1.0, "extra": [1]}
    assert list(tool.diff_paths(old, new)) == [
        ("/lines[1]", "events=640", "events=516"),
        ("/meter/fast_lane_hits", 825, 497),
        ("/n", 1, 1.0),
        ("/gone", True, "<missing>"),
        ("/extra", "<missing>", [1]),
    ]
    assert list(tool.diff_paths(old, old)) == []

    many = {"cells": {str(i): i for i in range(tool.DIFF_LIMIT + 5)}}
    moved = {"cells": {key: -value for key, value in many["cells"].items()}}
    tool.report_drift("x.json", many, moved)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"STALE    x.json  {tool.DIFF_LIMIT + 4} differing paths"
    assert out[1] == "  /cells/1: 1 -> -1"
    assert len(out) == 1 + tool.DIFF_LIMIT + 1
    assert out[-1] == "  ... 4 more"
