"""Tests for the performance observatory (`repro.perf`).

Three layers under test: the always-on :class:`RuntimeMeter` and its
metering sites (kernel lanes, controller plan path, sweep cache), the
unified benchmark harness (registry, canonical document, history
ledger), and the regression sentinel (direction-aware metric checks,
trend forecasts, and the thin legacy wrappers in ``tools/``).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.ledger import LedgerEntry, make_entry
from repro.perf.bench import (
    BENCH_SCHEMA,
    HISTORY_SCHEMA,
    REGISTRY,
    BenchSpec,
    MetricSpec,
    append_history,
    build_document,
    flat_payload,
    history_metrics,
    history_series,
    read_history,
    record_summary,
    register_bench,
    resolve_history_path,
    scrub_volatile,
)
from repro.perf.check import (
    evaluate_bench,
    evaluate_metric,
    trend_outcomes,
)
from repro.perf.check import _load_fresh
from repro.perf.meter import NULL_METER, NullRuntimeMeter, RuntimeMeter
from repro.sim import Simulator
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.spec import canonical_json
from repro.telemetry.registry import LabeledMetricsRegistry

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"


class TestRuntimeMeter:
    def test_snapshot_is_integer_counters_plus_derived_total(self):
        meter = RuntimeMeter()
        meter.fast_lane_hits = 3
        meter.heap_hits = 2
        meter.plans_computed = 1
        snap = meter.snapshot()
        assert snap["fast_lane_hits"] == 3
        assert snap["heap_hits"] == 2
        assert snap["events_dispatched"] == 5
        assert all(isinstance(v, int) for v in snap.values())
        # Wall clocks never enter the snapshot: it must stay a pure
        # function of the simulated work.
        meter.plan_wall_s = 1.5
        assert "plan_wall_s" not in meter.snapshot()

    def test_timings_are_rounded_floats(self):
        meter = RuntimeMeter()
        meter.plan_wall_s = 0.123456789
        timings = meter.timings()
        assert timings["plan_wall_s"] == 0.123457
        assert set(timings) == {
            "plan_wall_s",
            "sweep_wall_s",
            "shard_wall_s",
            "merge_wall_s",
            "kernel_flush_wall_s",
        }

    def test_run_books_batched_events_and_flush_wall(self):
        # run() dispatches the fast lane in batches: every lane dispatch
        # counts in both fast_lane_hits and batched_events, and the drain
        # wall-clock lands in the kernel_flush timing slot.
        sim = Simulator()
        done = []
        for index in range(4):
            event = sim.event()
            event.callbacks.append(lambda e, i=index: done.append(i))
            event.succeed(None)
        sim.run()
        assert done == [0, 1, 2, 3]
        assert sim.meter.batched_events == 4
        assert sim.meter.fast_lane_hits == 4
        assert sim.meter.snapshot()["batched_events"] == 4
        assert sim.meter.timings()["kernel_flush_wall_s"] >= 0.0

    def test_step_dispatches_are_not_batched(self):
        sim = Simulator()
        sim.event().succeed(None)
        sim.step()
        assert sim.meter.fast_lane_hits == 1
        assert sim.meter.batched_events == 0

    def test_absorb_folds_counters_and_timings(self):
        a, b = RuntimeMeter(), RuntimeMeter()
        a.fast_lane_hits = 2
        a.plan_wall_s = 0.5
        b.fast_lane_hits = 3
        b.plan_wall_s = 0.25
        a.absorb(b)
        assert a.fast_lane_hits == 5
        assert a.plan_wall_s == 0.75

    def test_absorb_snapshot_ignores_unknown_keys(self):
        meter = RuntimeMeter()
        meter.absorb_snapshot(
            {"fast_lane_hits": 4, "events_dispatched": 4, "bogus": 9}
        )
        assert meter.fast_lane_hits == 4
        assert meter.events_dispatched == 4

    def test_publish_exports_counters_and_stage_gauges(self):
        meter = RuntimeMeter()
        meter.heap_hits = 7
        meter.merge_wall_s = 0.5
        registry = LabeledMetricsRegistry()
        meter.publish(registry)
        text = registry.to_prometheus()
        assert "repro_meter_heap_hits_total 7" in text
        assert "repro_meter_events_dispatched_total 7" in text
        assert 'repro_meter_wall_seconds{stage="merge"} 0.5' in text

    def test_publish_without_timings_skips_wall_gauges(self):
        meter = RuntimeMeter()
        meter.absorb_snapshot({"fast_lane_hits": 1})
        registry = LabeledMetricsRegistry()
        meter.publish(registry, include_timings=False)
        text = registry.to_prometheus()
        assert "repro_meter_fast_lane_hits_total 1" in text
        assert "repro_meter_wall_seconds" not in text

    def test_null_meter_is_disabled_but_still_counts(self):
        assert RuntimeMeter.enabled is True
        assert NULL_METER.enabled is False
        null = NullRuntimeMeter()
        null.fast_lane_hits += 1
        assert null.events_dispatched == 1


class TestMeterSites:
    def test_kernel_lanes_account_for_every_event(self):
        sim = Simulator()

        def proc():
            for _ in range(10):
                yield sim.timeout(1.0)

        sim.run(until=sim.spawn(proc()))
        meter = sim.meter
        assert meter.events_dispatched == sim.events_processed
        assert meter.fast_lane_hits + meter.heap_hits == sim.events_processed
        assert sim.events_processed > 0

    def test_controller_meters_each_plan(self):
        from repro.apps import photo_backup_app
        from repro.core.controller import Environment, OffloadController

        env = Environment.build(seed=3, connectivity="4g")
        controller = OffloadController(env, photo_backup_app())
        controller.profile_offline()
        before = env.sim.meter.plans_computed
        controller.plan(input_mb=2.0)
        controller.plan(input_mb=4.0)
        assert env.sim.meter.plans_computed - before == 2

    def test_sweep_counts_cache_hits_and_misses(self, tmp_path):
        spec = SweepSpec(
            scenario="repro.sweep.scenarios:kernel_smoke",
            points=[{"n": 5}, {"n": 6}],
        )
        cold = SweepRunner(spec, cache_dir=tmp_path)
        cold.run()
        assert cold.meter.sweep_configs == 2
        assert cold.meter.sweep_cache_misses == 2
        assert cold.meter.sweep_cache_hits == 0
        warm = SweepRunner(spec, cache_dir=tmp_path)
        warm.run()
        assert warm.meter.sweep_configs == 2
        assert warm.meter.sweep_cache_hits == 2
        assert warm.meter.sweep_cache_misses == 0


@pytest.fixture
def scratch_registry():
    """Temporarily register a synthetic bench; restore the registry."""
    saved = dict(REGISTRY)
    try:
        yield REGISTRY
    finally:
        REGISTRY.clear()
        REGISTRY.update(saved)


class TestBenchHarness:
    def test_register_and_record_round_trip(self, scratch_registry):
        @register_bench(
            "XX",
            metrics=(MetricSpec("speed", kind="ratio"),),
            deterministic=("mode", "digest"),
            primary="speed",
        )
        def run_xx():
            return None

        spec = REGISTRY["XX"]
        assert spec.runner is run_xx
        assert spec.primary == "speed"
        assert spec.deterministic == ("mode", "digest")
        record_summary("XX", {"speed": 1.0})
        from repro.perf.bench import LAST_SUMMARIES

        assert LAST_SUMMARIES["XX"] == {"speed": 1.0}

    def test_build_document_splits_on_deterministic_keys(
        self, scratch_registry
    ):
        register_bench(
            "XX", metrics=(), deterministic=("mode", "digest")
        )(lambda: None)
        document = build_document(
            {"XX": {"mode": "short", "digest": "abc", "wall_s": 0.5}},
            mode="short",
            fingerprint={"host": "h"},
        )
        entry = document["benches"]["XX"]
        assert entry["checks"] == {"mode": "short", "digest": "abc"}
        assert entry["timings"] == {"wall_s": 0.5}
        assert document["schema"] == BENCH_SCHEMA
        assert document["fingerprint"] == {"host": "h"}

    def test_scrub_volatile_is_byte_stable(self, scratch_registry):
        register_bench("XX", deterministic=("digest",))(lambda: None)
        results = {"XX": {"digest": "abc", "wall_s": 0.5}}
        one = build_document(results, "short", fingerprint={"host": "a"})
        two = build_document(results, "short", fingerprint={"host": "b"})
        assert canonical_json(scrub_volatile(one)) == canonical_json(
            scrub_volatile(two)
        )
        assert "fingerprint" not in scrub_volatile(one)
        assert "timings" not in scrub_volatile(one)["benches"]["XX"]

    def test_flat_payload_accepts_both_shapes(self):
        entry = {"checks": {"a": 1}, "timings": {"b": 2.0}}
        assert flat_payload(entry) == {"a": 1, "b": 2.0}
        assert flat_payload({"a": 1}) == {"a": 1}

    def test_history_metrics_cover_registered_metrics_only(
        self, scratch_registry
    ):
        register_bench(
            "XX",
            metrics=(
                MetricSpec("speed", kind="ratio"),
                MetricSpec("ok", kind="flag"),
            ),
        )(lambda: None)
        document = build_document(
            {"XX": {"speed": 2.5, "ok": True, "extra": 9.0},
             "YY": {"speed": 1.0}},
            mode="short",
            fingerprint={},
        )
        metrics = history_metrics(document)
        assert metrics == {"XX.speed": 2.5, "XX.ok": 1.0}

    def test_resolve_history_path_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_HISTORY", "env.jsonl")
        assert resolve_history_path("mine.jsonl").name == "mine.jsonl"
        assert resolve_history_path().name == "env.jsonl"
        assert resolve_history_path("") is None
        monkeypatch.setenv("REPRO_BENCH_HISTORY", "")
        assert resolve_history_path() is None
        monkeypatch.delenv("REPRO_BENCH_HISTORY")
        assert resolve_history_path().name == ".repro_bench_history.jsonl"

    def test_history_append_read_series(self, tmp_path, scratch_registry):
        register_bench(
            "XX", metrics=(MetricSpec("speed", kind="ratio"),)
        )(lambda: None)
        path = tmp_path / "history.jsonl"
        for mode, speed in (("short", 1.0), ("full", 9.0), ("short", 2.0)):
            document = build_document(
                {"XX": {"speed": speed}}, mode, fingerprint={}
            )
            append_history(path, document)
        path.write_text(path.read_text() + "not json\n")
        entries = read_history(path)
        assert len(entries) == 3
        assert all(e["schema"] == HISTORY_SCHEMA for e in entries)
        assert history_series(entries, "XX.speed") == [1.0, 9.0, 2.0]
        assert history_series(entries, "XX.speed", mode="short") == [1.0, 2.0]
        assert history_series(entries, "XX.nope") == []


class TestEvaluateMetric:
    def test_flag(self):
        spec = MetricSpec("ok", kind="flag")
        assert evaluate_metric("B", spec, {"ok": True}).status == "ok"
        assert evaluate_metric("B", spec, {"ok": False}).failed

    def test_min_floor_and_gate(self):
        spec = MetricSpec(
            "speedup", kind="min", threshold=3.0,
            gate={"cores_min": 4, "mode": "full"},
        )
        armed = {"speedup": 2.0, "cores": 8, "mode": "full"}
        assert evaluate_metric("B", spec, armed).failed
        passing = {"speedup": 3.5, "cores": 8, "mode": "full"}
        assert evaluate_metric("B", spec, passing).status == "ok"
        few_cores = {"speedup": 0.1, "cores": 1, "mode": "full"}
        assert evaluate_metric("B", spec, few_cores).status == "skip"
        short = {"speedup": 0.1, "cores": 8, "mode": "short"}
        assert evaluate_metric("B", spec, short).status == "skip"

    def test_max_ceiling(self):
        spec = MetricSpec("overhead", kind="max", threshold=2.0)
        assert evaluate_metric("B", spec, {"overhead": 1.5}).status == "ok"
        assert evaluate_metric("B", spec, {"overhead": 2.5}).failed

    def test_ratio_directions(self):
        higher = MetricSpec("speed", kind="ratio", threshold=0.2)
        committed = {"speed": 100.0}
        assert evaluate_metric(
            "B", higher, {"speed": 90.0}, committed
        ).status == "ok"
        assert evaluate_metric("B", higher, {"speed": 70.0}, committed).failed
        lower = MetricSpec(
            "cost", kind="ratio", direction="lower", threshold=0.2
        )
        assert evaluate_metric(
            "B", lower, {"cost": 110.0}, {"cost": 100.0}
        ).status == "ok"
        assert evaluate_metric(
            "B", lower, {"cost": 130.0}, {"cost": 100.0}
        ).failed

    def test_ratio_without_threshold_is_report_only(self):
        spec = MetricSpec("speed", kind="ratio", threshold=None)
        outcome = evaluate_metric("B", spec, {"speed": 1.0}, {"speed": 9.0})
        assert outcome.status == "info"

    def test_ratio_without_baseline_skips(self):
        spec = MetricSpec("speed", kind="ratio", threshold=0.2)
        assert evaluate_metric("B", spec, {"speed": 1.0}).status == "skip"

    def test_equal_and_same_mode_skip(self):
        spec = MetricSpec("digest", kind="equal", same_mode=True)
        fresh = {"digest": "abc", "mode": "short"}
        match = {"digest": "abc", "mode": "short"}
        assert evaluate_metric("B", spec, fresh, match).status == "ok"
        differ = {"digest": "xyz", "mode": "short"}
        assert evaluate_metric("B", spec, fresh, differ).failed
        full = {"digest": "xyz", "mode": "full"}
        assert evaluate_metric("B", spec, fresh, full).status == "skip"

    def test_threshold_override_hits_primary_only(self):
        spec = BenchSpec(
            name="B",
            runner=lambda: None,
            metrics=(
                MetricSpec("speed", kind="ratio", threshold=0.2),
                MetricSpec("other", kind="ratio", threshold=0.2),
            ),
            primary="speed",
        )
        fresh = {"speed": 60.0, "other": 60.0}
        committed = {"speed": 100.0, "other": 100.0}
        outcomes = {
            o.metric: o
            for o in evaluate_bench(spec, fresh, committed, threshold=0.5)
        }
        # 60% of committed: inside the overridden 50% floor for the
        # primary, outside the registered 20% floor for the other.
        assert outcomes["speed"].status == "ok"
        assert outcomes["other"].failed


class TestTrendSentinel:
    @staticmethod
    def _history(values, mode="short"):
        return [
            {"schema": HISTORY_SCHEMA, "mode": mode,
             "metrics": {"B.speed": value}}
            for value in values
        ]

    @staticmethod
    def _spec():
        return BenchSpec(
            name="B",
            runner=lambda: None,
            metrics=(MetricSpec("speed", kind="ratio", threshold=0.2),),
        )

    def test_declining_series_warns_then_fails(self):
        history = self._history([100.0, 90.0, 80.0, 70.0, 60.0, 50.0])
        warn, = trend_outcomes(self._spec(), "short", history)
        assert warn.status == "warn"
        assert warn.metric == "speed~trend"
        fail, = trend_outcomes(self._spec(), "short", history, fail=True)
        assert fail.failed

    def test_flat_series_is_ok(self):
        history = self._history([100.0, 101.0, 99.0, 100.0, 100.0])
        outcome, = trend_outcomes(self._spec(), "short", history)
        assert outcome.status == "ok"

    def test_short_or_wrong_mode_series_is_silent(self):
        assert trend_outcomes(
            self._spec(), "short", self._history([100.0, 50.0])
        ) == []
        history = self._history([100.0, 80.0, 60.0, 40.0], mode="full")
        assert trend_outcomes(self._spec(), "short", history) == []


class TestFreshLoaders:
    def test_load_fresh_document_defaults_mode(self, tmp_path):
        document = {
            "schema": BENCH_SCHEMA,
            "mode": "short",
            "fingerprint": {},
            "benches": {
                "O2": {"checks": {"ops": 5}, "timings": {"wall_s": 0.1}}
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(document))
        payloads = _load_fresh(path)
        assert payloads["O2"] == {"ops": 5, "wall_s": 0.1, "mode": "short"}

    def test_load_fresh_legacy_single_bench(self, tmp_path):
        path = tmp_path / "BENCH_O2.json"
        path.write_text(json.dumps({"bench": "O2", "events_per_s_pure": 5}))
        payloads = _load_fresh(path)
        assert payloads == {"O2": {"bench": "O2", "events_per_s_pure": 5}}

    def test_load_fresh_rejects_unknown_shape(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"what": "ever"}))
        with pytest.raises(SystemExit):
            _load_fresh(path)


def _import_tool(name):
    if str(TOOLS_DIR) not in sys.path:
        sys.path.insert(0, str(TOOLS_DIR))
    import importlib

    return importlib.import_module(name)


def _legacy_o2(path, events_per_s):
    path.write_text(json.dumps({
        "bench": "O2",
        "mode": "short",
        "events_per_s_pure": events_per_s,
    }))
    return path


class TestBenchCLI:
    def test_unified_checker_shim_matches(self, tmp_path):
        from repro.perf.check import main as check_main

        committed = _legacy_o2(tmp_path / "committed.json", 1000.0)
        bad = _legacy_o2(tmp_path / "bad.json", 700.0)
        assert check_main([
            str(bad), "--bench", "O2",
            "--committed", str(committed), "--no-trend",
        ]) == 1
        shim = _import_tool("check_bench")
        assert shim.main is check_main

    def test_checker_gates_f10_byte_identity(self, tmp_path):
        from repro.perf.check import main as check_main

        def f10(name, identical):
            path = tmp_path / name
            path.write_text(json.dumps({
                "bench": "F10", "mode": "short",
                "byte_identical": identical, "speedup_4w": 1.0, "cores": 1,
            }))
            return str(path)

        argv = ["--bench", "F10", "--no-trend"]
        assert check_main([f10("ok.json", True), *argv]) == 0
        assert check_main([f10("bad.json", False), *argv]) == 1

    def test_bench_history_lists_entries(self, tmp_path, capsys,
                                         scratch_registry):
        from repro.cli import main

        register_bench(
            "XX", metrics=(MetricSpec("speed", kind="ratio"),)
        )(lambda: None)
        path = tmp_path / "history.jsonl"
        for speed in (1.0, 2.0):
            append_history(path, build_document(
                {"XX": {"speed": speed}}, "short", fingerprint={}
            ))
        assert main(["bench", "history", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Bench history" in out
        assert "XX.speed=1.0" in out

    def test_bench_history_metric_series(self, tmp_path, capsys,
                                         scratch_registry):
        from repro.cli import main

        register_bench(
            "XX", metrics=(MetricSpec("speed", kind="ratio"),)
        )(lambda: None)
        path = tmp_path / "history.jsonl"
        for speed in (1.0, 2.0):
            append_history(path, build_document(
                {"XX": {"speed": speed}}, "short", fingerprint={}
            ))
        assert main([
            "bench", "history", "--history", str(path),
            "--metric", "XX.speed",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["1.0", "2.0"]

    def test_bench_compare_delegates_to_checker(self, tmp_path, capsys):
        from repro.cli import main

        committed = _legacy_o2(tmp_path / "committed.json", 1000.0)
        ok = _legacy_o2(tmp_path / "ok.json", 950.0)
        assert main([
            "bench", "compare", str(ok), "--bench", "O2",
            "--committed", str(committed), "--no-trend",
        ]) == 0
        assert "O2.events_per_s_pure" in capsys.readouterr().out

    def test_bench_run_rejects_unknown_bench(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["bench", "run", "--short", "--bench", "NOPE"])


class TestLedgerMeter:
    def test_meter_rides_the_entry(self):
        entry = make_entry(
            "run", {"seed": 1}, wall_s=0.1,
            meter={"counters": {"fast_lane_hits": 3},
                   "timings": {"plan_wall_s": 0.01}},
        )
        data = entry.to_dict()
        assert data["meter"]["counters"]["fast_lane_hits"] == 3
        back = LedgerEntry.from_dict(data)
        assert back.meter == entry.meter

    def test_legacy_records_read_back_with_empty_meter(self):
        entry = make_entry("run", {"seed": 1}, wall_s=0.1)
        data = entry.to_dict()
        data.pop("meter")
        assert LedgerEntry.from_dict(data).meter == {}
