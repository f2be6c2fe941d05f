"""Tests for the parallel sweep subsystem (`repro.sweep`)."""

import json
import os

import pytest

from repro.sweep import (
    SweepRunner,
    SweepSpec,
    canonical_json,
    config_hash,
    config_key,
    resolve_scenario,
    run_sweep,
    scenario_ref,
)

KERNEL_SMOKE = "repro.sweep.scenarios:kernel_smoke"


def double(config):
    """A trivial local scenario for in-process runner tests."""
    return {"doubled": config["x"] * 2, "tag": config.get("tag", "none")}


class TestCanonicalisation:
    def test_canonical_json_is_insertion_order_free(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_config_key_round_trips(self):
        config = {"b": [1, 2], "a": {"nested": True}}
        assert json.loads(config_key(config)) == config

    def test_config_hash_depends_on_scenario_and_config(self):
        h = config_hash("m:f", {"x": 1})
        assert h == config_hash("m:f", {"x": 1})
        assert h != config_hash("m:g", {"x": 1})
        assert h != config_hash("m:f", {"x": 2})

    def test_scenario_ref_of_callable(self):
        assert scenario_ref(double) == f"{double.__module__}:double"

    def test_scenario_ref_rejects_bare_names(self):
        with pytest.raises(ValueError, match="module.*function"):
            scenario_ref("no_colon_here")

    def test_resolve_scenario_imports_by_name(self):
        fn = resolve_scenario(KERNEL_SMOKE)
        assert callable(fn)

    def test_resolve_scenario_missing_attribute(self):
        with pytest.raises(ValueError, match="no attribute"):
            resolve_scenario("repro.sweep.scenarios:nope")


class TestSweepSpec:
    def test_grid_expands_in_sorted_axis_order(self):
        spec = SweepSpec(
            scenario="m:f", grid={"b": [10, 20], "a": ["x", "y"]}
        )
        configs = spec.expand()
        assert configs == [
            {"a": "x", "b": 10},
            {"a": "x", "b": 20},
            {"a": "y", "b": 10},
            {"a": "y", "b": 20},
        ]

    def test_seeds_replicate_every_point(self):
        spec = SweepSpec(scenario="m:f", grid={"a": [1]}, seeds=3)
        assert spec.expand() == [
            {"a": 1, "seed": 0}, {"a": 1, "seed": 1}, {"a": 1, "seed": 2}
        ]

    def test_base_merges_under_points_and_grid(self):
        spec = SweepSpec(
            scenario="m:f", base={"shared": 1, "a": 0},
            points=[{"explicit": True}], grid={"a": [5]},
        )
        assert spec.expand() == [
            {"shared": 1, "a": 0, "explicit": True},
            {"shared": 1, "a": 5},
        ]

    def test_duplicate_configs_collapse(self):
        spec = SweepSpec(
            scenario="m:f", points=[{"a": 1}, {"a": 1}], grid={"a": [1, 2]}
        )
        assert spec.expand() == [{"a": 1}, {"a": 2}]

    def test_rejects_bad_seeds_and_scalar_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario="m:f", seeds=0)
        with pytest.raises(TypeError):
            SweepSpec(scenario="m:f", grid={"a": 5})
        with pytest.raises(TypeError):
            SweepSpec(scenario="m:f", grid={"a": "abc"})

    def test_dict_and_file_round_trip(self, tmp_path):
        spec = SweepSpec(
            scenario="m:f", base={"b": 1}, grid={"a": [1, 2]}, seeds=2
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = SweepSpec.from_file(path)
        assert loaded.expand() == spec.expand()
        assert loaded.scenario_name == "m:f"


class TestSweepRunner:
    def test_serial_run_with_local_callable(self):
        spec = SweepSpec(scenario=double, grid={"x": [1, 2, 3]})
        result = SweepRunner(spec).run()
        assert [r["doubled"] for r in result.results_for(spec.expand())] == [
            2, 4, 6
        ]

    def test_entries_ordered_by_canonical_key(self):
        spec = SweepSpec(scenario=double, points=[{"x": 9}, {"x": 1}])
        result = SweepRunner(spec).run()
        assert [entry.key for entry in result] == sorted(
            entry.key for entry in result
        )

    def test_results_for_preserves_presentation_order(self):
        configs = [{"x": 9}, {"x": 1}, {"x": 5}]
        spec = SweepSpec(scenario=double, points=configs)
        result = SweepRunner(spec).run()
        assert [r["doubled"] for r in result.results_for(configs)] == [18, 2, 10]

    def test_merged_json_byte_identical_across_worker_counts(self):
        spec = SweepSpec(
            scenario=KERNEL_SMOKE,
            grid={"processes": [2, 5, 8], "interrupt_every": [2, 3]},
        )
        serial = SweepRunner(spec, workers=1).run()
        parallel = SweepRunner(spec, workers=2).run()
        assert serial.merged_json() == parallel.merged_json()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(SweepSpec(scenario=double), workers=0)

    def test_run_sweep_convenience(self):
        result = run_sweep(SweepSpec(scenario=double, grid={"x": [4]}))
        assert result.result_for({"x": 4})["doubled"] == 8


class TestSweepCache:
    def test_second_run_is_all_cache_hits_and_byte_identical(self, tmp_path):
        spec = SweepSpec(scenario=double, grid={"x": [1, 2, 3, 4]})
        first = SweepRunner(spec, cache_dir=tmp_path).run()
        second = SweepRunner(spec, cache_dir=tmp_path).run()
        assert (first.executed, first.cached) == (4, 0)
        assert (second.executed, second.cached) == (0, 4)
        assert first.merged_json() == second.merged_json()

    def test_grown_grid_executes_only_the_delta(self, tmp_path):
        SweepRunner(
            SweepSpec(scenario=double, grid={"x": [1, 2]}), cache_dir=tmp_path
        ).run()
        grown = SweepRunner(
            SweepSpec(scenario=double, grid={"x": [1, 2, 3]}),
            cache_dir=tmp_path,
        ).run()
        assert grown.executed == 1
        assert grown.cached == 2

    def test_cache_is_scenario_scoped(self, tmp_path):
        def shadow(config):
            return {"doubled": -config["x"]}

        SweepRunner(
            SweepSpec(scenario=double, grid={"x": [1]}), cache_dir=tmp_path
        ).run()
        other = SweepRunner(
            SweepSpec(scenario=shadow, grid={"x": [1]}), cache_dir=tmp_path
        ).run()
        assert other.executed == 1  # no cross-scenario hit
        assert other.result_for({"x": 1})["doubled"] == -1

    def test_corrupt_cache_entry_is_re_executed(self, tmp_path):
        spec = SweepSpec(scenario=double, grid={"x": [7]})
        SweepRunner(spec, cache_dir=tmp_path).run()
        (entry,) = list(tmp_path.glob("*.json"))
        entry.write_text("{not json")
        rerun = SweepRunner(spec, cache_dir=tmp_path).run()
        assert rerun.executed == 1
        assert rerun.result_for({"x": 7})["doubled"] == 14

    def test_changed_code_digest_turns_every_hit_into_a_miss(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.runner as runner

        spec = SweepSpec(scenario=double, grid={"x": [1, 2, 3]})
        first = SweepRunner(spec, cache_dir=tmp_path).run()
        monkeypatch.setattr(runner, "code_digest", lambda: "other code")
        rerun = SweepRunner(spec, cache_dir=tmp_path).run()
        assert (rerun.executed, rerun.cached) == (3, 0)
        assert rerun.meter.sweep_cache_misses == 3
        assert rerun.merged_json() == first.merged_json()
        # The re-executed entries now carry the new digest and hit.
        again = SweepRunner(spec, cache_dir=tmp_path).run()
        assert (again.executed, again.cached) == (0, 3)

    @pytest.mark.parametrize("damage", ["config", "scenario", "truncated"])
    def test_mismatched_or_truncated_entry_is_a_counted_miss(
        self, tmp_path, damage
    ):
        spec = SweepSpec(scenario=double, grid={"x": [7]})
        fresh = SweepRunner(spec, cache_dir=tmp_path).run()
        (entry,) = list(tmp_path.glob("*.json"))
        text = entry.read_text()
        if damage == "truncated":
            entry.write_text(text[: len(text) // 2])
        else:
            stored = json.loads(text)
            stored[damage] = {"x": 8} if damage == "config" else "m:other"
            stored["result"] = {"doubled": -1, "tag": "stale"}
            entry.write_text(canonical_json(stored) + "\n")
        rerun = SweepRunner(spec, cache_dir=tmp_path).run()
        assert (rerun.executed, rerun.cached) == (1, 0)
        assert rerun.meter.sweep_cache_misses == 1
        assert rerun.merged_json() == fresh.merged_json()
        assert json.loads(entry.read_text()) == json.loads(text)

    def test_entries_and_manifest_carry_the_code_digest(self, tmp_path):
        from repro.sweep import code_digest

        spec = SweepSpec(scenario=double, grid={"x": [1]})
        result = SweepRunner(spec, cache_dir=tmp_path).run()
        (entry,) = list(tmp_path.glob("*.json"))
        assert json.loads(entry.read_text())["code"] == code_digest()
        assert result.manifest()["code"] == code_digest()
        assert len(code_digest()) == 64
        uncached = SweepRunner(spec).run()
        assert uncached.manifest()["code"] is None
        assert uncached.merged_json() == result.merged_json()

    def test_no_cache_dir_means_no_files(self, tmp_path):
        SweepRunner(SweepSpec(scenario=double, grid={"x": [1]})).run()
        assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_manifest_counts_and_entries(self, tmp_path):
        spec = SweepSpec(scenario=double, grid={"x": [1, 2]})
        SweepRunner(spec, cache_dir=tmp_path).run()
        manifest = SweepRunner(spec, cache_dir=tmp_path).run().manifest()
        assert manifest["total"] == 2
        assert manifest["executed"] == 0
        assert manifest["cached"] == 2
        assert all(entry["cached"] for entry in manifest["entries"])
        assert all(len(entry["hash"]) == 64 for entry in manifest["entries"])

    def test_merged_excludes_execution_state(self):
        result = SweepRunner(SweepSpec(scenario=double, grid={"x": [1]})).run()
        merged = result.merged()
        assert set(merged) == {"scenario", "runs"}
        assert set(merged["runs"][0]) == {"config", "result"}


class TestBuiltinScenarios:
    def test_kernel_smoke_is_deterministic(self):
        from repro.sweep.scenarios import kernel_smoke

        first = kernel_smoke({"processes": 6, "interrupt_every": 2})
        second = kernel_smoke({"processes": 6, "interrupt_every": 2})
        assert first == second
        assert first["interrupted"] == 3
        # Every sleeper reports exactly two deliveries, interrupted or not.
        assert len(first["deliveries"]) == 2 * 6

    def test_offload_run_reports_workload_metrics(self):
        from repro.sweep.scenarios import offload_run

        result = offload_run({"jobs": 2, "connectivity": "wifi", "seed": 3})
        assert result["jobs_completed"] == 2
        assert result["failures"] == 0
        assert result["sim_events"] > 0
        canonical_json(result)  # JSON-safe, NaN-free

    def test_offload_run_rejects_unknown_names(self):
        from repro.sweep.scenarios import offload_run

        with pytest.raises(ValueError, match="unknown app"):
            offload_run({"app": "nope"})
        with pytest.raises(ValueError, match="unknown scheduler"):
            offload_run({"scheduler": "psychic"})
        with pytest.raises(ValueError, match="unknown weights"):
            offload_run({"weights": "vibes"})


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup is only observable with >= 4 cores",
)
def test_four_workers_halve_the_wall_time():
    """The ISSUE acceptance bar: >= 16 configs, 4 workers, <= 0.5x the
    1-worker wall time.  Requires real cores, so skipped on tiny CI."""
    import time

    spec = SweepSpec(
        scenario="repro.sweep.scenarios:offload_run",
        base={"jobs": 60, "app": "nightly_analytics", "spacing_s": 30.0},
        grid={"connectivity": ["3g", "4g", "wifi", "5g"],
              "input_mb": [1.0, 4.0]},
        seeds=2,
    )
    started = time.perf_counter()
    serial = SweepRunner(spec, workers=1).run()
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = SweepRunner(spec, workers=4).run()
    parallel_s = time.perf_counter() - started
    assert serial.merged_json() == parallel.merged_json()
    assert len(serial) >= 16
    assert parallel_s <= 0.5 * serial_s, (serial_s, parallel_s)
