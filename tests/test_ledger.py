"""Tests for the append-only run ledger and its CLI."""

import json

import pytest

from repro.cli import main
from repro.ledger import (
    LEDGER_SCHEMA,
    LedgerEntry,
    append_entry,
    config_sha256,
    diff_entries,
    make_entry,
    read_ledger,
    render_entries,
    resolve_ledger_path,
)


class TestPathResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert resolve_ledger_path("mine.jsonl").name == "mine.jsonl"

    def test_env_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert resolve_ledger_path().name == "env.jsonl"

    def test_empty_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "nonempty.jsonl")
        assert resolve_ledger_path("") is None
        monkeypatch.setenv("REPRO_LEDGER", "")
        assert resolve_ledger_path() is None

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert resolve_ledger_path().name == ".repro_ledger.jsonl"


class TestHashing:
    def test_key_order_does_not_matter(self):
        assert config_sha256({"a": 1, "b": 2}) == config_sha256(
            {"b": 2, "a": 1}
        )

    def test_value_change_changes_hash(self):
        assert config_sha256({"a": 1}) != config_sha256({"a": 2})


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        entry = make_entry(
            "run", {"app": "photo_backup", "seed": 3}, wall_s=1.23456,
            metrics={"jobs_completed": 5}, artifacts=["out.json"],
            argv=["run", "--app", "photo_backup"],
        )
        assert append_entry(path, entry) == 0
        assert append_entry(path, entry) == 1
        entries = read_ledger(path)
        assert len(entries) == 2
        back = entries[0]
        assert back.command == "run"
        assert back.config == {"app": "photo_backup", "seed": 3}
        assert back.config_sha256 == entry.config_sha256
        assert back.wall_s == 1.235  # rounded at make_entry time
        assert back.metrics == {"jobs_completed": 5}
        assert back.artifacts == ["out.json"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        entry = make_entry("run", {"a": 1}, wall_s=0.1)
        append_entry(path, entry)
        with path.open("a") as handle:
            handle.write("{truncated\n")
            handle.write(json.dumps({"schema": "other/1"}) + "\n")
        append_entry(path, entry)
        entries = read_ledger(path)
        assert len(entries) == 2
        assert all(e.command == "run" for e in entries)

    def test_lines_carry_schema(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_entry(path, make_entry("fleet", {}, wall_s=0.0))
        line = json.loads(path.read_text().splitlines()[0])
        assert line["schema"] == LEDGER_SCHEMA


class TestRenderAndDiff:
    def _entry(self, **metrics):
        return make_entry("fleet", {"zones": 2}, wall_s=0.5, metrics=metrics)

    def test_render_uses_given_indices(self):
        entries = [self._entry(jobs_completed=4), self._entry(failures=1)]
        text = render_entries(list(zip([3, 9], entries)))
        assert "   3  " in text and "   9  " in text

    def test_diff_direction_aware(self):
        before = self._entry(jobs_completed=10, failures=0)
        after = self._entry(jobs_completed=8, failures=2)
        result = diff_entries(before, after)
        regressed = {row.metric for row in result.regressions}
        assert regressed == {"jobs_completed", "failures"}

    def test_diff_rejects_command_mismatch(self):
        a = make_entry("run", {}, wall_s=0.0)
        b = make_entry("fleet", {}, wall_s=0.0)
        with pytest.raises(ValueError):
            diff_entries(a, b)

    def test_diff_skips_non_numeric_metrics(self):
        before = self._entry(fleet_status="ok", alerts_fired=0)
        after = self._entry(fleet_status="critical", alerts_fired=3)
        result = diff_entries(before, after)
        assert {row.metric for row in result.rows} == {"alerts_fired"}


class TestCli:
    def _run(self, ledger, capsys):
        code = main([
            "run", "--app", "photo_backup", "--jobs", "1",
            "--ledger", str(ledger),
        ])
        assert code == 0
        return capsys.readouterr()

    def test_run_appends_and_show_lists(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        captured = self._run(ledger, capsys)
        assert "ledger: entry #0" in captured.err
        assert main(["ledger", "show", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "jobs_completed=1" in out

    def test_show_index_replays_full_config(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._run(ledger, capsys)
        assert main(
            ["ledger", "show", "--ledger", str(ledger), "--index", "0"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "run"
        assert payload["config"]["app"] == "photo_backup"
        assert payload["config_sha256"]

    def test_show_filters_and_json(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._run(ledger, capsys)
        assert main([
            "ledger", "show", "--ledger", str(ledger),
            "--command", "sweep",
        ]) == 0
        assert "no matching entries" in capsys.readouterr().out
        assert main([
            "ledger", "show", "--ledger", str(ledger), "--json",
        ]) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["schema"] == LEDGER_SCHEMA

    def test_ledger_diff_identical_runs_ok(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._run(ledger, capsys)
        self._run(ledger, capsys)
        assert main(
            ["ledger", "diff", "0", "-1", "--ledger", str(ledger)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_ledger_diff_out_of_range(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._run(ledger, capsys)
        with pytest.raises(SystemExit):
            main(["ledger", "diff", "0", "7", "--ledger", str(ledger)])

    def test_ledger_diff_refuses_bench_rows(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        for speed in (10.0, 20.0):
            append_entry(ledger, make_entry(
                "bench", {"mode": "short", "benches": ["P1"]}, wall_s=1.0,
                metrics={"P1.plans_per_s": speed},
            ))
        assert main(["ledger", "diff", "0", "1", "--ledger", str(ledger)]) == 2
        assert "repro bench compare" in capsys.readouterr().err

    def test_no_ledger_skips_append(self, tmp_path, capsys):
        code = main([
            "run", "--app", "photo_backup", "--jobs", "1",
            "--ledger", str(tmp_path / "ledger.jsonl"), "--no-ledger",
        ])
        assert code == 0
        assert not (tmp_path / "ledger.jsonl").exists()
        assert "ledger:" not in capsys.readouterr().err

    def test_fleet_records_health_metrics(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "fleet", "--zones", "2", "--ues-per-zone", "1",
            "--jobs-per-ue", "1", "--window", "600", "--slack", "1200",
            "--monitor", "--ledger", str(ledger),
        ])
        assert code == 0
        capsys.readouterr()
        (entry,) = read_ledger(ledger)
        assert entry.command == "fleet"
        assert entry.metrics["fleet_status"] == "ok"
        assert entry.metrics["alerts_fired"] == 0
        assert entry.config["monitor"] is True

    def test_sweep_records_entry(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "sweep", "--grid", '{"connectivity": ["4g"]}',
            "--base", '{"app": "photo_backup", "jobs": 1}',
            "--ledger", str(ledger),
        ])
        assert code == 0
        capsys.readouterr()
        (entry,) = read_ledger(ledger)
        assert entry.command == "sweep"
        assert entry.metrics["configs"] == 1


class TestErrorStatus:
    """A run that dies mid-flight must still leave a ledger record."""

    def test_successful_run_records_ok(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "run", "--app", "photo_backup", "--jobs", "1",
            "--ledger", str(ledger),
        ]) == 0
        capsys.readouterr()
        (entry,) = read_ledger(ledger)
        assert entry.status == "ok"

    def test_crashed_run_records_error_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core.controller import OffloadController

        def boom(self, jobs):
            raise RuntimeError("died mid-flight")

        monkeypatch.setattr(OffloadController, "run_workload", boom)
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(RuntimeError, match="mid-flight"):
            main([
                "run", "--app", "photo_backup", "--jobs", "1",
                "--ledger", str(ledger),
            ])
        captured = capsys.readouterr()
        assert "error" in captured.err
        (entry,) = read_ledger(ledger)
        assert entry.command == "run"
        assert entry.status == "error"
        assert entry.metrics == {"error": "RuntimeError"}
        # The config is recorded so the failed run is replayable.
        assert entry.config["app"] == "photo_backup"

    def test_crashed_fleet_records_error_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.fleet.sharded as sharded

        def boom(*args, **kwargs):
            raise ValueError("shard blew up")

        monkeypatch.setattr(sharded, "run_sharded", boom)
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(ValueError, match="blew up"):
            main([
                "fleet", "--zones", "2", "--ues-per-zone", "1",
                "--window", "600", "--slack", "1200",
                "--ledger", str(ledger),
            ])
        capsys.readouterr()
        (entry,) = read_ledger(ledger)
        assert entry.command == "fleet"
        assert entry.status == "error"
        assert entry.metrics == {"error": "ValueError"}

    def test_usage_errors_are_not_ledgered(self, tmp_path, capsys):
        # SystemExit from bad arguments is user input, not a run death.
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(SystemExit):
            main([
                "run", "--app", "photo_backup", "--jobs", "1",
                "--actions-out", str(tmp_path / "a.log"),
                "--ledger", str(ledger),
            ])
        assert not ledger.exists()

    def test_status_round_trips_and_renders(self):
        entry = make_entry(
            "run", {"app": "x"}, wall_s=1.0,
            metrics={"error": "RuntimeError"}, status="error",
        )
        clone = LedgerEntry.from_dict(entry.to_dict())
        assert clone.status == "error"
        text = render_entries([(0, entry)])
        assert "error" in text
        # Legacy records without the field read back as ok.
        payload = entry.to_dict()
        del payload["status"]
        assert LedgerEntry.from_dict(payload).status == "ok"
