"""Fleet observability: merged snapshots, SLO rollups, alert-log bytes.

The headline property mirrors the sharding contract: when no coupling
link is split, the merged fleet *health* document — SLO verdicts,
per-zone rollups, and the alert log — is byte-identical for any shard
count and worker count, and equal to the single-process reference.
Chaos schedules are part of the property: injected faults are keyed to
sim time per device, so they cannot tell shard layouts apart.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fleet.sharded import (
    FLEET_CHAOS,
    ShardedFleetSpec,
    reference_health,
    run_sharded,
)
from repro.fleet.topology import FleetTopology, Zone
from repro.monitor import fleet_health_to_prometheus

CONNECTIVITIES = ["4g", "wifi", "3g"]


def small_spec(**kwargs):
    defaults = dict(window_s=600.0, slack_s=1200.0, monitor=True)
    defaults.update(kwargs)
    return ShardedFleetSpec(**defaults)


@st.composite
def topologies(draw, min_zones=1, max_zones=4, couple="none"):
    n_zones = draw(st.integers(min_zones, max_zones))
    zones = tuple(
        Zone(
            name=f"z{i:02d}",
            n_ues=draw(st.integers(0, 2)),
            connectivity=draw(st.sampled_from(CONNECTIVITIES)),
            jobs_per_ue=draw(st.integers(0, 1)),
        )
        for i in range(n_zones)
    )
    names = [zone.name for zone in zones]
    if couple == "none" or n_zones < 2:
        links = ()
    else:
        links = tuple(
            (names[i], names[i + 1]) for i in range(0, n_zones - 1, 2)
        )
    seed = draw(st.integers(0, 3))
    return FleetTopology(zones=zones, links=links, seed=seed)


RING = FleetTopology(
    zones=tuple(
        Zone(name=f"z{i:02d}", n_ues=2, connectivity="4g", jobs_per_ue=1)
        for i in range(4)
    ),
    links=(("z00", "z01"), ("z01", "z02"), ("z02", "z03"), ("z03", "z00")),
    seed=0,
)

PAIRS = FleetTopology.uniform(
    n_zones=4,
    ues_per_zone=2,
    connectivity="4g",
    jobs_per_ue=1,
    couple="pairs",
    seed=0,
)

COUPLINGS = pytest.mark.parametrize(
    "topology", [RING, PAIRS], ids=["ring", "pairs"]
)


class TestByteIdentity:
    @given(
        topology=topologies(couple="pairs", min_zones=2),
        chaos=st.sampled_from(sorted(FLEET_CHAOS)),
    )
    @settings(max_examples=6, deadline=None)
    def test_health_byte_identical_across_shard_counts(
        self, topology, chaos
    ):
        spec = small_spec(topology=topology, chaos=chaos)
        from repro.sweep import canonical_json

        reference = canonical_json(reference_health(spec)) + "\n"
        reference_meter = reference_health(spec)["meter"]
        for n_shards in (1, 2, 4):
            result = run_sharded(spec, n_shards=n_shards)
            assert result.exact
            assert result.health_json() == reference, (
                f"shards={n_shards} health diverged ({chaos})"
            )
            # The group-summed meter snapshot rides the health document
            # and must be byte-stable across shard layouts too.
            assert result.health["meter"] == reference_meter, (
                f"shards={n_shards} meter snapshot diverged ({chaos})"
            )
            # Batched-dispatch accounting is work-determined too: the
            # same groups batch the same drains under any shard layout.
            assert (
                result.health["meter"]["batched_events"]
                == reference_meter["batched_events"]
            )

    @COUPLINGS
    def test_health_byte_identical_across_worker_counts(self, topology):
        spec = small_spec(topology=topology, chaos="uplink-outage")
        single = run_sharded(spec, n_shards=1)
        serial = run_sharded(spec, n_shards=2, workers=1)
        pooled = run_sharded(spec, n_shards=2, workers=2)
        for result in (serial, pooled):
            assert result.health_json() == single.health_json()
            assert result.alert_log == single.alert_log
            assert result.health["meter"] == single.health["meter"]


class TestHealthDocument:
    @COUPLINGS
    def test_fault_free_fleet_is_quiet(self, topology):
        result = run_sharded(small_spec(topology=topology), n_shards=2)
        health = result.health
        assert health is not None
        assert health["fleet"]["status"] == "ok"
        assert health["fleet"]["alerts_fired"] == 0
        assert health["log"] == []
        assert result.alert_log == ""
        assert all(
            zone["status"] == "ok" for zone in health["zones"].values()
        )

    @COUPLINGS
    def test_uplink_outage_fires_and_clears(self, topology):
        spec = small_spec(topology=topology, chaos="uplink-outage")
        result = run_sharded(spec, n_shards=1)
        health = result.health
        assert health["fleet"]["alerts_fired"] >= 1
        log = result.alert_log
        assert "FIRING slo=uplink-stall" in log
        assert "CLEARED slo=uplink-stall" in log
        # The outage window closes well before the run ends, so nothing
        # should still be active at the end of the replay.
        assert health["fleet"]["alerts_active"] == 0

    def test_zone_rollups_are_consistent(self):
        result = run_sharded(small_spec(topology=RING), n_shards=2)
        health = result.health
        zones = health["zones"]
        assert set(zones) == {z.name for z in RING.zones}
        counters = health["counters"]
        assert sum(z["jobs"] for z in zones.values()) == (
            counters["jobs_submitted"]
        )
        assert sum(z["completed"] for z in zones.values()) == (
            counters["jobs_completed"]
        )
        assert sum(z["ues"] for z in zones.values()) == RING.total_ues

    def test_unmonitored_run_has_no_health(self):
        result = run_sharded(
            small_spec(topology=RING, monitor=False), n_shards=1
        )
        assert result.health is None
        assert result.alert_log == ""
        with pytest.raises(ValueError):
            result.health_json()

    def test_reference_health_requires_monitor(self):
        with pytest.raises(ValueError):
            reference_health(small_spec(topology=RING, monitor=False))

    def test_unknown_chaos_rejected(self):
        with pytest.raises(ValueError):
            small_spec(topology=RING, chaos="meteor-strike")

    def test_spec_round_trips_monitor_and_chaos(self):
        spec = small_spec(topology=RING, chaos="uplink-degraded")
        clone = ShardedFleetSpec.from_dict(spec.to_dict())
        assert clone.monitor is True
        assert clone.chaos == "uplink-degraded"


class TestPrometheusExport:
    def test_health_document_exports(self):
        result = run_sharded(
            small_spec(topology=RING, chaos="uplink-outage"), n_shards=1
        )
        text = fleet_health_to_prometheus(result.health)
        assert 'fleet_zone_status{zone="z00"}' in text
        assert "fleet_alerts_total" in text
        assert "fleet_status 0.0" in text

    def test_hostile_labels_are_escaped(self):
        result = run_sharded(small_spec(topology=RING), n_shards=1)
        health = json.loads(result.health_json())
        hostile = 'z"evil\n\\'
        health["zones"][hostile] = health["zones"].pop("z00")
        text = fleet_health_to_prometheus(health)
        assert '\\"evil\\n\\\\' in text
        for line in text.splitlines():
            assert not line.endswith("evil")  # no raw break-out

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            fleet_health_to_prometheus({"schema": "bogus/1"})


class TestDiffAndReport:
    @pytest.fixture()
    def docs(self, tmp_path):
        quiet = run_sharded(small_spec(topology=RING), n_shards=1)
        noisy = run_sharded(
            small_spec(topology=RING, chaos="uplink-outage"), n_shards=1
        )
        paths = {}
        for name, payload in (
            ("quiet_health", quiet.health_json()),
            ("noisy_health", noisy.health_json()),
            ("fleet", quiet.merged_json()),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(payload)
            paths[name] = str(path)
        return paths

    def test_load_profile_detects_fleet_kinds(self, docs):
        from repro.monitor.diff import load_profile

        assert load_profile(docs["fleet"]).kind == "fleet"
        profile = load_profile(docs["quiet_health"])
        assert profile.kind == "fleet-health"
        assert profile.metrics["zones_ok"] == 4.0
        assert profile.metrics["log_lines"] == 0.0

    def test_diff_flags_new_alerts(self, docs):
        from repro.monitor.diff import diff_files

        result = diff_files(docs["quiet_health"], docs["noisy_health"])
        regressed = {row.metric for row in result.regressions}
        assert "alerts_fired" in regressed
        assert "log_lines" in regressed

    def test_cli_diff_mixed_kinds_fails_cleanly(self, docs, capsys):
        assert main(["diff", docs["fleet"], docs["quiet_health"]]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_cli_report_renders_health(self, docs, capsys):
        assert main(["report", docs["noisy_health"]]) == 0
        out = capsys.readouterr().out
        assert "Fleet health report" in out
        assert "Zone health" in out
        assert "FIRING slo=uplink-stall" in out

    def test_cli_report_health_prometheus(self, docs, capsys):
        assert main(["report", docs["quiet_health"], "--prometheus"]) == 0
        assert "fleet_zone_status" in capsys.readouterr().out

    def test_cli_report_hints_on_plain_fleet_doc(self, docs, capsys):
        assert main(["report", docs["fleet"]]) == 2
        assert "--health-out" in capsys.readouterr().err


class TestCli:
    def test_health_out_byte_identical_across_shards(self, tmp_path, capsys):
        paths = []
        for n_shards in (1, 2):
            path = tmp_path / f"health{n_shards}.json"
            code = main([
                "fleet", "--zones", "2", "--ues-per-zone", "1",
                "--jobs-per-ue", "1", "--couple", "pairs",
                "--window", "600", "--slack", "1200",
                "--chaos", "uplink-outage",
                "--shards", str(n_shards),
                "--health-out", str(path),
            ])
            assert code == 0
            paths.append(path)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        payload = json.loads(paths[0].read_text())
        assert payload["schema"] == "repro.monitor.fleet/1"

    def test_monitor_flag_reports_fleet_status(self, capsys):
        code = main([
            "fleet", "--zones", "2", "--ues-per-zone", "1",
            "--jobs-per-ue", "1", "--window", "600", "--slack", "1200",
            "--monitor",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet status" in out
        assert "alerts fired" in out

    def test_progress_heartbeats_on_stderr(self, capsys):
        code = main([
            "fleet", "--zones", "2", "--ues-per-zone", "1",
            "--jobs-per-ue", "1", "--window", "600", "--slack", "1200",
            "--shards", "2", "--progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[fleet 1/2]" in err
        assert "[fleet 2/2]" in err
