"""Differential and property tests for the sharded fleet runner.

The core claim under test: for any topology without split links, the
merged sharded report is *byte-identical* to the single-process
reference, for every shard count and worker count.  Coupled topologies
partitioned atomically stay exact; split-coupled runs must land inside
the documented error bound.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.sharded import (
    ShardedFleetSpec,
    reference_json,
    reference_report,
    run_sharded,
    shard_run,
)
from repro.fleet.topology import (
    FleetTopology,
    Zone,
    derive_seed,
    partition_topology,
)

CONNECTIVITIES = ["4g", "wifi", "3g"]


def small_spec(**kwargs):
    defaults = dict(window_s=600.0, slack_s=1200.0)
    defaults.update(kwargs)
    return ShardedFleetSpec(**defaults)


@st.composite
def topologies(draw, min_zones=1, max_zones=4, couple="none"):
    n_zones = draw(st.integers(min_zones, max_zones))
    zones = tuple(
        Zone(
            name=f"z{i:02d}",
            n_ues=draw(st.integers(0, 3)),
            connectivity=draw(st.sampled_from(CONNECTIVITIES)),
            jobs_per_ue=draw(st.integers(0, 2)),
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


class TestDifferential:
    """Sharded output vs the single-process reference, byte for byte."""

    @given(topology=topologies())
    @settings(max_examples=8, deadline=None)
    def test_uncoupled_byte_identical_across_shard_counts(self, topology):
        spec = small_spec(topology=topology)
        reference = reference_json(spec)
        reference_meter = reference_report(spec)["meter"]
        for n_shards in (1, 2, 4):
            result = run_sharded(spec, n_shards=n_shards)
            assert result.exact
            assert result.merged_json() == reference, (
                f"shards={n_shards} diverged from the reference"
            )
            # The runtime meter snapshot is part of the byte-identity
            # contract: counters are work-determined ints, so every
            # shard layout must sum to the same numbers.
            assert result.document["meter"] == reference_meter, (
                f"shards={n_shards} meter snapshot diverged"
            )
            # The O3 batch counter is simulated-work-determined like the
            # lane counters, so it must be shard-layout invariant too.
            assert (
                result.document["meter"]["batched_events"]
                == reference_meter["batched_events"]
            )

    @given(topology=topologies(min_zones=2, couple="pairs"))
    @settings(max_examples=6, deadline=None)
    def test_coupled_atomic_partition_stays_exact(self, topology):
        spec = small_spec(topology=topology)
        reference = reference_json(spec)
        for n_shards in (1, 2, 4):
            result = run_sharded(spec, n_shards=n_shards)
            assert result.plan.split_links == ()
            assert result.merged_json() == reference

    @given(topology=topologies(min_zones=4, max_zones=4, couple="pairs"))
    @settings(max_examples=4, deadline=None)
    def test_split_coupled_within_error_bound(self, topology):
        spec = small_spec(topology=topology)
        reference = reference_report(spec)["aggregates"]
        result = run_sharded(spec, n_shards=4, split_coupled=True)
        if result.exact:
            # The partitioner happened not to split anything; the run
            # must then be byte-exact like any other.
            assert result.merged_json() == reference_json(spec)
            return
        bound = result.error_bound
        sharded = result.aggregates
        assert (
            abs(sharded["cold_starts"] - reference["cold_starts"])
            <= bound["cold_starts"]
        )
        assert (
            abs(sharded["mean_response_s"] - reference["mean_response_s"])
            <= bound["mean_response_s"] + 1e-9
        )
        # Cold starts are not billed, so cost is preserved exactly
        # (up to float summation order).
        assert sharded["total_cloud_cost_usd"] == pytest.approx(
            reference["total_cloud_cost_usd"], abs=1e-12
        )
        assert bound["total_cloud_cost_usd"] == 0.0

    def test_multiprocess_workers_byte_identical(self):
        topology = FleetTopology.uniform(4, 2, jobs_per_ue=1, seed=11)
        spec = small_spec(topology=topology)
        reference = reference_json(spec)
        result = run_sharded(spec, n_shards=4, workers=2)
        assert result.merged_json() == reference
        serial = run_sharded(spec, n_shards=4, workers=1)
        assert result.document["meter"] == serial.document["meter"]

    def test_empty_and_zero_job_shards_merge(self):
        """More shards than zones plus zero-UE/zero-job zones: the
        degenerate shapes the empty-report fix exists for."""
        topology = FleetTopology(
            zones=(
                Zone(name="za", n_ues=0),
                Zone(name="zb", n_ues=2, jobs_per_ue=0),
                Zone(name="zc", n_ues=1, jobs_per_ue=1),
            ),
            seed=5,
        )
        spec = small_spec(topology=topology)
        reference = reference_json(spec)
        result = run_sharded(spec, n_shards=6)
        assert result.merged_json() == reference
        aggregates = result.aggregates
        assert aggregates["jobs_submitted"] == 1
        # Empty shards contribute 0.0, never NaN (canonical JSON would
        # reject NaN outright).
        assert aggregates["mean_response_s"] >= 0.0

    def test_dead_shard_worker_is_named_by_its_index(self):
        """A worker that dies running a shard fails the fleet run with a
        short message naming the shard by index and the exit code, chained
        from the sweep's error; every worker has been reaped by then.
        ``shard_run`` is patched before the workers fork, so shard 1's
        worker exits with code 3."""
        script = (
            "import os, sys\n"
            "import repro.fleet.sharded as sharded\n"
            "from repro.fleet.topology import FleetTopology\n"
            "run = sharded.shard_run\n"
            "def dies_on_shard_one(config):\n"
            "    if config['shard'] == 1:\n"
            "        os._exit(3)\n"
            "    return run(config)\n"
            "sharded.shard_run = dies_on_shard_one\n"
            "spec = sharded.ShardedFleetSpec(\n"
            "    topology=FleetTopology.uniform(2, 1, jobs_per_ue=1, seed=3),\n"
            "    window_s=600.0, slack_s=1200.0)\n"
            "try:\n"
            "    sharded.run_sharded(spec, n_shards=2, workers=2)\n"
            "except RuntimeError as error:\n"
            "    print(error)\n"
            "    print(type(error.__cause__).__name__, error.__cause__.exitcode)\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "        print('a child is left')\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
            "    sys.exit(1)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout.splitlines() == [
            "fleet shard 1 of 2 died (exit code 3)",
            "WorkerDiedError 3",
            "no child left",
        ], done.stderr

    def test_shard_scenario_importable_by_reference(self):
        """The sweep machinery must resolve the scenario by name — the
        multiprocessing path imports it in the worker."""
        from repro.sweep.spec import resolve_scenario

        assert resolve_scenario("repro.fleet.sharded:shard_run") is shard_run
        assert (
            resolve_scenario("repro.fleet.sharded:shard_run")({
                "spec": small_spec(
                    topology=FleetTopology.uniform(1, 1, seed=1)
                ).to_dict(),
                "zones": ["z000"],
                "shard": 0,
            })["groups"][0]["zones"]
            == ["z000"]
        )


class TestPartitioner:
    @given(topology=topologies(max_zones=6), n_shards=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_every_zone_exactly_once(self, topology, n_shards):
        plan = partition_topology(topology, n_shards)
        placed = sorted(name for shard in plan.shards for name in shard)
        assert placed == [zone.name for zone in topology.zones]
        total = sum(
            topology.zone(name).n_ues
            for shard in plan.shards
            for name in shard
        )
        assert total == topology.total_ues

    @given(
        topology=topologies(max_zones=6, couple="pairs"),
        n_shards=st.integers(1, 5),
        split=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_load_imbalance_within_documented_bound(
        self, topology, n_shards, split
    ):
        plan = partition_topology(topology, n_shards, split_coupled=split)
        loads = plan.loads()
        if split:
            unit_loads = [zone.expected_load for zone in topology.zones]
        else:
            unit_loads = [
                sum(topology.zone(n).expected_load for n in group)
                for group in topology.coupling_groups()
            ]
        mean = sum(loads) / len(loads)
        assert max(loads) <= mean + max(unit_loads, default=0.0) + 1e-9

    @given(topology=topologies(max_zones=5, couple="pairs"))
    @settings(max_examples=20, deadline=None)
    def test_atomic_partition_never_splits_links(self, topology):
        plan = partition_topology(topology, 3)
        assert plan.split_links == ()
        for a, b in topology.links:
            assert plan.shard_of(a) == plan.shard_of(b)

    def test_split_links_reported(self):
        topology = FleetTopology.uniform(4, 2, couple="pairs", seed=0)
        plan = partition_topology(topology, 4, split_coupled=True)
        for a, b in plan.split_links:
            assert plan.shard_of(a) != plan.shard_of(b)
        kept = set(topology.links) - set(plan.split_links)
        for a, b in kept:
            assert plan.shard_of(a) == plan.shard_of(b)

    def test_partition_hashseed_independent(self):
        """The plan must not depend on PYTHONHASHSEED — re-derive it in
        subprocesses with adversarial hash seeds and compare."""
        script = (
            "import json\n"
            "from repro.fleet.topology import FleetTopology, "
            "partition_topology\n"
            "topo = FleetTopology.uniform(7, 3, couple='pairs', seed=9,\n"
            "                             connectivity=['4g', 'wifi'])\n"
            "plan = partition_topology(topo, 3)\n"
            "print(json.dumps(plan.to_dict(), sort_keys=True))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.path.abspath(src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_derive_seed_stable_values(self):
        # Pin a value: a change here silently invalidates every cached
        # shard result and golden report.
        assert derive_seed(0, "zone", "z000") == derive_seed(0, "zone", "z000")
        assert derive_seed(0, "zone", "z000") != derive_seed(1, "zone", "z000")
        assert derive_seed(0, "zone", "z000") != derive_seed(0, "zone", "z001")
        assert derive_seed(3, "a", "b") == 15651734154061114772


class TestSpecRoundTrip:
    def test_spec_round_trips_through_dict(self):
        topology = FleetTopology.uniform(
            3, 2, connectivity=["wifi", "3g"], couple="ring", seed=4
        )
        spec = ShardedFleetSpec(
            topology=topology, app="photo_backup", input_mb=1.5,
            window_s=500.0, slack_s=700.0, keep_alive_s=120.0,
            sync_window_s=60.0,
        )
        assert ShardedFleetSpec.from_dict(spec.to_dict()) == spec

    def test_effective_window_clamped_to_keep_alive(self):
        spec = small_spec(
            topology=FleetTopology.uniform(1, 1),
            keep_alive_s=900.0, sync_window_s=60.0,
        )
        assert spec.effective_sync_window_s == 900.0

    def test_validation(self):
        topology = FleetTopology.uniform(1, 1)
        with pytest.raises(ValueError):
            ShardedFleetSpec(topology=topology, window_s=0.0)
        with pytest.raises(ValueError):
            ShardedFleetSpec(topology=topology, input_mb=-1.0)
        with pytest.raises(ValueError):
            run_sharded(small_spec(topology=topology), n_shards=0)
