#!/usr/bin/env python3
"""E1: end-to-end simulator benchmark with per-layer attribution.

Run from the repository root::

    python3 e1bench/run.py --workload offload --seed 0 --seconds 30 --trace 0
    python3 e1bench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--workload all`` runs the three workloads
in one process and prints one such block per workload.  See README.md
for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from tracing import ROOT as ROOT_SPAN
from tracing import Recorder, by_layer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

NAMES = ("offload", "fleet_remediated", "fleet_fanout")

#: Set-up (workload generation plus one warm-up repetition) runs this
#: many times; ``setup_s`` reports the import time plus their median.
SETUP_ROUNDS = 3

#: Fewest measured repetitions, whatever ``--seconds`` says.
MIN_REPS = 3

#: The host's speed drifts by 10-20 % over seconds to minutes (other
#: tenants on shared cores: steal time stays near 0 and CPU time equals
#: wall time), which no repetition count averages away.  So a fixed
#: stdlib-only probe runs before and after every set-up round and every
#: repetition, in as many forked processes at once as the workload keeps
#: busy, and each timing is rescaled by the mean of the two probes that
#: bracket it to a host on which the probe takes this long.  Over 30 s
#: windows this cut the spread of repetition medians from 15-17 % to
#: 3.5-5 % on the 2-vCPU VM the bounds were set on; a one-process probe
#: did not track the 2-worker fan-out, and one probe per run (its median)
#: left 6-9 %.  The probe runs no simulator code, with the collector off,
#: so no change to the program can move it.
PROBE_REF_S = 0.05


class _ProbeItem:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _probe_loop() -> float:
    gc.disable()
    started = perf_counter()
    heap: List[tuple] = []
    table: Dict[int, _ProbeItem] = {}
    for i in range(60_000):
        item = _ProbeItem(i, i * 7 % 1013)
        heapq.heappush(heap, (item.value, i, item))
        table[i % 5000] = item
        if len(heap) > 200:
            heapq.heappop(heap)
    return perf_counter() - started


def host_probe(processes: int) -> float:
    """Seconds the slowest of ``processes`` concurrent forked copies of a
    fixed heap/dict/allocation loop takes on this host now."""
    children = []
    for _ in range(processes):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: time the loop, report, exit without cleanup
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, repr(_probe_loop()).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    seconds = []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            text = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not text:
            raise RuntimeError(f"host probe process {pid} failed")
        seconds.append(float(text))
    return max(seconds)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (Linux reports KiB), plus the
    largest reaped child's when the workload used a process pool."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Trial:
    """One workload at one seed: set-up, checked repetitions, tallies."""

    def __init__(self, name: str, seed: int, setup_rounds: int) -> None:
        from workloads import WORKLOADS

        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first: Optional[Any] = None
        self.reference: Optional[str] = None
        self.reference_s = 0.0
        factory = WORKLOADS[name]
        if name == "fleet_fanout":
            started = perf_counter()
            self.reference = factory(seed).reference()
            self.reference_s = perf_counter() - started
        self.workers = factory(seed).workers
        #: Probe time right after the imports; later, after the last run.
        self.probe = self.import_probe = host_probe(self.workers)
        self.setup_rounds: List[float] = []
        self.setup_scaled: List[float] = []
        for _ in range(setup_rounds):
            started = perf_counter()
            self.workload = factory(seed)
            self.repeat(self.workload.run)
            self.setup_rounds.append(perf_counter() - started)
            self.setup_scaled.append(self.rescale(self.setup_rounds[-1]))

    def repeat(self, run: Callable[[], Any]) -> Optional[Any]:
        """One checked repetition; returns its outcome, or ``None`` when
        it raised or failed a check (counted in ``failed``)."""
        self.attempted += 1
        try:
            outcome = run()
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.fail(f"repetition raised {type(error).__name__}: {error}")
            return None
        reason = self._check(outcome)
        if reason is not None:
            self.fail(reason)
            return None
        return outcome

    def fail(self, reason: str) -> None:
        self.failed += 1
        if reason not in self.problems:
            self.problems.append(reason)

    def _check(self, outcome: Any) -> Optional[str]:
        if outcome.submitted != self.workload.jobs:
            return f"{outcome.submitted} jobs submitted, expected {self.workload.jobs}"
        if outcome.completed + outcome.failed != outcome.submitted:
            return (
                f"{outcome.completed} completed + {outcome.failed} failed "
                f"!= {outcome.submitted} submitted"
            )
        if self.first is None:
            self.first = outcome
        elif outcome.sim_digest != self.first.sim_digest:
            return "sim_digest differs from the first repetition"
        if self.reference is not None and outcome.merged_text != self.reference:
            return "merged bytes differ from the 1-shard 1-worker reference"
        return None

    def timed(self, run: Callable[[], Any]) -> tuple:
        gc.collect()
        started = perf_counter()
        outcome = self.repeat(run)
        return outcome, perf_counter() - started

    def rescale(self, seconds: float) -> float:
        """``seconds`` as on the reference host: probe again and divide by
        the mean of this probe and the previous one, which bracket it."""
        before, self.probe = self.probe, host_probe(self.workers)
        return seconds * 2 * PROBE_REF_S / (before + self.probe)


def measure_untraced(
    name: str,
    seed: int,
    seconds: float,
    import_s: float,
    setup_rounds: int = SETUP_ROUNDS,
    min_reps: int = MIN_REPS,
) -> Dict[str, Any]:
    trial = Trial(name, seed, setup_rounds)
    walls: List[float] = []
    scaled: List[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or (
        len(walls) < min_reps and trial.failed < min_reps
    ):
        outcome, wall = trial.timed(trial.workload.run)
        rescaled = trial.rescale(wall)
        if outcome is not None:
            walls.append(wall)
            scaled.append(rescaled)
    first = trial.first
    jobs = first.completed if first is not None else 0
    setup = import_s * PROBE_REF_S / trial.import_probe + _median(
        trial.setup_scaled
    )
    metrics = {
        "jobs_per_s": (jobs / _median(scaled) if scaled else 0.0, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (_peak_rss_mb(trial.workers > 1), "MB"),
    }
    q1, median, q3 = _quartiles(scaled)
    raw = _median(walls)
    lines = [
        f"reps={len(walls)} rep_wall_s rescaled to the {PROBE_REF_S} s-probe "
        f"host: median={median:.4f} q1={q1:.4f} q3={q3:.4f}",
        f"raw rep_wall_s median={raw:.4f} (raw jobs_per_s="
        f"{jobs / raw if walls else 0.0:.2f}); last host probe {trial.probe:.4f} s",
        f"setup raw: import_s={import_s:.4f} rounds_s="
        + ",".join(f"{s:.4f}" for s in trial.setup_rounds),
    ]
    if trial.reference is not None:
        lines.append(f"reference (1 shard, 1 worker) computed in {trial.reference_s:.4f} s")
    return _result(trial, metrics, lines, correct=bool(walls))


def measure_traced(
    name: str,
    seed: int,
    seconds: float,
    setup_rounds: int = SETUP_ROUNDS,
    min_reps: int = MIN_REPS,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    trial = Trial(name, seed, setup_rounds)
    spool = OUT / f"spool-{name}"
    shutil.rmtree(spool, ignore_errors=True)
    untraced: List[float] = []
    traced: List[Dict[str, Any]] = []
    recorder: Optional[Recorder] = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or (
        min(len(traced), len(untraced)) < min_reps
        and trial.failed < min_reps
    ):
        outcome, wall = trial.timed(trial.workload.run)
        if outcome is not None:
            untraced.append(wall)
        recorder = Recorder(spool)
        with instrument(recorder):
            outcome, wall = trial.timed(
                lambda: recorder.call(ROOT_SPAN, trial.workload.run, (), {})
            )
        recorder.absorb_spool()
        if outcome is None:
            continue
        values = _layer_values(recorder, outcome, trial.workload)
        if values["sim.events"] != outcome.values["sim_events"]:
            # Catches wrappers that missed a simulator or a pool worker
            # whose aggregate never came back.
            trial.fail(
                f"traced run saw {values['sim.events']} kernel events, "
                f"the program reported {outcome.values['sim_events']}"
            )
            continue
        traced.append(values)
    shutil.rmtree(spool, ignore_errors=True)
    if recorder is not None and spans_path is not None:
        recorder.write_spans(spans_path)

    metrics = {}
    for key, unit in LAYER_METRICS:
        values = [rep[key] for rep in traced]
        metrics[key] = (_median(values), unit)
    traced_wall = _median([rep["bench.traced_wall_s"] for rep in traced])
    untraced_wall = _median(untraced)
    metrics["bench.trace_overhead"] = (
        traced_wall / untraced_wall if untraced_wall else 0.0, "ratio"
    )
    lines = [
        f"reps: untraced={len(untraced)} traced={len(traced)} "
        f"untraced_wall_s={untraced_wall:.4f} traced_wall_s={traced_wall:.4f}",
    ]
    if traced:
        lines += _attribution(min(
            traced, key=lambda rep: abs(rep["bench.traced_wall_s"] - traced_wall)
        ))
    return _result(trial, metrics, lines, correct=bool(traced))


#: Per-layer metrics in report order, with units.
LAYER_METRICS = (
    ("sim.events", "count"),
    ("sim.fast_lane_frac", "frac"),
    ("sim.batched_frac", "frac"),
    ("sim.self_s", "s"),
    ("core.plans", "count"),
    ("core.plan_s", "s"),
    ("core.partition_s", "s"),
    ("core.allocate_s", "s"),
    ("core.estimates", "count"),
    ("core.estimate_s", "s"),
    ("core.job_s", "s"),
    ("serverless.invocations", "count"),
    ("serverless.cold_start_frac", "frac"),
    ("serverless.proc_s", "s"),
    ("network.transfers", "count"),
    ("network.proc_s", "s"),
    ("telemetry.spans", "count"),
    ("telemetry.span_s", "s"),
    ("monitor.spans_folded", "count"),
    ("monitor.fold_s", "s"),
    ("monitor.slo_evals", "count"),
    ("monitor.slo_eval_s", "s"),
    ("remediate.polls", "count"),
    ("remediate.actions", "count"),
    ("remediate.replans", "count"),
    ("remediate.poll_self_s", "s"),
    ("fleet.simulate_s", "s"),
    ("fleet.fanout_s", "s"),
    ("fleet.fanout_overhead_s", "s"),
    ("fleet.parallel_eff", "frac"),
    ("fleet.merge_s", "s"),
    ("fleet.health_s", "s"),
    ("fleet.merge_bytes", "bytes"),
    ("bench.traced_wall_s", "s"),
    ("bench.other_s", "s"),
)

TELEMETRY_SPANS = ("telemetry.start", "telemetry.end", "telemetry.record", "telemetry.instant")


def _layer_values(recorder: Recorder, outcome: Any, workload: Any) -> Dict[str, Any]:
    agg = recorder.combined()
    self_s, total_s, calls, counts = agg.self_s, agg.total_s, agg.calls, agg.counts
    events = counts.get("sim.fast_lane", 0) + counts.get("sim.heap", 0)
    fanout = total_s.get("fleet.fanout", 0.0)
    per_worker: Dict[int, float] = {}
    for pid, seconds in agg.shard_s:
        per_worker[pid] = per_worker.get(pid, 0.0) + seconds
    simulate = sum(per_worker.values())

    values = {
        "sim.events": events,
        "sim.fast_lane_frac": counts.get("sim.fast_lane", 0) / events if events else 0.0,
        "sim.batched_frac": counts.get("sim.batched", 0) / events if events else 0.0,
        "sim.self_s": self_s.get("sim.run", 0.0),
        "core.plans": calls.get("core.plan", 0),
        "core.plan_s": total_s.get("core.plan", 0.0),
        "core.partition_s": total_s.get("core.partition", 0.0),
        "core.allocate_s": total_s.get("core.allocate", 0.0),
        "core.estimates": calls.get("core.estimate", 0),
        "core.estimate_s": total_s.get("core.estimate", 0.0),
        "core.job_s": self_s.get("core.proc", 0.0),
        "serverless.invocations": counts.get("serverless.invocations", 0),
        "serverless.cold_start_frac": outcome.values["cold_start_frac"],
        "serverless.proc_s": self_s.get("serverless.proc", 0.0),
        "network.transfers": counts.get("network.transfers", 0),
        "network.proc_s": self_s.get("network.proc", 0.0),
        "telemetry.spans": calls.get("telemetry.start", 0) + calls.get("telemetry.record", 0),
        "telemetry.span_s": sum(self_s.get(name, 0.0) for name in TELEMETRY_SPANS),
        "monitor.spans_folded": calls.get("monitor.fold", 0),
        "monitor.fold_s": self_s.get("monitor.fold", 0.0) + self_s.get("monitor.instant", 0.0),
        "monitor.slo_evals": calls.get("monitor.slo_eval", 0),
        "monitor.slo_eval_s": self_s.get("monitor.slo_eval", 0.0),
        "remediate.polls": calls.get("remediate.poll", 0),
        "remediate.actions": outcome.values["actions"],
        "remediate.replans": counts.get("remediate.replans", 0),
        "remediate.poll_self_s": self_s.get("remediate.poll", 0.0),
        "fleet.simulate_s": simulate,
        "fleet.fanout_s": fanout,
        "fleet.fanout_overhead_s": fanout - max(per_worker.values(), default=fanout),
        "fleet.parallel_eff": simulate / (fanout * workload.workers) if fanout else 0.0,
        "fleet.merge_s": total_s.get("fleet.merge", 0.0) + total_s.get("fleet.merge_snapshots", 0.0),
        "fleet.health_s": total_s.get("fleet.health", 0.0),
        "fleet.merge_bytes": outcome.values["merge_bytes"],
        "bench.traced_wall_s": recorder.local.total_s.get(ROOT_SPAN, 0.0),
        "bench.other_s": recorder.local.self_s.get(ROOT_SPAN, 0.0),
        # Report-only extras (not metrics): the additive layer split of
        # this process's timeline, the pool workers' split, and what the
        # program's own meter reported for the same run.
        "_layers": recorder.layer_self_s(),
        "_worker_layers": by_layer(recorder.workers.self_s),
        "_meter": {
            key: outcome.values[key]
            for key in ("meter_plan_wall_s", "meter_kernel_flush_wall_s")
            if key in outcome.values
        },
    }
    return values


def _attribution(rep: Dict[str, Any]) -> List[str]:
    """The median traced repetition's wall time, split into layer self
    times plus ``other``; the rows sum to the wall time."""
    wall = rep["bench.traced_wall_s"]
    layers = rep["_layers"]
    lines = [f"attribution of one traced repetition ({wall:.4f} s, self time by layer):"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<16} {seconds:9.4f} s {100 * seconds / wall:6.1f}%")
    lines.append(f"  {'sum':<16} {sum(layers.values()):9.4f} s")
    kernel = sum(s for row, s in layers.items() if row == "sim" or row.endswith(".proc"))
    if kernel:
        lines.append(f"  sim + process bodies: {100 * kernel / wall:.1f}%")
    workers = rep["_worker_layers"]
    if workers:
        lines.append(
            "pool workers (self time by layer, summed over workers; inside "
            "fleet above):"
        )
        for layer, seconds in sorted(workers.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<16} {seconds:9.4f} s")
    meter = rep["_meter"]
    if meter:
        lines.append(
            "run_sharded(...).meter.timings(): "
            + " ".join(f"{k[len('meter_'):]}={v!r}" for k, v in sorted(meter.items()))
            + f" (E1 core.plan_s={rep['core.plan_s']:.4f})"
        )
    return lines


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    return tuple(statistics.quantiles(values, n=4))


def _result(
    trial: Trial, metrics: Dict[str, tuple], lines: List[str], correct: bool
) -> Dict[str, Any]:
    first = trial.first
    summary = []
    if first is not None:
        summary.append(
            f"sim_digest={first.sim_digest} jobs={first.submitted} "
            f"completed={first.completed} failed={first.failed} "
            + " ".join(
                f"{key}={value!r}" for key, value in first.values.items()
                if not key.startswith("meter_")
            )
        )
    summary.append(
        f"error_frac={trial.failed / trial.attempted:.4f} "
        f"({trial.failed} of {trial.attempted} repetitions)"
    )
    summary += [f"problem: {problem}" for problem in trial.problems]
    return {
        "lines": lines + summary,
        "sim_digest": first.sim_digest if first is not None else None,
        "json": {
            "correct": correct and trial.failed == 0,
            "attempted": trial.attempted,
            "failed": trial.failed,
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"e1: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    started = perf_counter()
    import workloads  # noqa: F401  (imports are part of set-up time)

    import_s = perf_counter() - started

    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        print(f"e1 workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            result = measure_traced(
                name, args.seed, args.seconds,
                spans_path=OUT / f"spans-{name}.jsonl",
            )
        else:
            result = measure_untraced(name, args.seed, args.seconds, import_s)
        for line in result["lines"]:
            print(f"  {line}")
        for key, metric in result["json"]["metrics"].items():
            print(f"  {key:<28} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result["json"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
