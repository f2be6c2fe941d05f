#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every benchmark.

Usage:  python tools/make_experiments.py [output-path] [--workers N]

Each experiment's table (and ASCII figure, where one exists) is captured
from the same `run_*` functions the pytest-benchmark harness uses, so
the document always matches `pytest benchmarks/ --benchmark-only`
exactly.  The verdict prose lives here; when a model change shifts the
numbers, update the prose alongside it.

The sections are independent simulations, so they fan out across worker
processes through :mod:`repro.sweep` (all cores by default); the merge is
ordered by section, never by completion, so the document is identical for
any worker count.
"""

from __future__ import annotations

import argparse
import io
import contextlib
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "tools"))

HEADER = """# EXPERIMENTS — paper vs. measured

**Source-text caveat.** The available text of the paper (a
doctoral-symposium abstract; see DESIGN.md) contains **no numbered tables
or figures**, so there are no published absolute numbers to match.  The
experiment suite below was *defined by this reproduction* (DESIGN.md,
"Experiment index") to operationalise each claim in the abstract;
"claim" lines therefore cite the abstract's qualitative statements and
the standard results of the surrounding literature the abstract builds
on (MAUI-style partitioning, Lambda-style memory/pricing behaviour,
serverless-vs-edge economics).  Every number below regenerates
deterministically via `pytest benchmarks/ --benchmark-only`, any single
`python benchmarks/bench_<id>_*.py`, or `python tools/make_experiments.py`.

Shape verdicts: ✅ = the qualitative claim reproduces.

---
"""

FOOTER = """---

## Reproducing

```bash
python setup.py develop          # offline env: pip lacks the wheel pkg
pytest tests/                    # 720+ unit/integration/property tests
pytest benchmarks/ --benchmark-only   # all 26 experiments + shape asserts
python benchmarks/bench_f1_bandwidth.py   # any single experiment
python tools/make_experiments.py          # regenerate this document
```

All experiments are deterministic (fixed seeds, derandomised property
tests, integer-exact min-cut); every table except the F6, O1 and O2
wall-clock columns regenerates bit-identically.
"""


def build_sections():
    """(id, title, claim, runner, verdict) for every experiment."""
    from bench_t1_allocation import run_t1
    from bench_t2_partitioning import run_t2
    from bench_t3_energy import run_t3
    from bench_t4_cicd import run_t4_gate, run_t4_overhead
    from bench_t5_fidelity import run_t5
    from bench_f1_bandwidth import figure_f1, run_f1
    from bench_f2_coldstart import run_f2
    from bench_f3_deadline import run_f3
    from bench_f4_batching import run_f4
    from bench_f5_edge_vs_cloud import run_f5a, run_f5b
    from bench_f6_scalability import run_components_axis, run_jobs_axis
    from bench_f7_fleet import figure_f7, run_f7
    from bench_f8_ntc_stack import run_f8
    from bench_f10_sharding import run_f10
    from bench_f11_fleet_obs import run_f11
    from bench_f9_pareto import run_f9
    from bench_a1_partitioner_ablation import run_a1
    from bench_a2_demand_ablation import run_a2
    from bench_a3_allocation_ablation import run_a3
    from bench_a4_coldstart_mitigation import run_a4
    from bench_a5_retry_ablation import run_a5
    from bench_a6_orchestration import run_a6
    from bench_a7_dvfs import figure_a7, run_a7
    from bench_a8_makespan import run_a8
    from bench_a9_safety_factor import run_a9
    from bench_a10_observed_signals import run_a10
    from bench_r1_chaos import run_r1
    from bench_o1_overhead import run_o1
    from bench_o2_kernel import run_o2
    from bench_o3_dispatch import run_o3

    def single(fn):
        return lambda: print(fn())

    def with_figure(run, figure):
        def runner():
            table = run()
            print(table)
            print()
            print(figure(table))

        return runner

    def pair(first, second):
        return lambda: (print(first()), print(), print(second()))

    return [
        (
            "T1", "Serverless memory-size allocation (C2)",
            "Picking the memory size is a real optimisation: cost is flat "
            "while CPU-bound duration shrinks up to one full vCPU, then "
            "cost rises; an SLO forces larger sizes.",
            single(run_t1),
            "**Verdict ✅** — the allocator lands on the 1769 MB (1 vCPU) "
            "knee for serial code (5.8–14x faster than fixed-128 MB at "
            "equal cost within 2%), extends the band only for parallel "
            "functions (2048–3072 MB), and never pays for 10 GB unforced — "
            "fixed-max costs 3–6x more.  SLO-bound rows pick the cheapest "
            "feasible tier.",
        ),
        (
            "T2", "Partitioning quality (C3)",
            "Whole-graph optimisation of the UE/cloud cut beats trivial "
            "and per-component policies; the min-cut formulation is exact.",
            single(run_t2),
            "**Verdict ✅** — min-cut = exhaustive optimum on every app; "
            "greedy matches; local-only pays 1.8–2.1x the optimal "
            "objective, random 1.3–1.8x, myopic up to 1.2x.",
        ),
        (
            "T3", "UE energy savings",
            "Offloading saves device energy once the uplink is good "
            "enough; a weak uplink erodes the saving.",
            single(run_t3),
            "**Verdict ✅** — savings grow monotonically with "
            "connectivity: 35% on 3G, 86% on 4G, 95–96% on WiFi/5G, never "
            "negative.  (Radio energy counts only the access hop's active "
            "time — the UE's own transmitter.)",
        ),
        (
            "T4", "CI/CD pipeline integration (C4)",
            "Offloading can be integrated into a modern deployment "
            "process; profiling/partitioning/allocation run per revision "
            "and a canary gates promotion.",
            pair(run_t4_overhead, run_t4_gate),
            "**Verdict ✅** — the offload stages add 1.9–4.3x pipeline "
            "duration (dominated by CI profiling of the heavy ML app), "
            "bounded and mostly parallelisable; the canary gate stops a "
            "6x demand regression (response +442%) from reaching "
            "production and passes an honest improvement.",
        ),
        (
            "T5", "Planning fidelity",
            "The planning model every decision rests on must predict what "
            "the execution engine then does.",
            single(run_t5),
            "**Verdict ✅** — on warm-start noise-free runs the planner "
            "predicts cloud cost exactly, UE energy within 1.6%, and "
            "makespan within 4.2% (the residual is per-request protocol "
            "overhead and WAN store-and-forward, both deliberately "
            "conservative in execution).",
        ),
        (
            "F1", "Offload benefit vs bandwidth (crossover)",
            "Local wins on slow uplinks, offloading wins on fast ones; an "
            "adaptive controller tracks the winner.",
            with_figure(run_f1, figure_f1),
            "**Verdict ✅** — crossover between 2 and 5 Mbit/s: "
            "full-offload is ~21x worse than local at 0.1 Mbit/s and "
            "~2.2x better at 100 Mbit/s; the controller matches the "
            "winner at both extremes and beats both in the middle by "
            "offloading partially (1–2 components).  The analytic "
            "calculator (`repro.analysis.crossover_bandwidth`) puts the "
            "break-even at ~1.7 Mbit/s under balanced weights, consistent "
            "with the measured curve.",
        ),
        (
            "F2", "Cold-start impact",
            "The cold-start fraction collapses once the inter-arrival "
            "time falls below the keep-alive; tail latency rides the "
            "cold-start cliff for sparse traffic.",
            single(run_f2),
            "**Verdict ✅** — cold % falls 93→2 (keep-alive 120 s) and "
            "62→1 (900 s) across the rate sweep; p50 shows the 0.6 s cold "
            "penalty only at sparse rates while p99 keeps it everywhere "
            "(Poisson clustering).",
        ),
        (
            "F3", "Deadline misses vs slack (C5)",
            "Non-time-critical jobs can be deferred without endangering "
            "deadlines.",
            single(run_f3),
            "**Verdict ✅** — all schedulers miss 100% on impossible "
            "deadlines (slack 0.5x service time) and 0% from 1x up; the "
            "batcher's deferral (response up to 10x higher) never causes "
            "a single miss — slack absorbs it by construction of the "
            "latest-safe-start clamp.",
        ),
        (
            "F4", "Batching window vs cost",
            "Aligning dispatches amortises cold starts; the window trades "
            "response time, not deadline safety.",
            single(run_f4),
            "**Verdict ✅** — cold starts fall 94% → 25% as the window "
            "grows to 3 h; response time rises proportionally; zero "
            "misses throughout.  (Per-job dollar cost moves little "
            "because compute dominates this bill; the cold-start "
            "*latency* overhead is the quantity batching removes.)",
        ),
        (
            "F5", "Cloud serverless vs edge (the paper's core argument)",
            "Edge computing buys response time at an infrastructure cost; "
            'use cases that "do not benefit from lower response time … '
            'can remain in the cloud".',
            pair(run_f5a, run_f5b),
            "**Verdict ✅** — the edge is faster (worst-case response "
            "31 s vs 41 s: that 10 s is exactly what tight deadlines "
            "would buy) at near-equal per-job UE energy, but a "
            "provisioned edge node costs 444x more per job at 0.5 jobs/h "
            "and is still ~1.8x more expensive at 128 jobs/h (22% "
            "utilisation).  With slack, the latency advantage is "
            "worthless and serverless wins the economics outright.  The "
            "analytic breakeven (`repro.analysis.edge_breakeven_rate`) "
            "sits above 128 jobs/h for this app, matching the sweep.",
        ),
        (
            "F6", "Scalability",
            "The simulation and the planners must scale to fleet-sized "
            "studies.",
            pair(run_jobs_axis, run_components_axis),
            "**Verdict ✅** — the event kernel is linear in jobs "
            "(~1 ms/job, flat); min-cut plans a 96-component graph in "
            "<10 ms where exhaustive enumeration is already infeasible at "
            "24; greedy stays optimal on pipelines but costs O(n²) "
            "evaluations.  (Wall-clock columns vary run to run; "
            "everything else is deterministic.)",
        ),
        (
            "F7", "Fleet density economics",
            "At fleet scale, one user's invocation keeps the functions "
            "warm for the next — density substitutes for provisioning.",
            with_figure(run_f7, figure_f7),
            "**Verdict ✅** — the cold-start fraction collapses "
            "100% → 1% as the fleet grows from 2 to 96 devices on a "
            "fixed window, with per-job cost flat (±2%) and the aggregate "
            "bill exactly linear — pay-per-use with a communal warm pool.",
        ),
        (
            "F10", "Sharded fleet scaling",
            "Fleet studies beyond one core: partition the zone topology "
            "across worker processes without changing a single byte of "
            "the result.",
            single(run_f10),
            "**Verdict ✅** — the merged fleet report is byte-identical "
            "at 1, 2, and 4 shards (the exactness condition: no link "
            "crosses a shard boundary), and shard fan-out scales "
            "UEs-simulated-per-wall-second with worker processes on "
            "multi-core hosts.  (The speedup column is only meaningful "
            "on ≥4 cores; single-core CI shows pool overhead instead.)",
        ),
        (
            "F11", "Fleet observability under chaos",
            "Monitoring a sharded fleet must not reintroduce layout "
            "sensitivity: merged SLO rollups and the alert log are the "
            "same bytes no matter how the fleet was partitioned.",
            single(run_f11),
            "**Verdict ✅** — the merged health document is byte-identical "
            "at 1, 2, and 4 shards with the R1-style uplink-outage "
            "schedule active; the outage pages the uplink-stall SLO "
            "(FIRING then CLEARED on the merged stream) while the "
            "fault-free fleet stays all-ok with an empty alert log, and "
            "the monitor shard's overhead stays a small constant factor "
            "of the unmonitored run.",
        ),
        (
            "F8", "The non-time-critical stack (capstone)",
            '"Non-time-critical" unlocks a *stack* of levers, each '
            "spending slack to buy a different resource.",
            single(run_f8),
            "**Verdict ✅** — batching halves cold starts (100% → 47%), "
            "DVFS trims the local residue, and the cost-window scheduler "
            "halves the congestion price paid (1.90 → 0.94) by shifting "
            "dispatches ~6 h — all at zero deadline misses.  UE energy "
            "barely moves down the ladder because the dominant energy "
            "decision, offloading itself, is already made at step 2 on "
            "this uplink: the paper's thesis in one table.",
        ),
        (
            "F9", "The partition trade space (Pareto frontier)",
            "The weighted objective collapses three axes; the frontier "
            "shows what got collapsed.",
            single(run_f9),
            "**Verdict ✅** — of 32 feasible partitions, 12 survive on "
            "the makespan/cost frontier (20 on the full 3-axis one); "
            "local-only anchors the zero-cost corner, and both weight "
            "presets pick the same 3-axis-efficient full offload — equal "
            "makespan to the 2-axis leader with 21% less UE energy for "
            "+7% cloud cost.  Near the crossover bandwidth the trade "
            "space is genuinely multi-dimensional; the weights are how a "
            "deployment states its policy.",
        ),
        (
            "A1", "Ablation: partitioning algorithms",
            None,
            single(run_a1),
            "**Verdict ✅** — min-cut exact on 144/144 instances, tree-DP "
            "exact on every tree (72/72); greedy's worst gap 0%; the "
            "myopic per-component rule loses up to 68% — whole-graph "
            "optimisation is what C3 buys.",
        ),
        (
            "A2", "Ablation: demand estimators",
            None,
            single(run_a2),
            "**Verdict ✅** — regression wins where demand scales with "
            "input size (5% vs 35–81%), EWMA wins under drift (3.5% vs "
            "39% for the mean), the mean-family wins on stationary noise; "
            "no single size-blind estimator is safe, justifying the "
            "per-component regression default.",
        ),
        (
            "A3", "Ablation: allocation search",
            None,
            single(run_a3),
            "**Verdict ✅** — the convexity-aware walk returns the exact "
            "scan result on every workload with ~25% fewer probes; coarse "
            "probe-and-refine saves ~35% with zero regret on these shapes "
            "(its regret is bounded, not zero, in general).",
        ),
        (
            "A4", "Ablation: cold-start mitigation",
            None,
            single(run_a4),
            "**Verdict ✅** — every mitigation beats the 75%-cold "
            "baseline: a longer keep-alive gets 6.7% for free, "
            "client-side batching gets 12% at the cost of ~28 min median "
            "deferral, and one pre-warmed sandbox gets 1.3% — but its "
            "provisioned bill ($0.46) exceeds the entire invocation bill "
            "($0.004) by 100x at this sparsity.  For non-time-critical "
            "traffic, batching is the right tool.",
        ),
        (
            "A5", "Ablation: retry budget vs transient failures",
            None,
            single(run_a5),
            "**Verdict ✅** — a single attempt loses jobs at the failure "
            "rate (9% / 29%); two attempts recover most; four attempts "
            "push success to ≥99.5%.  Wasted (billed-but-failed) spend "
            "tracks the failure rate, not the budget — retries only run "
            "when needed.",
        ),
        (
            "A6", "Ablation: UE-coordinated vs workflow-orchestrated execution",
            None,
            single(run_a6),
            "**Verdict ✅** — handing the cloud phase to a server-side "
            "workflow lets the UE deep-sleep instead of idling: 9–36% "
            "less device energy per job, growing with the cloud phase's "
            "length (ml_training at 32 MB saves 13 J/job), for a per-job "
            "orchestration fee that stays under 5% of the compute bill.",
        ),
        (
            "A7", "Ablation: DVFS under slack",
            None,
            with_figure(run_a7, figure_a7),
            "**Verdict ✅** — the controller walks the frequency ladder "
            "down (1.0 → 0.8 → 0.4) exactly as fast as deadlines allow; "
            "at generous slack the local compute energy falls 84% (the "
            "f² bound for f = 0.4 is 16%), with zero misses throughout.  "
            "DVFS leans on demand accuracy: the bench profiles first, and "
            "without profiling the first job's misprediction can cause a "
            "miss — quantified in the test suite.",
        ),
        (
            "A8", "Ablation: serialized proxy vs direct makespan",
            None,
            single(run_a8),
            "**Verdict ✅** — the separable proxy the exact partitioners "
            "optimise deviates from the true makespan optimum on 8–12 of "
            "25 fan-out instances, but never by more than 0.35%; "
            "annealing seeded from the min-cut solution recovers the "
            "exact optimum on every instance.  The proxy is a sound "
            "default; the annealer is there for makespan-critical wide "
            "graphs.",
        ),
        (
            "A9", "Ablation: the deadline safety factor",
            None,
            single(run_a9),
            "**Verdict ✅** — the factor is the miss-vs-deferral dial: "
            "at 1.0 the batcher gambles the noise margin and loses 30% of "
            "deadlines; 1.25 already cuts that to 5%, and ≥2.0 is fully "
            "safe under ±35% demand noise at the price of dispatching "
            "~40% earlier (less slack harvested).  The 1.5 default "
            "balances the two.",
        ),
        (
            "A10", "Ablation: oracle profiling vs observed-signal demand",
            "The controller should not need the simulator's oracle: "
            "demand learned from measured execution durations (inverted "
            "through the billing-tier duration model) and link rates from "
            "monitored goodput must converge to the oracle's plan "
            "quality in-flight.",
            single(run_a10),
            "**Verdict ✅** — the observed-signal mode plans blind "
            "(451% demand error from the unprofiled prior, "
            "`profile_offline` a no-op by contract) and converges to "
            "1.3% after ten jobs of monitored history — the oracle's "
            "neighbourhood (0.7%) without ever reading a true "
            "coefficient — while completing the identical workload at "
            "identical cloud spend and energy.  The monitored, adaptive "
            "run replays bit-identically.",
        ),
        (
            "R1", "Resilience: chaos campaigns vs graceful degradation",
            "A delay-tolerant offloading controller should survive "
            "infrastructure faults by spending slack — waiting out "
            "outages, hedging stragglers, falling back to local compute — "
            "rather than losing jobs.",
            single(run_r1),
            "**Verdict ✅** — under seeded chaos campaigns (link/zone "
            "outages, spot reclamations, stragglers, brownouts) the naive "
            "controller loses 17–33% of jobs and fault-blind retries "
            "still lose 17–25%; the degradation-aware controller misses "
            "zero deadlines at every intensity by waiting out dead zones "
            "(outage-aware backoff), hedging stragglers, and falling back "
            "to local compute (3–5 jobs per campaign), paying ~40–80% "
            "more cloud spend and ~40% higher mean response — slack "
            "converted into survival.  The whole campaign replays "
            "bit-identically from its seed, faults included.",
        ),
        (
            "O1", "Observability: telemetry overhead",
            "Tracing must be free when disabled: an uninstrumented run "
            "pays one hoisted bool per instrumented operation and "
            "nothing per kernel event, so the telemetry layer can stay "
            "compiled-in everywhere.",
            single(run_o1),
            "**Verdict ✅** — with the null tracer installed the "
            "instrumented kernel loop times within noise of the plain "
            "loop (the CI assertion allows ≤ 2% on min-of-5 interleaved "
            "rounds; measured runs land within ±2%).  Recording is "
            "deliberately not free — one span per event costs a few "
            "hundred ns each — which is why the tracer is opt-in per "
            "run (`--trace`).  Wall-clock columns here are the suite's "
            "only non-deterministic numbers besides F6's and O2's.",
        ),
        (
            "O2", "Optimisation: kernel throughput (fast-lane dispatch)",
            "Fleet-sized studies are gated on raw kernel throughput, so "
            "the dispatch hot path must be fast *without* perturbing a "
            "single trace: an immediate-event fast lane, pooled heap "
            "entries, slotted dispatch records and no-contention resource "
            "fast paths, all preserving the (time, sequence) dispatch "
            "order byte-for-byte.",
            single(run_o2),
            "**Verdict ✅** — vs the pre-PR heap-only kernel on the same "
            "op mix: pure-event dispatch 1.15M → ~2.1M events/s (1.8x, "
            "target ≥1.5x), spawn/join 1.6x, contended resource cycles "
            "1.26x, link transfers 1.5x, and the F6 80-job end-to-end "
            "wall 71.8 ms → ~47 ms (1.5x, target ≥1.15x) — at an "
            "*unchanged* event count (9207) and byte-identical golden "
            "traces.  Equivalence is enforced three ways: the golden "
            "fixtures, a Hypothesis differential suite against a "
            "reconstructed heap-only reference kernel "
            "(`tests/test_kernel_fastlane.py`), and a tracemalloc "
            "per-job allocation budget (`tests/test_alloc_budget.py`).  "
            "CI gates every commit against the committed "
            "`benchmarks/BENCH_O2.json` via `tools/check_bench.py --bench O2`.  "
            "Wall-clock columns are non-deterministic; the speedup "
            "column is meaningful on comparable hardware only.",
        ),
        (
            "O3", "Optimisation: batched dispatch",
            "Once same-time heap entries drain, nothing can re-enter the "
            "heap at the current timestamp, so `run()` can drain the "
            "whole fast lane as one batch — one heap-front comparison "
            "and one clock read per batch instead of per event — "
            "byte-identical to the per-event loop.  `run()`, "
            "`run(until=t)` and `run(until=event)` share that one loop: "
            "an event target stops it through a callback on the target, "
            "so the drain checks nothing per event.",
            single(run_o3),
            "**Verdict ✅** — on a lane drain with a pending heap entry "
            "(the steady state of real workloads), the batched loop "
            "clears ~5.3M events/s vs ~3.7M for a verbatim "
            "reconstruction of the per-event loop — a 1.3–1.5x "
            "batching win (gated ≥1.2x), with the relight chain at "
            "~1.5M events/s (medians of 10 full-mode runs on a 2-vCPU VM).  Equivalence is enforced the "
            "same three ways as O2: golden traces, the Hypothesis "
            "differential suite against the heap-only reference kernel "
            "(`tests/test_kernel_fastlane.py`), which drives `run()`, "
            "`run(until=t)` and `run(until=event)` with a mid-program "
            "pause, and the traced event loop's transient allocation "
            "peak pinned O(1) by the trace ring "
            "(`tests/test_alloc_budget.py`).  CI gates against the "
            "committed `benchmarks/BENCH_O3.json` via "
            "`tools/check_bench.py`.",
        ),
    ]


def run_experiment(config):
    """Sweep cell: run one experiment section, return its captured body."""
    exp_id = config["experiment"]
    for section_id, _title, _claim, runner, _verdict in build_sections():
        if section_id == exp_id:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                runner()
            return {"experiment": exp_id, "body": buffer.getvalue().strip()}
    raise ValueError(f"unknown experiment {exp_id!r}")


def main(output: str = "EXPERIMENTS.md", workers: int = 0) -> None:
    from repro.sweep import SweepRunner, SweepSpec

    sections = build_sections()
    configs = [{"experiment": exp_id} for exp_id, *_ in sections]
    spec = SweepSpec(scenario="make_experiments:run_experiment", points=configs)
    result = SweepRunner(spec, workers=workers or os.cpu_count() or 1).run()
    bodies = {
        cell["experiment"]: cell["body"]
        for cell in result.results_for(configs)
    }
    parts = [HEADER]
    for exp_id, title, claim, _runner, verdict in sections:
        parts.append(f"\n## {exp_id} — {title}\n")
        if claim:
            parts.append(f"**Claim:** {claim}\n")
        parts.append("**Measured:**\n")
        parts.append(f"```\n{bodies[exp_id]}\n```\n")
        parts.append(verdict + "\n")
        print(f"done {exp_id}", file=sys.stderr)
    parts.append("\n" + FOOTER)
    Path(output).write_text("\n".join(parts))
    print(f"wrote {output}", file=sys.stderr)


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    cli.add_argument("--workers", type=int, default=0,
                     help="worker processes (default: all cores)")
    cli_args = cli.parse_args()
    main(cli_args.output, workers=cli_args.workers)
