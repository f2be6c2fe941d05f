"""Always-on runtime self-metering: the perf counters the hot paths keep.

The :class:`RuntimeMeter` is the performance-observability primitive the
kernel, controller, sweep runner, and sharded fleet all write into.  Two
constraints shape it:

* **Zero allocation on the hot path.**  Every counter is a plain int
  slot; the kernel's per-event cost is exactly one integer add on a
  hoisted local — the same instruction count as the event counter it
  replaced.  No dict lookups, no method calls, no objects per event.
* **Deterministic snapshots.**  :meth:`snapshot` exposes *only* the
  integer counters, which are functions of the simulated work — never of
  the host machine — so a snapshot embedded in a merged fleet document
  stays byte-identical across shard and worker counts.  Wall-clock
  measurements (plan wall, sweep wall, merge seconds) live in the
  separate :meth:`timings` view and never enter byte-compared documents.

Every wall-clock metering site runs once per ``plan``/``run``/sweep/
merge call, never per event, so it always takes its two
``perf_counter()`` reads.  The counter increments are always on too;
they *are* the metric.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

__all__ = ["RuntimeMeter"]

#: Integer counter slots, in snapshot order.  Deterministic: each is a
#: function of the simulated/submitted work, never of the host.
_COUNTER_SLOTS = (
    "fast_lane_hits",     # kernel: events dispatched via the immediate lane
    "heap_hits",          # kernel: events dispatched via the binary heap
    "batched_events",     # kernel: events dispatched inside run()'s
                          # same-time batch drains; run() is the only
                          # dispatch loop, so this always equals
                          # fast_lane_hits.  Kept because E1's
                          # sim.batched_frac and the golden fleet
                          # fixtures read it.
    "plans_computed",     # controller: plan() completions (plans/sec seed)
    "sweep_configs",      # sweep: configs resolved (cache hits + misses)
    "sweep_cache_hits",   # sweep: configs served from the on-disk cache
    "sweep_cache_misses", # sweep: configs actually executed
    "shard_runs",         # fleet: shard configs fanned out
    "merge_bytes",        # fleet: size of the canonical merged document
)

#: Float wall-clock slots.  Host-dependent provenance, never identity.
_TIMING_SLOTS = (
    "plan_wall_s",          # controller: seconds inside plan(), memo
                            # hits included
    "sweep_wall_s",         # sweep: seconds inside SweepRunner.run()
    "shard_wall_s",         # fleet: seconds fanning the shards out
    "merge_wall_s",         # fleet: seconds merging + serialising the documents
    "kernel_flush_wall_s",  # kernel: seconds inside all of Simulator.run(),
                            # callbacks and process bodies included: whole
                            # simulation time, not kernel time (the name is
                            # kept because benchmark harnesses read it)
)


class RuntimeMeter:
    """Plain-slot perf counters; one instance per metered subsystem.

    Each :class:`~repro.sim.kernel.Simulator` owns one (kernel lanes and
    the controller's plan path share it); a
    :class:`~repro.sweep.runner.SweepRunner` owns another; a sharded
    fleet run folds its group meters plus its own fan-out/merge stats
    into a third.  Counters are public attributes incremented in place.
    """

    __slots__ = _COUNTER_SLOTS + _TIMING_SLOTS

    def __init__(self) -> None:
        for name in _COUNTER_SLOTS:
            setattr(self, name, 0)
        for name in _TIMING_SLOTS:
            setattr(self, name, 0.0)

    # -- views --------------------------------------------------------------

    @property
    def events_dispatched(self) -> int:
        """Total kernel events: fast-lane plus heap dispatches."""
        return self.fast_lane_hits + self.heap_hits

    def snapshot(self) -> Dict[str, int]:
        """The deterministic counters, canonical-JSON-safe.

        Byte-identical across shard/worker counts for any meter fed only
        by simulated work; safe to embed in merged documents.
        """
        out = {name: int(getattr(self, name)) for name in _COUNTER_SLOTS}
        out["events_dispatched"] = out["fast_lane_hits"] + out["heap_hits"]
        return out

    def timings(self) -> Dict[str, float]:
        """The wall-clock measurements (host-dependent, report-only)."""
        return {
            name: round(float(getattr(self, name)), 6)
            for name in _TIMING_SLOTS
        }

    # -- folding ------------------------------------------------------------

    def absorb(self, other: "RuntimeMeter") -> None:
        """Fold another meter's counters and timings into this one."""
        for name in _COUNTER_SLOTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _TIMING_SLOTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def absorb_snapshot(self, data: Mapping[str, Any]) -> None:
        """Fold a serialised :meth:`snapshot` (e.g. from a fleet group
        record) into this meter's counters; unknown keys are ignored."""
        for name in _COUNTER_SLOTS:
            value = data.get(name)
            if value is not None:
                setattr(self, name, getattr(self, name) + int(value))

    # -- export -------------------------------------------------------------

    def publish(
        self, registry, include_timings: bool = True, **labels: object
    ) -> None:
        """Export the counters into a
        :class:`~repro.telemetry.registry.LabeledMetricsRegistry`.

        One ``repro_meter_<counter>_total`` counter series per slot (so
        the meter rides the same Prometheus text exposition the health
        documents use) plus one ``repro_meter_wall_seconds`` gauge per
        timing slot, labelled by ``stage``.  Pass ``include_timings=False``
        for meters rebuilt from a counters-only snapshot, where the wall
        gauges would all read a misleading zero.
        """
        for name, value in sorted(self.snapshot().items()):
            registry.counter(
                f"repro_meter_{name}_total", **labels
            ).increment(value)
        if not include_timings:
            return
        for name, value in sorted(self.timings().items()):
            stage = name[: -len("_wall_s")]
            registry.gauge(
                "repro_meter_wall_seconds", stage=stage, **labels
            ).set(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RuntimeMeter events={self.events_dispatched} "
            f"plans={self.plans_computed}>"
        )
