"""T1 — Serverless memory-size allocation.

For six function archetypes, compare the allocator's choice against the
two fixed policies practitioners default to (smallest tier, largest
tier), with and without a latency SLO.  Reproduces the Lambda-Power-
Tuning shape: the allocator finds the tier where CPU-bound cost is still
flat but duration is minimal, and pays for larger sizes only when an SLO
forces it.
"""

import math

from repro.core.allocation import MemoryAllocator
from repro.metrics import Table

from _common import emit

#: (name, work_gcycles, parallel_fraction, min_memory_mb, slo_s)
ARCHETYPES = [
    ("thumbnailer",      2.0,  0.50, 128,  math.inf),
    ("transcoder",      24.0,  0.80, 512,  math.inf),
    ("feature-extract", 48.0,  0.90, 1024, math.inf),
    ("hash-dedup",       1.0,  0.00, 128,  math.inf),
    ("report-render",    6.0,  0.30, 256,  10.0),
    ("ml-train-step",  240.0,  0.95, 2048, 60.0),
]


def run_t1() -> Table:
    allocator = MemoryAllocator()
    table = Table(
        [
            "function", "slo s", "chosen MB", "dur s", "cost $",
            "128MB dur s", "128MB cost $", "10GB dur s", "10GB cost $",
        ],
        title="T1: memory allocation per function archetype "
              "(chosen vs fixed-min vs fixed-max)",
        precision=3,
    )
    for name, work, parallel, floor, slo in ARCHETYPES:
        chosen = allocator.cheapest(
            name, work, parallel_fraction=parallel,
            latency_slo_s=slo, min_memory_mb=floor,
        )
        curve = {
            point.memory_mb: point
            for point in allocator.curve(work, parallel)
        }
        smallest = curve[128]
        largest = curve[10240]
        table.add_row(
            name, None if math.isinf(slo) else slo,
            chosen.memory_mb, chosen.expected_duration_s,
            chosen.expected_cost_usd,
            smallest.duration_s, smallest.cost_usd,
            largest.duration_s, largest.cost_usd,
        )

        # Shape assertions: the chosen size is never slower than 128 MB,
        # never pricier than 10 GB, and meets its SLO.
        assert chosen.expected_duration_s <= smallest.duration_s + 1e-9
        assert chosen.expected_cost_usd <= largest.cost_usd + 1e-12
        assert chosen.expected_duration_s <= slo + 1e-9
        assert chosen.memory_mb >= floor
    return table


def bench_t1_allocation():
    table = run_t1()
    emit(table)

    # The headline claim: for CPU-heavy serial-ish work the chosen tier
    # is dramatically faster than fixed-128 at comparable cost.
    chosen_duration = table.column("dur s")[3]      # hash-dedup, serial
    fixed_duration = table.column("128MB dur s")[3]
    assert fixed_duration > 5 * chosen_duration


if __name__ == "__main__":
    emit(run_t1())
