"""Determinism and regression-test harnesses.

:mod:`repro.testing.golden` runs a pinned end-to-end scenario and renders
its full event/metric trace as canonical text, so a committed fixture can
prove that a refactor or optimisation changed *nothing* it did not mean
to — the simulator's core guarantee, locked in as a test.
"""

from repro import _lazy_exports

_EXPORTS = {
    "GOLDEN_SEED": "golden",
    "golden_fault_schedule": "golden",
    "run_golden_scenario": "golden",
    "trace_digest": "golden",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
