"""Timed fault windows and the schedules that hold them.

A :class:`FaultWindow` is one half-open interval ``[start, end)`` during
which a specific kind of infrastructure trouble is active, optionally
scoped to a named target (a link direction, a platform zone).  A
:class:`FaultSchedule` is a normalized collection of windows: within one
``(kind, target)`` group, windows are sorted and overlapping or touching
windows are merged, so every query sees at most one active window per
group — the invariant the injector and the property tests rely on.

Schedules are either written explicitly (regression scenarios, golden
traces) or generated by :meth:`FaultSchedule.chaos` from a seeded
:class:`~repro.sim.rng.RngStream`, which keeps whole chaos campaigns
bit-reproducible: same seed, same faults, same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.rng import RngStream


class FaultKind(str, Enum):
    """The failure modes the injector knows how to realise.

    * ``LINK_OUTAGE`` — a link's rate drops to zero for the window.
    * ``LINK_DEGRADED`` — a link's rate is multiplied by ``magnitude``
      (in ``(0, 1)``) for the window.
    * ``ZONE_OUTAGE`` — the serverless platform rejects every invocation
      submitted during the window (region down).
    * ``SANDBOX_RECLAIM`` — executions overlapping the window are killed
      mid-run with probability ``magnitude`` (spot-style reclamation).
    * ``STRAGGLER`` — executions *starting* in the window run
      ``magnitude`` times slower (noisy-neighbour slowdown).
    * ``BATTERY_BROWNOUT`` — at ``start`` the UE instantly loses
      ``magnitude`` (a fraction in ``[0, 1]``) of its remaining charge.
    """

    LINK_OUTAGE = "link_outage"
    LINK_DEGRADED = "link_degraded"
    ZONE_OUTAGE = "zone_outage"
    SANDBOX_RECLAIM = "sandbox_reclaim"
    STRAGGLER = "straggler"
    BATTERY_BROWNOUT = "battery_brownout"


#: Kinds that act on network links (used by the faulted-bandwidth wrapper).
LINK_KINDS: Tuple[FaultKind, ...] = (FaultKind.LINK_OUTAGE, FaultKind.LINK_DEGRADED)


@dataclass(frozen=True)
class FaultWindow:
    """One fault interval ``[start, end)``.

    ``target`` scopes the window to a named object (e.g. ``"uplink"``,
    a platform name); ``None`` applies to every target of the kind.
    ``magnitude`` is interpreted per kind (see :class:`FaultKind`).
    """

    kind: FaultKind
    start: float
    end: float
    target: Optional[str] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if not self.end > self.start:
            raise ValueError(
                f"window must have end > start, got [{self.start}, {self.end})"
            )
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")
        if self.kind is FaultKind.LINK_DEGRADED and not 0.0 < self.magnitude < 1.0:
            raise ValueError("link degradation magnitude must be in (0, 1)")
        if self.kind is FaultKind.SANDBOX_RECLAIM and not 0.0 < self.magnitude <= 1.0:
            raise ValueError("reclaim magnitude is a probability in (0, 1]")
        if self.kind is FaultKind.STRAGGLER and self.magnitude < 1.0:
            raise ValueError("straggler magnitude is a slowdown factor >= 1")
        if self.kind is FaultKind.BATTERY_BROWNOUT and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("brownout magnitude is a charge fraction in [0, 1]")

    @property
    def duration(self) -> float:
        """Length of the window in seconds."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """True when ``t`` falls inside the half-open interval."""
        return self.start <= t < self.end

    def overlaps(self, start: float, end: float) -> bool:
        """True when ``[start, end)`` intersects this window."""
        return self.start < end and start < self.end

    def applies_to(self, target: Optional[str]) -> bool:
        """True when this window covers ``target`` (``None`` = any)."""
        return self.target is None or target is None or self.target == target


def _merge_group(windows: List[FaultWindow]) -> List[FaultWindow]:
    """Merge overlapping/touching windows of one ``(kind, target)`` group.

    The merged window spans the union and keeps the *largest* magnitude —
    the conservative choice for every kind (deepest degradation, highest
    reclaim probability, worst slowdown).
    """
    ordered = sorted(windows, key=lambda w: (w.start, w.end))
    merged: List[FaultWindow] = [ordered[0]]
    for window in ordered[1:]:
        last = merged[-1]
        if window.start <= last.end:
            merged[-1] = FaultWindow(
                kind=last.kind,
                start=last.start,
                end=max(last.end, window.end),
                target=last.target,
                magnitude=max(last.magnitude, window.magnitude),
            )
        else:
            merged.append(window)
    return merged


class FaultSchedule:
    """A normalized, queryable set of fault windows."""

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        groups: Dict[Tuple[FaultKind, Optional[str]], List[FaultWindow]] = {}
        for window in windows:
            groups.setdefault((window.kind, window.target), []).append(window)
        normalized: List[FaultWindow] = []
        for group in groups.values():
            normalized.extend(_merge_group(group))
        normalized.sort(key=lambda w: (w.start, w.end, w.kind.value, w.target or ""))
        self._windows: Tuple[FaultWindow, ...] = tuple(normalized)

    @property
    def windows(self) -> Tuple[FaultWindow, ...]:
        """Every window, normalized and sorted by start time."""
        return self._windows

    def __len__(self) -> int:
        return len(self._windows)

    def __bool__(self) -> bool:
        return bool(self._windows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {len(self._windows)} windows>"

    # -- queries ------------------------------------------------------------

    def windows_for(
        self, kind: FaultKind, target: Optional[str] = None
    ) -> List[FaultWindow]:
        """Windows of ``kind`` that apply to ``target``, in start order."""
        return [
            w for w in self._windows if w.kind is kind and w.applies_to(target)
        ]

    def has_kind(self, *kinds: FaultKind) -> bool:
        """True when the schedule holds any window of the given kinds."""
        return any(w.kind in kinds for w in self._windows)

    def active_window(
        self, kind: FaultKind, t: float, target: Optional[str] = None
    ) -> Optional[FaultWindow]:
        """The window of ``kind`` active at ``t`` for ``target``, if any.

        Scans the start-sorted windows in place and stops at the first one
        that starts after ``t``: neither it nor any later one contains it.
        """
        for window in self._windows:
            if window.start > t:
                break
            if (
                window.kind is kind
                and window.applies_to(target)
                and t < window.end
            ):
                return window
        return None

    def is_active(
        self, kind: FaultKind, t: float, target: Optional[str] = None
    ) -> bool:
        """True when a window of ``kind`` covers ``t``."""
        return self.active_window(kind, t, target) is not None

    def magnitude_at(
        self,
        kind: FaultKind,
        t: float,
        target: Optional[str] = None,
        default: float = 1.0,
    ) -> float:
        """Magnitude of the active window at ``t``, or ``default``."""
        window = self.active_window(kind, t, target)
        return window.magnitude if window is not None else default

    def clear_time(
        self, kind: FaultKind, t: float, target: Optional[str] = None
    ) -> float:
        """Earliest time at or after ``t`` with no active ``kind`` window.

        Chains through back-to-back windows (a global window may abut a
        target-scoped one); returns ``t`` itself when nothing is active.
        """
        now = t
        while True:
            window = self.active_window(kind, now, target)
            if window is None:
                return now
            now = window.end

    def overlapping(
        self,
        kind: FaultKind,
        start: float,
        end: float,
        target: Optional[str] = None,
    ) -> List[FaultWindow]:
        """Windows of ``kind`` intersecting ``[start, end)`` for ``target``."""
        return [
            w for w in self.windows_for(kind, target) if w.overlaps(start, end)
        ]

    def next_boundary_after(
        self,
        t: float,
        kinds: Optional[Sequence[FaultKind]] = None,
        target: Optional[str] = None,
    ) -> float:
        """The next window start or end strictly after ``t`` (inf if none).

        Bandwidth wrappers use this to keep the piecewise-constant rate
        contract: the faulted rate can only change at window boundaries.
        """
        best = math.inf
        for window in self._windows:
            if kinds is not None and window.kind not in kinds:
                continue
            if not window.applies_to(target):
                continue
            for boundary in (window.start, window.end):
                if t < boundary < best:
                    best = boundary
        return best

    # -- construction -------------------------------------------------------

    def merged_with(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule holding both sets of windows, renormalized."""
        return FaultSchedule(self._windows + other._windows)

    @classmethod
    def chaos(
        cls,
        intensity: float,
        horizon: float,
        rng: RngStream,
        link_targets: Sequence[str] = ("uplink", "downlink"),
        zone: Optional[str] = None,
    ) -> "FaultSchedule":
        """Generate a random fault campaign over ``[0, horizon)``.

        ``intensity`` in ``[0, 1]`` scales the expected number of windows
        of every kind; 0 yields an empty schedule.  All draws come from
        ``rng`` in a fixed order, so a given ``(seed, intensity, horizon)``
        always produces the identical schedule — the property the
        golden-trace harness and the chaos benchmark assert.
        """
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        windows: List[FaultWindow] = []

        def count(expected: float) -> int:
            return rng.poisson(expected * intensity)

        def span(lo_frac: float, hi_frac: float) -> Tuple[float, float]:
            length = horizon * rng.uniform(lo_frac, hi_frac)
            start = rng.uniform(0.0, max(horizon - length, 1e-9))
            return start, start + length

        for target in link_targets:
            for _ in range(count(2.0)):
                start, end = span(0.01, 0.05)
                windows.append(
                    FaultWindow(FaultKind.LINK_OUTAGE, start, end, target=target)
                )
            for _ in range(count(2.0)):
                start, end = span(0.03, 0.12)
                windows.append(
                    FaultWindow(
                        FaultKind.LINK_DEGRADED,
                        start,
                        end,
                        target=target,
                        magnitude=rng.uniform(0.1, 0.5),
                    )
                )
        for _ in range(count(2.0)):
            start, end = span(0.04, 0.12)
            windows.append(
                FaultWindow(FaultKind.ZONE_OUTAGE, start, end, target=zone)
            )
        for _ in range(count(2.0)):
            start, end = span(0.05, 0.20)
            windows.append(
                FaultWindow(
                    FaultKind.SANDBOX_RECLAIM,
                    start,
                    end,
                    target=zone,
                    magnitude=rng.uniform(0.3, 0.9),
                )
            )
        for _ in range(count(2.0)):
            start, end = span(0.05, 0.15)
            windows.append(
                FaultWindow(
                    FaultKind.STRAGGLER,
                    start,
                    end,
                    target=zone,
                    magnitude=rng.uniform(1.5, 4.0),
                )
            )
        for _ in range(count(1.0)):
            start = rng.uniform(0.0, horizon)
            windows.append(
                FaultWindow(
                    FaultKind.BATTERY_BROWNOUT,
                    start,
                    start + 1.0,
                    magnitude=rng.uniform(0.05, 0.20),
                )
            )
        return cls(windows)


__all__ = ["FaultKind", "FaultSchedule", "FaultWindow", "LINK_KINDS"]
