"""Parallel sweep execution: fan out, merge deterministically, cache.

:class:`SweepRunner` runs every config of a :class:`~repro.sweep.spec.SweepSpec`
— across worker processes (:mod:`repro.sweep.fanout`) when
``workers > 1`` — and returns a :class:`SweepResult` whose entries are
ordered by canonical config key.  Completion order never influences the
output, so the merged JSON is byte-identical regardless of the worker
count.

Results are JSON-normalised (round-tripped through canonical JSON) the
moment they arrive, so a result served from the on-disk cache is
indistinguishable from a freshly executed one.  The cache keys one file
per config under ``cache_dir`` by :func:`~repro.sweep.spec.config_hash`;
re-running a grown grid executes only the delta.  Each entry also holds
the :func:`~repro.sweep.spec.code_digest` of the code that wrote it, and
an entry of other code, of another scenario or config, or one that does
not parse is a miss: the config runs again and its entry is rewritten.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.perf.meter import RuntimeMeter
from repro.sweep.spec import (
    SweepSpec,
    canonical_json,
    code_digest,
    config_hash,
    config_key,
    resolve_scenario,
    scenario_ref,
    write_atomic,
)

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".sweep_cache"

_MISS = object()


class WorkerDiedError(RuntimeError):
    """A worker process died while it ran ``config``; ``exitcode`` is its
    exit status (negative when a signal killed it)."""

    def __init__(self, config: Mapping[str, Any], exitcode: Optional[int]):
        super().__init__(
            f"sweep worker died (exit code {exitcode}) "
            f"running config {config_key(config)}"
        )
        self.config = config
        self.exitcode = exitcode


@dataclass(frozen=True)
class SweepEntry:
    """One completed scenario run inside a sweep."""

    key: str
    digest: str
    config: Dict[str, Any]
    result: Any
    cached: bool


@dataclass(frozen=True)
class SweepProgress:
    """One live heartbeat: a config just finished (or hit the cache).

    Fired in completion order — which is *not* deterministic across
    worker counts — so heartbeats are for liveness display only and
    never feed the merged document.  ``wall_s`` is wall-clock time since
    the sweep started.
    """

    key: str
    config: Dict[str, Any]
    result: Any
    completed: int
    total: int
    cached: bool
    wall_s: float


class SweepResult:
    """The merged outcome of one sweep, ordered by canonical config key."""

    def __init__(
        self,
        scenario: str,
        entries: Iterable[SweepEntry],
        meter: Optional[RuntimeMeter] = None,
        code: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        #: The code digest cache entries were checked against (``None``
        #: without a cache); like the meter, kept out of :meth:`merged`.
        self.code = code
        self.entries: List[SweepEntry] = sorted(entries, key=lambda e: e.key)
        self._by_key = {entry.key: entry for entry in self.entries}
        #: The runner's self-metering (cache hits/misses, wall).  Kept out
        #: of :meth:`merged` — which is byte-compared across cache states —
        #: and surfaced through :meth:`manifest` instead.
        self.meter = meter

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SweepEntry]:
        return iter(self.entries)

    @property
    def executed(self) -> int:
        """How many configs actually ran (cache misses)."""
        return sum(1 for entry in self.entries if not entry.cached)

    @property
    def cached(self) -> int:
        """How many configs were served from the cache."""
        return sum(1 for entry in self.entries if entry.cached)

    def result_for(self, config: Mapping[str, Any]) -> Any:
        """The result of one config (raises ``KeyError`` if absent)."""
        return self._by_key[config_key(config)].result

    def results_for(self, configs: Iterable[Mapping[str, Any]]) -> List[Any]:
        """Results in the order ``configs`` is given — the bridge between
        the key-ordered merge and a benchmark's presentation order."""
        return [self.result_for(config) for config in configs]

    def merged(self) -> Dict[str, Any]:
        """The canonical merged document: every (config, result) pair in
        key order.  Worker count, timing, and cache state are deliberately
        excluded so the document is byte-stable across runs."""
        return {
            "scenario": self.scenario,
            "runs": [
                {"config": entry.config, "result": entry.result}
                for entry in self.entries
            ],
        }

    def merged_json(self) -> str:
        """Canonical JSON of :meth:`merged`, newline-terminated."""
        return canonical_json(self.merged()) + "\n"

    def manifest(self) -> Dict[str, Any]:
        """Execution manifest: per-config cache keys and hit/miss state."""
        meter = self.meter
        return {
            "scenario": self.scenario,
            "code": self.code,
            "total": len(self.entries),
            "executed": self.executed,
            "cached": self.cached,
            "meter": meter.snapshot() if meter is not None else {},
            "timings": meter.timings() if meter is not None else {},
            "entries": [
                {
                    "key": entry.key,
                    "hash": entry.digest,
                    "cached": entry.cached,
                }
                for entry in self.entries
            ],
        }


class SweepRunner:
    """Executes a :class:`SweepSpec` and merges the results.

    Parameters
    ----------
    spec:
        What to run.
    workers:
        Worker processes; ``1`` (the default) runs in-process.  A bare
        callable scenario is only allowed in-process — multi-worker runs
        need an importable ``module:function`` reference.  A scenario
        error in a worker is re-raised here with its type, and a worker
        that dies fails the run with a :class:`WorkerDiedError`.
    cache_dir:
        Directory for the per-config result cache; ``None`` disables
        caching entirely.
    progress:
        Optional callback fired with a :class:`SweepProgress` as each
        config completes (cache hits fire immediately).  Completion
        order is nondeterministic across workers; the callback must not
        raise and must not influence results.
    """

    def __init__(
        self,
        spec: SweepSpec,
        workers: int = 1,
        cache_dir: Optional[str | Path] = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.progress = progress
        #: Runner self-metering: configs, cache hit/miss, sweep wall.
        self.meter = RuntimeMeter()

    def run(self) -> SweepResult:
        """Execute every non-cached config and return the merged result."""
        started = time.perf_counter()
        ref = self.spec.scenario_name
        keyed = [
            (config_key(config), config_hash(ref, config), config)
            for config in self.spec.expand()
        ]
        total = len(keyed)
        config_by_key = {key: config for key, _, config in keyed}
        completed = 0

        def _notify(key: str, result: Any, cached: bool) -> None:
            nonlocal completed
            completed += 1
            if self.progress is not None:
                self.progress(
                    SweepProgress(
                        key=key,
                        config=config_by_key[key],
                        result=result,
                        completed=completed,
                        total=total,
                        cached=cached,
                        wall_s=time.perf_counter() - started,
                    )
                )

        meter = self.meter
        meter.sweep_configs += total
        code = code_digest() if self.cache_dir is not None else None
        results: Dict[str, Any] = {}
        cached_keys: set[str] = set()
        pending: List[Tuple[str, str, Dict[str, Any]]] = []
        for key, digest, config in keyed:
            hit = self._cache_load(digest, ref, key, code)
            if hit is not _MISS:
                results[key] = hit
                cached_keys.add(key)
                meter.sweep_cache_hits += 1
                _notify(key, hit, True)
            else:
                pending.append((key, digest, config))
        meter.sweep_cache_misses += len(pending)

        if pending:
            fresh = self._execute(
                ref,
                [config for _, _, config in pending],
                on_result=lambda key, result: _notify(key, result, False),
            )
            for key, digest, config in pending:
                results[key] = fresh[key]
                self._cache_store(digest, config, fresh[key], code)

        entries = [
            SweepEntry(
                key=key,
                digest=digest,
                config=config,
                result=results[key],
                cached=key in cached_keys,
            )
            for key, digest, config in keyed
        ]
        meter.sweep_wall_s += time.perf_counter() - started
        return SweepResult(ref, entries, meter=meter, code=code)

    # -- execution ---------------------------------------------------------

    def _execute(
        self,
        ref: str,
        configs: List[Dict[str, Any]],
        on_result: Optional[Callable[[str, Any], None]] = None,
    ) -> Dict[str, Any]:
        if self.workers == 1 or len(configs) == 1:
            scenario = resolve_scenario(self.spec.scenario)
            out: Dict[str, Any] = {}
            for config in configs:
                key = config_key(config)
                out[key] = json.loads(canonical_json(scenario(dict(config))))
                if on_result is not None:
                    on_result(key, out[key])
            return out
        # Imported here: it loads ``multiprocessing``, which a serial
        # run, or a process that never sweeps, should not pay for.
        from repro.sweep.fanout import fan_out

        return fan_out(ref, configs, self.workers, on_result)

    # -- cache -------------------------------------------------------------

    def _cache_path(self, digest: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.json"

    def _cache_load(
        self, digest: str, scenario: str, key: str, code: Optional[str]
    ) -> Any:
        """The cached result of one config, or ``_MISS`` unless the entry
        parses and was written by this code for this scenario and config."""
        path = self._cache_path(digest)
        if path is None or not path.exists():
            return _MISS
        try:
            entry = json.loads(path.read_text())
            if (
                entry["code"] != code
                or entry["scenario"] != scenario
                or config_key(entry["config"]) != key
            ):
                return _MISS
            return entry["result"]
        except (OSError, ValueError, KeyError, TypeError):
            return _MISS  # unreadable entries are re-executed, not fatal

    def _cache_store(
        self,
        digest: str,
        config: Mapping[str, Any],
        result: Any,
        code: Optional[str],
    ) -> None:
        path = self._cache_path(digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_json(
            {"scenario": self.spec.scenario_name, "config": dict(config),
             "code": code, "result": result}
        )
        # Atomic: concurrent sweeps never see partials.
        write_atomic(path, payload + "\n")


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[str | Path] = None,
    progress: Optional[Callable[[SweepProgress], None]] = None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        spec, workers=workers, cache_dir=cache_dir, progress=progress
    ).run()


__all__ = [
    "DEFAULT_CACHE_DIR",
    "SweepEntry",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "WorkerDiedError",
    "run_sweep",
]
