"""Declarative sweep specifications.

A sweep names a *scenario* — an importable function that takes one JSON
config dict and returns a JSON-serialisable result — plus the configs to
feed it: a shared ``base`` dict, a ``grid`` of parameter axes expanded as
a cartesian product, optional explicit ``points``, and a ``seeds``
replication count.  Everything is canonicalised:

* :func:`config_key` — the canonical JSON of a config, the sweep's sort
  and merge key (completion order never leaks into output);
* :func:`config_hash` — SHA-256 over scenario name + config key, the
  on-disk cache key, so re-running a grown grid only executes the delta;
* :func:`code_digest` — SHA-256 over the ``repro`` package's sources,
  stored in every cache entry so results of other code never hit.

Scenario functions referenced as ``"package.module:function"`` strings
stay importable from worker processes; bare callables are accepted for
in-process (single-worker) runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

ScenarioRef = Union[str, Callable[[Dict[str, Any]], Any]]


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to canonical JSON: sorted keys, compact
    separators, non-finite floats rejected.  Byte-identical for equal
    values regardless of dict insertion order."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and ``os.replace``.

    Readers see the previous file or the new one, never a partial
    write: on any failure the temp file is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def config_key(config: Mapping[str, Any]) -> str:
    """The canonical merge/sort key of one scenario config."""
    return canonical_json(dict(config))


def config_hash(scenario: str, config: Mapping[str, Any]) -> str:
    """SHA-256 cache key of (scenario name, canonical config)."""
    digest = hashlib.sha256()
    digest.update(scenario.encode("utf-8"))
    digest.update(b"\n")
    digest.update(config_key(config).encode("utf-8"))
    return digest.hexdigest()


_CODE_DIGEST: Optional[str] = None


def code_digest() -> str:
    """SHA-256 over the ``repro`` package's sources, once per process.

    Covers every ``.py`` file's relative path and bytes, in sorted path
    order.  A cached result is only as good as the code that produced
    it: the sweep cache stores this digest with each entry and treats an
    entry written by other code as a miss.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_DIGEST = digest.hexdigest()
    return _CODE_DIGEST


def scenario_ref(scenario: ScenarioRef) -> str:
    """The ``module:qualname`` name of a scenario (cache-key identity)."""
    if isinstance(scenario, str):
        if ":" not in scenario:
            raise ValueError(
                f"scenario reference {scenario!r} must look like "
                "'package.module:function'"
            )
        return scenario
    return f"{scenario.__module__}:{scenario.__qualname__}"


def resolve_scenario(scenario: ScenarioRef) -> Callable[[Dict[str, Any]], Any]:
    """Import a ``module:qualname`` reference (callables pass through)."""
    if callable(scenario):
        return scenario
    module_name, _, qualname = scenario_ref(scenario).partition(":")
    module = importlib.import_module(module_name)
    try:
        target = functools.reduce(getattr, qualname.split("."), module)
    except AttributeError as error:
        raise ValueError(
            f"module {module_name!r} has no attribute {qualname!r}"
        ) from error
    if not callable(target):
        raise TypeError(f"scenario {scenario!r} resolved to non-callable {target!r}")
    return target


@dataclass(frozen=True)
class SweepSpec:
    """What to run: one scenario over a deterministic set of configs.

    Parameters
    ----------
    scenario:
        ``"module:function"`` reference (required for multi-worker runs)
        or a callable.
    base:
        Key/values merged into every config.
    grid:
        Parameter axes; the cartesian product is taken over the axes in
        sorted-name order, values in the given order.
    points:
        Explicit config dicts, each merged over ``base`` (listed before
        the grid's product).
    seeds:
        Replication count; when > 1 every config is repeated with
        ``seed_key`` set to ``0 .. seeds-1``.
    """

    scenario: ScenarioRef
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    points: Sequence[Mapping[str, Any]] = ()
    seeds: int = 1
    seed_key: str = "seed"

    def __post_init__(self) -> None:
        scenario_ref(self.scenario)  # validate the reference shape early
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        for name, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise TypeError(
                    f"grid axis {name!r} must be a sequence of values, "
                    f"got {values!r}"
                )

    @property
    def scenario_name(self) -> str:
        """The scenario's ``module:qualname`` reference."""
        return scenario_ref(self.scenario)

    def expand(self) -> List[Dict[str, Any]]:
        """Every config of the sweep, duplicates removed, in declaration
        order (points first, then the grid product, seeds innermost)."""
        bases: List[Dict[str, Any]] = [
            {**self.base, **point} for point in self.points
        ]
        if self.grid:
            names = sorted(self.grid)
            for combo in itertools.product(*(self.grid[n] for n in names)):
                bases.append({**self.base, **dict(zip(names, combo))})
        if not self.points and not self.grid:
            bases.append(dict(self.base))
        configs: List[Dict[str, Any]] = []
        for base in bases:
            if self.seeds > 1:
                configs.extend(
                    {**base, self.seed_key: seed} for seed in range(self.seeds)
                )
            else:
                configs.append(base)
        seen: set[str] = set()
        unique: List[Dict[str, Any]] = []
        for config in configs:
            key = config_key(config)
            if key not in seen:
                seen.add(key)
                unique.append(config)
        return unique

    def to_dict(self) -> Dict[str, Any]:
        """JSON form of the spec (scenario stored by reference)."""
        return {
            "scenario": self.scenario_name,
            "base": dict(self.base),
            "grid": {name: list(values) for name, values in self.grid.items()},
            "points": [dict(point) for point in self.points],
            "seeds": self.seeds,
            "seed_key": self.seed_key,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`."""
        return SweepSpec(
            scenario=data["scenario"],
            base=data.get("base", {}),
            grid=data.get("grid", {}),
            points=tuple(data.get("points", ())),
            seeds=int(data.get("seeds", 1)),
            seed_key=data.get("seed_key", "seed"),
        )

    @staticmethod
    def from_file(path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a JSON file."""
        return SweepSpec.from_dict(json.loads(Path(path).read_text()))


__all__ = [
    "SweepSpec",
    "canonical_json",
    "code_digest",
    "config_hash",
    "config_key",
    "resolve_scenario",
    "scenario_ref",
    "write_atomic",
]
