#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Usage:  python tools/gen_api_docs.py [--check] [output-path]

Walks every public module of :mod:`repro`, collects the items named in
``__all__`` (classes with their public methods, functions, constants)
and writes a compact one-line-per-item reference.  Regenerating after a
change keeps the reference honest without hand-maintenance.

``--check`` writes nothing and exits 1 when the file differs from what
would be generated.  The output is deterministic: a constant that holds
functions renders each as ``<function module.qualname>``, not with its
memory address.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from pathlib import Path

MODULES = [
    "repro",
    "repro.sim",
    "repro.traces",
    "repro.network",
    "repro.serverless",
    "repro.device",
    "repro.edge",
    "repro.apps",
    "repro.apps.lint",
    "repro.profiling",
    "repro.profiling.hotspots",
    "repro.cicd",
    "repro.storage",
    "repro.fleet",
    "repro.fleet.topology",
    "repro.fleet.sharded",
    "repro.baselines",
    "repro.metrics",
    "repro.telemetry",
    "repro.analysis",
    "repro.sweep",
    "repro.sweep.scenarios",
    "repro.monitor",
    "repro.monitor.fleet",
    "repro.remediate",
    "repro.perf",
    "repro.ledger",
    "repro.core",
    "repro.cli",
]


def summary(obj) -> str:
    """The docstring's first paragraph, joined onto one line."""
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.strip().split("\n\n", 1)[0]
    return " ".join(paragraph.split()) or "(undocumented)"


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def render_constant(obj) -> str:
    """``repr(obj)``, with every function named instead of addressed.

    Recurses into plain dicts, lists and tuples, so a constant holding
    no functions renders exactly as its ``repr``.
    """
    if isinstance(
        obj,
        (types.FunctionType, types.BuiltinFunctionType, types.MethodType),
    ):
        return f"<function {obj.__module__}.{obj.__qualname__}>"
    kind = type(obj)
    if kind is dict:
        items = (
            f"{render_constant(k)}: {render_constant(v)}"
            for k, v in obj.items()
        )
        return "{" + ", ".join(items) + "}"
    if kind is list:
        return "[" + ", ".join(map(render_constant, obj)) + "]"
    if kind is tuple:
        if len(obj) == 1:
            return f"({render_constant(obj[0])},)"
        return "(" + ", ".join(map(render_constant, obj)) + ")"
    return repr(obj)


def describe_class(cls) -> list[str]:
    lines = [f"### `{cls.__name__}`", "", summary(cls), ""]
    methods = []
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(member) or inspect.ismethod(member):
            if (member.__module__ or "").startswith("repro"):
                methods.append(
                    f"- `{name}{signature_of(member)}` — {summary(member)}"
                )
        elif isinstance(member, property):
            doc = summary(member.fget) if member.fget else "(undocumented)"
            methods.append(f"- `{name}` *(property)* — {doc}")
        elif isinstance(member, functools.cached_property):
            methods.append(f"- `{name}` *(property)* — {summary(member.func)}")
    if methods:
        lines.extend(sorted(methods))
        lines.append("")
    return lines


def describe_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", summary(module), ""]
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for name in sorted(exported):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.extend(describe_class(obj))
        elif inspect.isfunction(obj):
            lines.append(
                f"### `{name}{signature_of(obj)}`\n\n{summary(obj)}\n"
            )
        else:
            lines.append(
                f"### `{name}`\n\nConstant: `{render_constant(obj)}`\n"
            )
    return lines


def render() -> str:
    """The full text of the API reference."""
    parts = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "One line per public item; see the docstrings for details.",
        "",
    ]
    for module_name in MODULES:
        parts.extend(describe_module(module_name))
    return "\n".join(parts) + "\n"


def main(argv: list[str]) -> int:
    check = "--check" in argv
    args = [arg for arg in argv if arg != "--check"]
    output = Path(args[0] if args else "docs/api.md")
    text = render()
    if check:
        current = output.read_text() if output.exists() else ""
        if current == text:
            print(f"ok       {output}", file=sys.stderr)
            return 0
        old, new = current.splitlines(), text.splitlines()
        drift = [
            i + 1
            for i in range(max(len(old), len(new)))
            if old[i:i + 1] != new[i:i + 1]
        ] or [len(new)]
        print(
            f"STALE    {output}: {len(drift)} line(s) differ, first at "
            f"line {drift[0]}; regenerate with python tools/gen_api_docs.py",
            file=sys.stderr,
        )
        return 1
    output.write_text(text)
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
