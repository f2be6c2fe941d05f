"""Fan sweep configs out to worker processes and collect their results.

Each worker process has its own duplex pipe.  It receives one config at
a time and sends back the result as canonical JSON text; the caller
waits on every pipe at once and hands a worker its next config the
moment that worker's result arrives, so the load balances itself.
Failure is loud and bounded: a scenario error is re-raised in the
caller with its own type, and a worker that dies is EOF on its pipe,
after which every worker is killed and reaped and a
:class:`~repro.sweep.runner.WorkerDiedError` names the config and the
exit code.

Only :class:`~repro.sweep.runner.SweepRunner` with ``workers > 1``
imports this module, so a process that never fans out loads neither it
nor :mod:`multiprocessing`.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import sys
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sweep.runner import WorkerDiedError
from repro.sweep.spec import canonical_json, config_key, resolve_scenario


class _RemoteTraceback(Exception):
    """The worker-side traceback of a scenario error, chained as the
    ``__cause__`` of the error re-raised in the caller."""

    def __str__(self) -> str:
        return "\n" + str(self.args[0])


def _serve(conn: Any, ref: str, parent_path: List[str]) -> None:
    """Worker body: run each config received on ``conn`` until ``None``.

    A result goes back as its canonical JSON text (normalised at the
    source).  A scenario error goes back as an empty message followed by
    the pickled error and its traceback text.
    """
    # Mirror the parent's ``sys.path`` so scenario modules that live
    # outside installed packages (benchmarks, tools) stay importable.
    for entry in reversed(parent_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    scenario = resolve_scenario(ref)
    while True:
        config = conn.recv()
        if config is None:
            return
        try:
            text = canonical_json(scenario(config))
        except Exception as error:  # noqa: BLE001 - re-raised in the caller
            conn.send_bytes(b"")
            trace = "".join(traceback.format_exception(error))
            try:
                conn.send((error, trace))
            except Exception:  # noqa: BLE001 - an error that does not pickle
                conn.send((RuntimeError(f"{type(error).__name__}: {error}"), trace))
            continue
        conn.send_bytes(text.encode())


def _reap(processes: List[Any], kill: bool) -> None:
    """Join every worker, killing each first when ``kill`` is set, so a
    live worker never delays the join of the others."""
    if kill:
        for process in processes:
            process.kill()
    for process in processes:
        process.join()


def fan_out(
    ref: str,
    configs: List[Dict[str, Any]],
    workers: int,
    on_result: Optional[Callable[[str, Any], None]] = None,
) -> Dict[str, Any]:
    """Run ``configs`` on ``min(workers, len(configs))`` worker processes.

    Returns each decoded result by canonical config key; ``on_result``
    fires once per config, in completion order.  Every worker has been
    reaped when this returns or raises.
    """
    # Fails here, before any fork, for a ref that does not import (a
    # lambda or closure has no ``module:function`` to re-resolve).
    resolve_scenario(ref)
    ctx = multiprocessing.get_context()
    todo = iter(configs)
    processes: List[Any] = []
    pipes: List[Any] = []
    #: Each busy worker's pipe -> (worker, the config it is running).
    running: Dict[Any, Tuple[Any, Dict[str, Any]]] = {}
    out: Dict[str, Any] = {}
    finished = False
    try:
        for config in itertools.islice(todo, workers):
            conn, child = ctx.Pipe()
            process = ctx.Process(
                target=_serve, args=(child, ref, list(sys.path)), daemon=True
            )
            process.start()
            # The worker holds the only other end, so its death is EOF
            # here.
            child.close()
            processes.append(process)
            pipes.append(conn)
            running[conn] = (process, config)
            conn.send(config)
        while running:
            for conn in wait(list(running)):
                process, config = running.pop(conn)
                try:
                    data = conn.recv_bytes()
                except EOFError:
                    _reap(processes, kill=True)
                    raise WorkerDiedError(config, process.exitcode) from None
                if not data:
                    error, trace = conn.recv()
                    raise error from _RemoteTraceback(trace)
                # The worker gets its next config (or ``None``, to exit)
                # before this result is decoded.
                following = next(todo, None)
                conn.send(following)
                if following is not None:
                    running[conn] = (process, following)
                key = config_key(config)
                out[key] = json.loads(data)
                if on_result is not None:
                    on_result(key, out[key])
        finished = True
    finally:
        _reap(processes, kill=not finished)
        for conn in pipes:
            conn.close()
    return out


__all__ = ["fan_out"]
