"""Workload trace import/export (JSON).

Lets experiments replay recorded (or hand-authored) job traces instead
of synthesising arrivals, and persists run reports for offline analysis
— the glue between the simulator and external tooling.

The trace format is deliberately minimal::

    {
      "version": 1,
      "jobs": [
        {"app": "photo_backup", "input_mb": 4.0,
         "released_at": 120.0, "deadline": 3720.0},
        ...
      ]
    }

``deadline`` may be the string ``"inf"`` (or omitted) for best-effort
jobs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.apps.graph import AppGraph
from repro.apps.jobs import Job, JobResult

TRACE_VERSION = 1

AppResolver = Union[Mapping[str, AppGraph], Callable[[str], AppGraph]]


def job_to_record(job: Job) -> dict:
    """One job as a plain JSON-safe dict."""
    return {
        "app": job.app.name,
        "input_mb": job.input_mb,
        "released_at": job.released_at,
        "deadline": "inf" if math.isinf(job.deadline) else job.deadline,
    }


def record_to_job(record: Mapping, resolve: AppResolver) -> Job:
    """Rebuild a job from a trace record.

    ``resolve`` maps app names to graphs: a dict or a callable.
    """
    name = record["app"]
    if callable(resolve):
        app = resolve(name)
    else:
        if name not in resolve:
            raise KeyError(f"trace references unknown app {name!r}")
        app = resolve[name]
    deadline = record.get("deadline", "inf")
    if deadline == "inf" or deadline is None:
        deadline = math.inf
    return Job(
        app=app,
        input_mb=float(record.get("input_mb", 1.0)),
        released_at=float(record.get("released_at", 0.0)),
        deadline=float(deadline),
    )


def save_workload(path: "str | Path", jobs: Sequence[Job]) -> None:
    """Write a job trace as JSON."""
    payload = {
        "version": TRACE_VERSION,
        "jobs": [job_to_record(job) for job in jobs],
    }
    from repro.sweep.spec import write_atomic

    write_atomic(path, json.dumps(payload, indent=2))


def load_workload(path: "str | Path", resolve: AppResolver) -> List[Job]:
    """Read a job trace, sorted by release time."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version!r} (expected {TRACE_VERSION})"
        )
    jobs = [record_to_job(record, resolve) for record in payload.get("jobs", [])]
    return sorted(jobs, key=lambda job: job.released_at)


def result_to_record(result: JobResult) -> dict:
    """One job result as a plain JSON-safe dict."""
    return {
        "app": result.job.app.name,
        "input_mb": result.job.input_mb,
        "released_at": result.job.released_at,
        "deadline": (
            "inf" if math.isinf(result.job.deadline) else result.job.deadline
        ),
        "started_at": result.started_at,
        "finished_at": result.finished_at,
        "response_s": result.response_time,
        "ue_energy_j": result.ue_energy_j,
        "cloud_cost_usd": result.cloud_cost_usd,
        "met_deadline": result.met_deadline,
    }


def save_report(path: "str | Path", report) -> None:
    """Persist a :class:`~repro.core.controller.ControllerReport` as JSON.

    Aggregates are included so downstream tooling need not recompute.
    """
    payload = {
        "version": TRACE_VERSION,
        "summary": {
            "jobs_completed": report.jobs_completed,
            "failures": len(report.failures),
            "deadline_miss_rate": report.deadline_miss_rate,
            "mean_response_s": (
                None
                if math.isnan(report.mean_response_s)
                else report.mean_response_s
            ),
            "total_ue_energy_j": report.total_ue_energy_j,
            "total_cloud_cost_usd": report.total_cloud_cost_usd,
        },
        "results": [result_to_record(result) for result in report.results],
        "failures": [
            {
                "app": failure.job.app.name,
                "released_at": failure.job.released_at,
                "failed_at": failure.failed_at,
                "error": f"{type(failure.error).__name__}: {failure.error}",
            }
            for failure in report.failures
        ],
    }
    from repro.sweep.spec import write_atomic

    write_atomic(path, json.dumps(payload, indent=2))


def load_report_summary(path: "str | Path") -> dict:
    """Read back the summary block of a saved report."""
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != TRACE_VERSION:
        raise ValueError("unsupported report version")
    return payload["summary"]


__all__ = [
    "TRACE_VERSION",
    "job_to_record",
    "load_report_summary",
    "load_workload",
    "record_to_job",
    "result_to_record",
    "save_report",
    "save_workload",
]
