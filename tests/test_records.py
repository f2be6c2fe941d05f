"""Contract of the per-operation records.

A value built once per simulated operation (an invocation, a transfer,
a local execution, a demand observation, a schedule decision, a job
result ...) is a :class:`typing.NamedTuple`; values built once per run
or per plan stay frozen dataclasses.  These tests pin what callers rely
on, whatever the representation: the field list and its defaults, read-
only fields, the validation errors, equality, fresh dict defaults, cost
arithmetic, and pickle/deepcopy round trips.
"""

import copy
import math
import pickle

import pytest

from repro.apps.catalog import photo_backup_app
from repro.apps.jobs import Job, JobResult
from repro.core.allocation import AllocationCurvePoint
from repro.core.scheduler import ScheduleDecision
from repro.device.ue import LocalExecution
from repro.monitor.monitor import ObservedExecution
from repro.network.link import TransferResult
from repro.profiling.profiler import DemandObservation
from repro.serverless.billing import CostBreakdown
from repro.serverless.function import Invocation, InvocationRequest
from repro.serverless.retry import HedgedInvocation, RetriedInvocation

JOB = Job(photo_backup_app(), input_mb=2.0, released_at=1.0, deadline=90.0)
REQUEST = InvocationRequest("photo_backup.transcode", 1.5, 10.0, "job1")
INVOCATION = Invocation(REQUEST, 0.0, 0.25, 1.5, True, 1024.0, 1.25, 2.1e-5)

#: ``(record, module, fields, required arguments, defaults)``: the field
#: list and defaults each record had as a frozen dataclass.  JobResult's
#: two dicts defaulted through ``default_factory=dict``.
RECORDS = [
    (
        InvocationRequest, "repro.serverless.function",
        ("function", "work_gcycles", "payload_bytes", "tag", "trace_parent"),
        ("photo_backup.transcode", 1.5),
        {"payload_bytes": 0.0, "tag": None, "trace_parent": None},
    ),
    (
        Invocation, "repro.serverless.function",
        ("request", "submitted_at", "started_at", "finished_at",
         "cold_start", "memory_mb", "billed_duration_s", "cost"),
        (REQUEST, 0.0, 0.25, 1.5, True, 1024.0, 1.25, 2.1e-5),
        {},
    ),
    (
        CostBreakdown, "repro.serverless.billing",
        ("request_cost", "compute_cost"),
        (2e-7, 1.5e-5),
        {},
    ),
    (
        RetriedInvocation, "repro.serverless.retry",
        ("invocation", "attempts", "wasted_usd", "backoff_s"),
        (INVOCATION, 2, 1e-5, 0.5),
        {},
    ),
    (
        HedgedInvocation, "repro.serverless.retry",
        ("invocation", "attempts", "wasted_usd", "backoff_s", "hedged"),
        (INVOCATION, 1, 0.0, 0.0, True),
        {},
    ),
    (
        TransferResult, "repro.network.link",
        ("bytes", "started_at", "finished_at", "active_seconds",
         "radio_seconds"),
        (4096.0, 1.0, 1.5),
        {"active_seconds": 0.0, "radio_seconds": 0.0},
    ),
    (
        LocalExecution, "repro.device.ue",
        ("work_gcycles", "started_at", "finished_at", "energy_j"),
        (0.2, 3.0, 3.5, 0.4),
        {},
    ),
    (
        DemandObservation, "repro.profiling.profiler",
        ("component", "input_mb", "measured_gcycles", "at_time"),
        ("transcode", 2.0, 1.1),
        {"at_time": 0.0},
    ),
    (
        ScheduleDecision, "repro.core.scheduler",
        ("job_id", "dispatch_at"),
        (7, 12.5),
        {},
    ),
    (
        JobResult, "repro.apps.jobs",
        ("job", "started_at", "finished_at", "ue_energy_j", "cloud_cost_usd",
         "component_finish_times", "energy_breakdown"),
        (JOB, 1.0, 30.0, 2.5, 3e-5),
        {"component_finish_times": {}, "energy_breakdown": {}},
    ),
    (
        ObservedExecution, "repro.monitor.monitor",
        ("function", "at", "duration_s", "memory_mb", "cold"),
        ("photo_backup.transcode", 4.0, 0.8, 1024.0, False),
        {},
    ),
    (
        AllocationCurvePoint, "repro.core.allocation",
        ("memory_mb", "duration_s", "cost_usd"),
        (1024.0, 0.8, 1.3e-5),
        {},
    ),
]

IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record,module,names,required,defaults", RECORDS, ids=IDS)
def test_fields_and_defaults_are_unchanged(
    record, module, names, required, defaults
):
    assert record._fields == names
    assert record.__module__ == module
    assert record.__doc__
    value = record(*required)
    assert isinstance(value, tuple)
    assert tuple(value[: len(required)]) == required
    assert {name: getattr(value, name) for name in defaults} == defaults
    assert len(required) + len(defaults) == len(names)


@pytest.mark.parametrize("record,module,names,required,defaults", RECORDS, ids=IDS)
def test_fields_are_read_only(record, module, names, required, defaults):
    value = record(*required)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict to grow


@pytest.mark.parametrize("record,module,names,required,defaults", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(
    record, module, names, required, defaults
):
    value = record(*required)
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(restored) is record
        if record is JobResult:
            # A copied Job holds a copied AppGraph, which compares by
            # identity; the rest of the result must match exactly.
            assert restored.job.job_id == value.job.job_id
            assert restored[1:] == value[1:]
        else:
            assert restored == value


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: InvocationRequest("f", -1.0), "work must be >= 0"),
        (
            lambda: InvocationRequest("f", 1.0, payload_bytes=-1.0),
            "payload must be >= 0",
        ),
        (
            lambda: DemandObservation("c", -1.0, 1.0),
            "input size must be >= 0",
        ),
        (
            lambda: DemandObservation("c", 1.0, -1.0),
            "measured work must be >= 0",
        ),
        (
            lambda: ScheduleDecision(1, math.nan),
            "dispatch time must be a number",
        ),
    ],
    ids=["work", "payload", "input", "measured", "dispatch"],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


class TestInvocationRequestEquality:
    def test_trace_parent_is_ignored(self):
        traced = InvocationRequest("f", 1.0, 2.0, "t", trace_parent=object())
        plain = InvocationRequest("f", 1.0, 2.0, "t")
        assert traced == plain
        assert not traced != plain
        assert hash(traced) == hash(plain)
        assert len({traced, plain}) == 1

    @pytest.mark.parametrize(
        "other",
        [
            InvocationRequest("g", 1.0, 2.0, "t"),
            InvocationRequest("f", 1.5, 2.0, "t"),
            InvocationRequest("f", 1.0, 0.0, "t"),
            InvocationRequest("f", 1.0, 2.0, None),
        ],
    )
    def test_every_other_field_counts(self, other):
        request = InvocationRequest("f", 1.0, 2.0, "t")
        assert request != other
        assert not request == other

    def test_invocations_compare_through_their_requests(self):
        traced = REQUEST._replace(trace_parent=object())
        assert INVOCATION._replace(request=traced) == INVOCATION


def test_job_results_never_share_a_default_dict():
    first = JobResult(JOB, 1.0, 2.0, 0.0, 0.0)
    second = JobResult(JOB, 1.0, 2.0, 0.0, 0.0)
    assert first.component_finish_times is not second.component_finish_times
    assert first.energy_breakdown is not second.energy_breakdown
    assert first.component_finish_times is not first.energy_breakdown
    first.component_finish_times["capture"] = 1.5
    first.energy_breakdown["tx"] = 0.25
    assert second.component_finish_times == {}
    assert second.energy_breakdown == {}
    assert first.breakdown_total() == 0.25


def test_job_result_keeps_given_dicts():
    finish = {"capture": 1.5}
    result = JobResult(JOB, 1.0, 2.0, 0.0, 0.0, component_finish_times=finish)
    assert result.component_finish_times is finish
    assert result.energy_breakdown == {}


class TestCostBreakdownArithmetic:
    def test_add(self):
        total = CostBreakdown(1.0, 2.0) + CostBreakdown(0.5, 0.25)
        assert type(total) is CostBreakdown
        assert total == CostBreakdown(1.5, 2.25)
        assert total.total == 3.75

    def test_sum(self):
        parts = [CostBreakdown(1.0, 2.0), CostBreakdown(3.0, 4.0)]
        assert sum(parts) == CostBreakdown(4.0, 6.0)
        assert sum([CostBreakdown(1.0, 2.0)]) == CostBreakdown(1.0, 2.0)

    def test_zero_is_the_identity(self):
        cost = CostBreakdown(1.0, 2.0)
        assert CostBreakdown.zero() == CostBreakdown(0.0, 0.0)
        assert cost + CostBreakdown.zero() == cost
        assert CostBreakdown.zero().total == 0.0

    @pytest.mark.parametrize("other", [(1.0, 2.0), 0, 1, "x"])
    def test_adds_only_breakdowns(self, other):
        # No tuple concatenation, and no number.
        with pytest.raises(TypeError):
            CostBreakdown(1.0, 2.0) + other

    @pytest.mark.parametrize("other", [1, 2.5, "x"])
    def test_only_a_zero_adds_from_the_left(self, other):
        with pytest.raises(TypeError):
            other + CostBreakdown(1.0, 2.0)
