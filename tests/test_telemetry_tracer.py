"""Tests for the span tracer and its disabled fast path."""

import pytest

from repro.sim import Simulator
from repro.telemetry import NULL_TRACER, NullTracer, Tracer, attach_tracer
from repro.telemetry.tracer import (
    PHASE_COLD_START,
    PHASE_EXECUTE,
    PHASE_JOB,
    PHASE_UPLOAD,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class TestSpanRecording:
    def test_span_ids_are_sequential_from_one(self):
        tracer = Tracer(FakeClock())
        spans = [tracer.start_span(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_parenting_links_span_ids(self):
        tracer = Tracer(FakeClock())
        root = tracer.start_span("job", category=PHASE_JOB)
        child = tracer.start_span("upload", category=PHASE_UPLOAD, parent=root)
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_times_come_from_the_clock(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock)
        span = tracer.start_span("s")
        clock.now = 8.5
        tracer.end_span(span)
        assert span.start == 5.0
        assert span.end == 8.5
        assert span.duration == 3.5

    def test_end_span_is_idempotent(self):
        clock = FakeClock(1.0)
        tracer = Tracer(clock)
        span = tracer.start_span("s", category=PHASE_EXECUTE)
        clock.now = 2.0
        tracer.end_span(span)
        clock.now = 9.0
        tracer.end_span(span, late="attr")  # no-op on a closed span
        assert span.end == 2.0
        assert "late" not in span.attributes

    def test_attributes_from_start_end_and_annotate(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("s", a=1)
        span.annotate(b=2)
        tracer.end_span(span, c=3)
        assert span.attributes == {"a": 1, "b": 2, "c": 3}

    def test_ended_span_feeds_labeled_summary(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("cs", category=PHASE_COLD_START)
        clock.now = 2.0
        tracer.end_span(span)
        snap = tracer.metrics.snapshot()
        assert snap['span_seconds_count{category="cold_start"}'] == 1
        assert snap['span_seconds_sum{category="cold_start"}'] == 2.0

    def test_record_span_with_explicit_times(self):
        tracer = Tracer(FakeClock(100.0))
        span = tracer.record_span("outage", "fault", 5.0, 25.0, target="uplink")
        assert (span.start, span.end) == (5.0, 25.0)
        assert span.closed
        assert span.attributes == {"target": "uplink"}

    def test_record_span_rejects_backwards_interval(self):
        with pytest.raises(ValueError, match="precedes"):
            Tracer(FakeClock()).record_span("bad", "fault", 10.0, 5.0)

    def test_instant_attaches_to_parent(self):
        clock = FakeClock(3.0)
        tracer = Tracer(clock)
        parent = tracer.start_span("job")
        tracer.instant("attempt_failed", parent=parent, cause="Boom")
        assert parent.events == [(3.0, "attempt_failed", {"cause": "Boom"})]

    def test_parentless_instant_gets_synthetic_span(self):
        tracer = Tracer(FakeClock(4.0))
        tracer.instant("orphan", note="x")
        (span,) = tracer.spans
        assert span.start == span.end == 4.0
        assert span.events == [(4.0, "orphan", {"note": "x"})]

    def test_listener_hears_only_instants_after_it_subscribes(self):
        tracer = Tracer(FakeClock(0.0))
        tracer.instant("before")
        seen = []

        class Listener:
            def on_span_end(self, span):
                seen.append(("end", span.name))

            def on_instant(self, at, name, attributes, parent):
                seen.append(("instant", name))

        tracer.subscribe(Listener())
        tracer.instant("after")
        # The pre-subscribe instant is recorded but not replayed to the
        # listener; the post-subscribe one reaches it.
        assert seen == [("instant", "after")]
        assert [s.name for s in tracer.spans] == ["before", "after"]

    def test_end_subtree_closes_open_descendants_only(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        job = tracer.start_span("job", category=PHASE_JOB)
        comp = tracer.start_span("comp", parent=job)
        transfer = tracer.start_span("xfer", parent=comp)
        other = tracer.start_span("other_job", category=PHASE_JOB)
        clock.now = 5.0
        tracer.end_subtree(job, error="Boom")
        for span in (job, comp, transfer):
            assert span.end == 5.0
            assert span.attributes["error"] == "Boom"
        assert not other.closed  # unrelated tree untouched
        tracer.end_subtree(NULL_TRACER.start_span("null"))  # no-op

    @pytest.mark.parametrize("record", [True, False])
    def test_end_subtree_reaches_through_a_closed_parent(self, record):
        """An abandoned lane's span outlives the component that opened
        it; the job's death still closes it, on either kind of tracer."""
        clock = FakeClock()
        tracer = Tracer(clock, record=record)
        job = tracer.start_span("job", category=PHASE_JOB)
        comp = tracer.start_span("comp", parent=job)
        lane = tracer.start_span("lane", category=PHASE_EXECUTE, parent=comp)
        other = tracer.start_span("other", parent=comp)
        clock.now = 1.0
        tracer.end_span(other)
        tracer.end_span(comp)
        clock.now = 3.0
        tracer.end_subtree(job, error="Boom")
        assert (lane.end, job.end) == (3.0, 3.0)
        assert lane.attributes == {"error": "Boom"}
        assert (comp.end, other.end) == (1.0, 1.0)
        assert tracer.open_spans() == []

    def test_open_spans_and_category_queries(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        a = tracer.start_span("a", category=PHASE_UPLOAD)
        tracer.start_span("b", category=PHASE_EXECUTE)
        tracer.end_span(a)
        assert [s.name for s in tracer.open_spans()] == ["b"]
        assert [s.name for s in tracer.spans_by_category(PHASE_UPLOAD)] == ["a"]
        assert len(tracer) == 2


class TestNullTracer:
    def test_disabled_flag_is_class_attribute(self):
        assert NullTracer.enabled is False
        assert Tracer.enabled is True

    def test_all_operations_are_no_ops(self):
        null = NullTracer()
        span = null.start_span("s", category="x", parent=None, attr=1)
        assert span.span_id == 0
        assert span.annotate(more=2) is span
        null.end_span(span, attr=3)
        assert null.record_span("r", "c", 0.0, 1.0).span_id == 0
        assert null.instant("i", cause="x") is None
        assert null.spans == []
        assert null.metrics.snapshot() == {}

    def test_simulator_carries_null_tracer_by_default(self):
        assert Simulator().tracer is NULL_TRACER

    def test_real_tracer_ignores_null_span_end(self):
        tracer = Tracer(FakeClock())
        null_span = NULL_TRACER.start_span("x")
        tracer.end_span(null_span)  # must not raise or record
        assert len(tracer) == 0


class TestNonRecordingTracer:
    """``Tracer(clock, record=False)``: listeners only, no record."""

    def test_keeps_no_span_and_no_labeled_metric(self):
        clock = FakeClock()
        tracer = Tracer(clock, record=False)
        heard = []

        class Listener:
            def on_span_end(self, span):
                heard.append((span.span_id, span.name, span.end))

            def on_instant(self, at, name, attributes, parent):
                heard.append((at, name, parent))

        tracer.subscribe(Listener())
        job = tracer.start_span("job", category=PHASE_JOB)
        assert tracer.open_spans() == [job]
        tracer.instant("orphan")
        tracer.instant("inside", parent=job)
        clock.now = 2.0
        tracer.record_span("window", PHASE_UPLOAD, 0.5, 1.5)
        tracer.end_span(job)
        tracer.metrics.counter("jobs_total", app="a").increment()
        tracer.metrics.summary("job_response_s", app="a").observe(1.0)
        # Span ids advance exactly as on a recording tracer.
        assert heard == [
            (0.0, "orphan", None),
            (0.0, "inside", job),
            (3, "window", 1.5),
            (1, "job", 2.0),
        ]
        assert job.events == [(0.0, "inside", {})]
        assert tracer.spans == [] and len(tracer) == 0
        assert tracer.open_spans() == []
        assert tracer.spans_by_category(PHASE_JOB) == []
        assert tracer.metrics.snapshot() == {}

    @pytest.mark.parametrize("degraded", [False, True])
    def test_monitor_reads_the_same_with_dying_jobs(self, degraded):
        """Jobs die mid-flight (every attempt of a component fails), so
        ``end_subtree`` closes their open descendants: a monitor behind
        either kind of tracer folds byte-identical state."""
        import json

        from repro.apps import Job, photo_backup_app
        from repro.core.controller import Environment, OffloadController
        from repro.faults import DegradationPolicy
        from repro.monitor.monitor import attach_monitor
        from repro.serverless.platform import PlatformConfig
        from repro.serverless.retry import RetryPolicy

        def monitored(record):
            env = Environment.build(
                seed=3,
                connectivity="4g",
                platform_config=PlatformConfig(failure_probability=0.5),
            )
            attach_tracer(env, Tracer(env.sim, record=record))
            monitor = attach_monitor(env)
            controller = OffloadController(
                env,
                photo_backup_app(),
                retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
                degradation=(
                    DegradationPolicy(fallback_local=False)
                    if degraded else None
                ),
            )
            controller.profile_offline()
            controller.plan(input_mb=2.0)
            report = controller.run_workload([
                Job(
                    controller.app,
                    input_mb=2.0,
                    released_at=20.0 * i,
                    deadline=20.0 * i + 3600.0,
                )
                for i in range(30)
            ])
            document = json.dumps(
                monitor.to_dict(end_s=env.sim.now), sort_keys=True
            )
            return document, report

        recorded, report = monitored(True)
        bare, _ = monitored(False)
        assert report.failures and report.results
        assert bare == recorded


class TestAttachTracer:
    def test_attach_installs_on_simulator(self):
        class Env:
            pass

        env = Env()
        env.sim = Simulator()
        tracer = attach_tracer(env)
        assert env.sim.tracer is tracer
        assert tracer.enabled

    def test_attach_accepts_prebuilt_tracer(self):
        class Env:
            pass

        env = Env()
        env.sim = Simulator()
        mine = Tracer(env.sim)
        assert attach_tracer(env, mine) is mine
        assert env.sim.tracer is mine
