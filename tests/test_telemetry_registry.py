"""Tests for the labeled metrics registry and its exporters."""

import json
import math

import pytest

from repro.telemetry import LabeledMetricsRegistry


class TestSeriesIdentity:
    def test_label_order_does_not_matter(self):
        reg = LabeledMetricsRegistry()
        a = reg.counter("jobs", app="photo", tier="cloud")
        b = reg.counter("jobs", tier="cloud", app="photo")
        assert a is b

    def test_different_labels_are_different_series(self):
        reg = LabeledMetricsRegistry()
        reg.counter("jobs", app="photo").increment()
        reg.counter("jobs", app="ocr").increment(2)
        snap = reg.snapshot()
        assert snap['jobs{app="photo"}'] == 1.0
        assert snap['jobs{app="ocr"}'] == 2.0

    def test_label_values_are_stringified(self):
        reg = LabeledMetricsRegistry()
        reg.gauge("depth", queue=3).set(7.0)
        assert reg.snapshot() == {'depth{queue="3"}': 7.0}

    def test_unlabeled_series_render_bare(self):
        reg = LabeledMetricsRegistry()
        reg.counter("events").increment()
        assert reg.series_names() == ["events"]

    @pytest.mark.parametrize("bad", ["", "na me", 'x"y', "a{b"])
    def test_invalid_metric_names_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid metric name"):
            LabeledMetricsRegistry().counter(bad)

    def test_invalid_label_names_rejected(self):
        with pytest.raises(ValueError, match="invalid label name"):
            LabeledMetricsRegistry().counter("ok", **{"b ad": 1})


class TestSeriesKeyMemo:
    """Memoised series keys name exactly the series fresh keys would."""

    def test_keyword_order_does_not_change_the_series(self):
        reg = LabeledMetricsRegistry()
        for _ in range(3):  # later calls are memo hits
            reg.summary("lat", tier="cloud", app="photo").observe(1.0)
            reg.summary("lat", app="photo", tier="cloud").observe(2.0)
        assert reg.series_names() == ['lat{app="photo",tier="cloud"}']
        assert reg.snapshot()['lat_count{app="photo",tier="cloud"}'] == 6

    def test_swapped_values_under_swapped_names_stay_distinct(self):
        reg = LabeledMetricsRegistry()
        first = reg.counter("pair", a=1, b=2)
        second = reg.counter("pair", b=1, a=2)
        assert first is not second
        assert reg.series_names() == ['pair{a="1",b="2"}', 'pair{a="2",b="1"}']

    def test_int_and_string_values_name_one_series(self):
        reg = LabeledMetricsRegistry()
        first = reg.counter("hits", shard=1)
        assert reg.counter("hits", shard="1") is first
        assert reg.counter("hits", shard=1) is first
        first.increment()
        assert reg.snapshot() == {'hits{shard="1"}': 1.0}

    def test_true_and_one_are_distinct_series(self):
        reg = LabeledMetricsRegistry()
        reg.counter("flag", on=1).increment()
        reg.counter("flag", on=True).increment()
        assert reg.series_names() == ['flag{on="1"}', 'flag{on="True"}']

    @pytest.mark.parametrize("kind", ["counter", "gauge", "summary"])
    def test_invalid_names_raise_on_every_call(self, kind):
        reg = LabeledMetricsRegistry()
        get = getattr(reg, kind)
        for _ in range(3):
            with pytest.raises(ValueError, match="invalid metric name"):
                get("bad name", tier="cloud")
            with pytest.raises(ValueError, match="invalid label name"):
                get("ok", **{"bad label": 1})
        assert reg.series_names() == []


class TestSnapshot:
    def test_summary_expands_to_count_sum_quantiles(self):
        reg = LabeledMetricsRegistry()
        reg.summary("lat", tier="cloud").observe_many([1.0, 3.0])
        snap = reg.snapshot()
        assert snap['lat_count{tier="cloud"}'] == 2
        assert snap['lat_sum{tier="cloud"}'] == 4.0
        assert snap['lat{tier="cloud",quantile="0.5"}'] == 2.0
        assert snap['lat{tier="cloud",quantile="0.99"}'] == pytest.approx(2.98)

    def test_snapshot_keys_are_sorted(self):
        reg = LabeledMetricsRegistry()
        reg.counter("z").increment()
        reg.counter("a").increment()
        assert list(reg.snapshot()) == sorted(reg.snapshot())

    def test_to_json_is_stable_and_parseable(self):
        reg = LabeledMetricsRegistry()
        reg.counter("jobs", app="photo").increment()
        reg.gauge("battery").set(0.5)
        text = reg.to_json()
        assert text == reg.to_json()  # byte-stable
        assert json.loads(text) == reg.snapshot()
        assert "\n" not in text  # compact by default


class TestPrometheus:
    def test_counters_get_total_suffix(self):
        reg = LabeledMetricsRegistry()
        reg.counter("jobs", app="photo").increment(3)
        assert 'jobs_total{app="photo"} 3.0' in reg.to_prometheus()

    def test_existing_total_suffix_not_doubled(self):
        reg = LabeledMetricsRegistry()
        reg.counter("jobs_total").increment()
        out = reg.to_prometheus()
        assert "jobs_total 1.0" in out
        assert "jobs_total_total" not in out

    def test_families_sorted_with_trailing_newline(self):
        reg = LabeledMetricsRegistry()
        reg.gauge("z").set(1.0)
        reg.counter("a").increment()
        out = reg.to_prometheus()
        assert out.endswith("\n")
        samples = [
            line for line in out.strip().split("\n")
            if not line.startswith("#")
        ]
        assert samples == ["a_total 1.0", "z 1.0"]

    def test_help_and_type_precede_each_family(self):
        reg = LabeledMetricsRegistry()
        reg.counter("jobs", app="photo").increment()
        reg.gauge("battery").set(0.5)
        reg.summary("lat").observe(1.0)
        lines = reg.to_prometheus().strip().split("\n")
        for name, kind in [
            ("battery", "gauge"), ("jobs_total", "counter"),
            ("lat", "summary"),
        ]:
            type_line = f"# TYPE {name} {kind}"
            assert type_line in lines
            help_index = lines.index(f"# HELP {name} Simulated metric {name}.")
            assert lines[help_index + 1] == type_line
            assert not lines[help_index + 2].startswith("#")

    def test_summary_family_groups_quantiles_count_sum(self):
        reg = LabeledMetricsRegistry()
        reg.summary("lat", tier="cloud").observe_many([1.0, 3.0])
        out = reg.to_prometheus()
        type_lines = [l for l in out.split("\n") if l.startswith("# TYPE")]
        assert type_lines == ["# TYPE lat summary"]
        assert 'lat_count{tier="cloud"} 2' in out
        assert 'lat_sum{tier="cloud"} 4.0' in out
        assert 'lat{quantile="0.5",tier="cloud"}' not in out  # labels first
        assert 'lat{tier="cloud",quantile="0.5"} 2.0' in out

    def test_hostile_label_values_are_escaped(self):
        reg = LabeledMetricsRegistry()
        reg.counter(
            "jobs", app='evil"name', path="C:\\tmp", note="line1\nline2"
        ).increment()
        out = reg.to_prometheus()
        assert out.count("\n") == len(out.strip().split("\n"))  # no stray \n
        assert 'app="evil\\"name"' in out
        assert 'path="C:\\\\tmp"' in out
        assert 'note="line1\\nline2"' in out
        # The sample line stays a single parseable line.
        sample = [
            line for line in out.strip().split("\n")
            if not line.startswith("#")
        ]
        assert len(sample) == 1 and sample[0].endswith(" 1.0")

    def test_empty_registry_renders_empty(self):
        assert LabeledMetricsRegistry().to_prometheus() == ""


class TestValidationPropagates:
    def test_non_finite_rejected_through_labels(self):
        reg = LabeledMetricsRegistry()
        with pytest.raises(ValueError, match="finite"):
            reg.counter("c", app="x").increment(math.inf)
        with pytest.raises(ValueError, match="finite"):
            reg.gauge("g").set(math.nan)
        with pytest.raises(ValueError, match="finite"):
            reg.summary("s").observe(-math.inf)
