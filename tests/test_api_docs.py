"""Tests for the API reference generator (``tools/gen_api_docs.py``)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_api_docs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _helper():
    pass


def _wrapped():
    """A summary sentence that is long enough to wrap onto a second
    physical line before it ends.

    A body paragraph that the reference leaves out.
    """


class TestRenderConstant:
    def test_functions_render_by_name_inside_containers(self, tool):
        name = f"<function {__name__}._helper>"
        assert tool.render_constant(_helper) == name
        assert tool.render_constant({"a": None, "b": _helper}) == (
            f"{{'a': None, 'b': {name}}}"
        )
        assert tool.render_constant([(_helper,)]) == f"[({name},)]"
        assert tool.render_constant(len) == "<function builtins.len>"

    @pytest.mark.parametrize(
        "value",
        [
            {"x": (1, 2.5), "y": [None, "s"]},
            (1,),
            (),
            frozenset({3}),
            {4},
            set(),
            frozenset(),
            ["a", {"b": 1}],
            Path("p"),
        ],
    )
    def test_constants_without_functions_render_as_repr(self, tool, value):
        assert tool.render_constant(value) == repr(value)

    def test_render_is_stable_across_calls(self, tool):
        assert tool.render() == tool.render()


class TestSummary:
    def test_a_wrapped_summary_is_joined_onto_one_line(self, tool):
        assert tool.summary(_wrapped) == (
            "A summary sentence that is long enough to wrap onto a second "
            "physical line before it ends."
        )

    def test_a_missing_docstring_reads_undocumented(self, tool):
        assert tool.summary(_helper) == "(undocumented)"


class TestCheckMode:
    def test_check_passes_on_a_current_file_and_fails_on_drift(
        self, tool, tmp_path, capsys
    ):
        target = tmp_path / "api.md"
        assert tool.main([str(target)]) == 0
        assert tool.main(["--check", str(target)]) == 0
        text = target.read_text()
        target.write_text(text.replace("# API reference", "# API", 1))
        assert tool.main(["--check", str(target)]) == 1
        assert "STALE" in capsys.readouterr().err
        assert tool.main(["--check", str(tmp_path / "missing.md")]) == 1


class TestDescribeClass:
    def test_methods_inherited_from_the_package_are_listed(self, tool):
        """An executor's section lists the entry points it inherits from
        ``JobRunner``, as it lists inherited properties."""
        from repro.baselines import EdgeJobRunner

        lines = tool.describe_class(EdgeJobRunner)
        listed = {line.split("`")[1].split("(")[0] for line in lines
                  if line.startswith("- ")}
        assert {"run_workload", "start", "submit"} <= listed
