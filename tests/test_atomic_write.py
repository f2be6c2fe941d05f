"""Artifacts are written atomically: a failed write keeps the old file.

:func:`repro.sweep.write_atomic` writes through a temp file and
``os.replace``; the CLI artifacts, the Chrome trace export, saved
reports and the sweep cache all go through it.  A text holding a lone
surrogate cannot be encoded, so writing it fails part way through —
after a plain ``Path.write_text`` has already truncated its target.
"""

import pytest

from repro.cli import main
from repro.fleet import ShardedFleetResult
from repro.sweep import write_atomic

#: Fails to encode at its last character.
UNWRITABLE = '{"partial": true, "tail": "\ud800"}\n'


def _listing(directory):
    return sorted(path.name for path in directory.iterdir())


def test_write_replaces_the_artifact(tmp_path):
    target = tmp_path / "artifact.json"
    write_atomic(target, "old\n")
    write_atomic(str(target), "new\n")
    assert target.read_bytes() == b"new\n"
    assert _listing(tmp_path) == ["artifact.json"]


def test_failed_write_keeps_previous_artifact(tmp_path):
    target = tmp_path / "artifact.json"
    write_atomic(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, UNWRITABLE)
    assert target.read_bytes() == b"old\n"
    assert _listing(tmp_path) == ["artifact.json"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_atomic(tmp_path / "artifact.json", UNWRITABLE)
    assert _listing(tmp_path) == []


def test_cli_health_out_failure_keeps_previous_artifact(
    tmp_path, monkeypatch
):
    health = tmp_path / "health.json"
    argv = [
        "fleet", "--zones", "2", "--ues-per-zone", "1", "--window", "600",
        "--slack", "1200", "--workers", "1", "--health-out", str(health),
    ]
    assert main(argv) == 0
    before = health.read_bytes()
    assert before

    monkeypatch.setattr(
        ShardedFleetResult, "health_json", lambda self: UNWRITABLE
    )
    with pytest.raises(UnicodeEncodeError):
        main(argv)
    assert health.read_bytes() == before
    assert _listing(tmp_path) == ["health.json"]
