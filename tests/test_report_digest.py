"""``tools/report_digest.py``'s comparison of two kept runs, and the exit
code of ``--against``: 0 only when every report is byte-identical."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
spec = importlib.util.spec_from_file_location("report_digest", TOOL)
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)

REPORT = {"seed": 0, "observed": ["X"], "tv_distance": 0.0, "instructions": 6}


def kept_runs(where: Path, tv_distance: float = 0.0) -> Path:
    """Two kept runs, as ``--keep`` writes them: a report with its dumped
    state, whose stdout's ``tv_distance`` is given, then a usage error."""
    where.mkdir(parents=True, exist_ok=True)
    report = {
        "argv": ["defer-check", "--fig1", "--json"],
        "exit": 0,
        "stdout": json.dumps(REPORT | {"tv_distance": tv_distance}, indent=2) + "\n",
        "stderr": "",
        "dump_state": json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}).encode(),
        "records": None,
    }
    usage = {"argv": ["nope"], "exit": 2, "stdout": "", "stderr": "error: nope\n", "dump_state": None, "records": None}
    report_digest.keep("period-exact", report, where, 0)
    report_digest.keep("usage", usage, where, 1)
    return where


def test_equal_runs_are_byte_identical(tmp_path):
    lines, identical = report_digest.compare(kept_runs(tmp_path / "old"), kept_runs(tmp_path / "new"))
    assert identical
    assert lines == ["defer-check: 1 of 1 reports byte-identical", "usage [nope]: 1 of 1 reports byte-identical"]


def test_one_moved_stdout_key_is_named(tmp_path):
    lines, identical = report_digest.compare(kept_runs(tmp_path / "old"), kept_runs(tmp_path / "new", 2.5e-16))
    assert not identical
    assert lines == [
        "defer-check: stdout.tv_distance moved in 1 of 1 reports; largest move 2.5e-16",
        "defer-check: 0 of 1 reports byte-identical",
        "usage [nope]: 1 of 1 reports byte-identical",
    ]


def test_against_exits_1_when_a_report_moved(tmp_path, monkeypatch, capsys):
    # each side's interpreter is stood in for by writing its kept runs:
    # the tree at ``moved`` reports a distance the other does not
    def keep_side(argv, check):
        src, where = Path(argv[argv.index("--src") + 1]), Path(argv[argv.index("--keep") + 1])
        kept_runs(where, 2.5e-16 if src.name == "moved" else 0.0)

    monkeypatch.setattr(report_digest.subprocess, "run", keep_side)
    assert report_digest.main(["--src", str(tmp_path / "same"), "--against", str(tmp_path / "other")]) == 0
    assert report_digest.main(["--src", str(tmp_path / "moved"), "--against", str(tmp_path / "other")]) == 1
    assert "stdout.tv_distance moved in 1 of 1 reports" in capsys.readouterr().out
