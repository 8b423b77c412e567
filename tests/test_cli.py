import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import build_periodic, circuit_ir, gates, grover, iteration_count, period_circuit, run, shor, stage_costs
import qdesk
from qdesk import cli, costmodel, selftest
from qdesk.cli import _dump_state, _indented_json, _instance_problem, build_parser, drawer_count, main
from qdesk.qstate import PureState, RegisterLayout
from qdesk.shor import DISCIPLINES
from test_shor import trial_records


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["shor", "--n", "10", "--trials", "5", "--json"], (shor, "build_periodic")),
        (["grover", "--n", "524288", "--json"], (grover, "marked_drawer_table")),
    ],
)
def test_out_of_memory_is_a_one_line_usage_error(capsys, monkeypatch, argv, builder):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 MiB")

    monkeypatch.setattr(*builder, exhausted)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {argv[0]}: out of memory (Unable to allocate 16.0 MiB)"]


R_WITH_MODEXP = "--r cannot be given with --base and --modulus: the period is the order of the base"


class TestShorCommand:
    def test_exact_success_probability_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["shor", "--n", "3", "--r", "4", "--discipline", "skip-F", "--seed", "7", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["success_probability_exact"] == pytest.approx(0.5, abs=1e-12)
        assert report["seed"] == 7
        assert len(report["distribution"]) == 8

    def test_byte_identical_output_for_same_argv(self, capsys):
        argv = ["shor", "--n", "3", "--r", "4", "--seed", "9", "--trials", "50", "--json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_trials_produce_empirical_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, ["shor", "--n", "2", "--r", "2", "--trials", "100", "--seed", "1", "--json"]
        )
        report = json.loads(out)
        assert report["trials"] == 100
        assert 0.0 <= report["success_rate_empirical"] <= 1.0

    def test_modexp_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, ["shor", "--n", "4", "--base", "7", "--modulus", "15", "--json"]
        )
        assert code == 0
        assert json.loads(out)["r"] == 4

    def test_dump_state_writes_loadable_json(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, ["shor", "--n", "2", "--r", "2", "--seed", "3", "--dump-state", str(path)]
        )
        assert code == 0
        state = PureState.from_json(json.loads(path.read_text()))
        assert abs(state.norm() - 1.0) < 1e-10

    def test_dump_state_bytes_equal_the_json_dump_reference(self, tmp_path):
        amps = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.5, -0.5j, 0.5 + 0j, -0.5, 1e-300]
        state = PureState(RegisterLayout.of(X=2, F=1), amps)
        _dump_state(str(tmp_path / "state.json"), state)
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(state.to_json(), fh)
        got = (tmp_path / "state.json").read_bytes()
        assert got == (tmp_path / "reference.json").read_bytes()
        assert b"-0.0" in got

    def test_dump_state_of_2_20_amplitudes_allocates_under_8_mib(self, tmp_path):
        # the whole-state lists and text took about 270 MiB at this size
        layout = RegisterLayout.of(X=10, F=10)
        rng = np.random.default_rng(4)
        state = PureState(layout, rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension))
        tracemalloc.start()
        try:
            _dump_state(str(tmp_path / "state.json"), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        head = (tmp_path / "state.json").read_bytes()[:80]
        assert head.startswith(b'{"layout": {"registers": [["X", 10], ["F", 10]]}, "amplitudes": [[')

    def test_records_are_json_lines_with_seed(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        code, _, _ = run_cli(
            capsys,
            [
                "shor", "--n", "2", "--r", "2", "--discipline", "measure-F-at-t2",
                "--trials", "5", "--seed", "2", "--records", str(path),
            ],
        )
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 10  # F and X per trial
        for record in lines:
            assert set(record) == {"register", "outcome", "probability", "seed"}
            assert record["seed"] == 2


    # (register, outcome) records of `shor --n 4 --r 3 --trials 20 --seed 11`,
    # pinned from the hand-written sampling route the programs replaced
    PINNED_RECORDS = {
        "measure-F-at-t2": [
            ("F", 0), ("X", 5), ("F", 1), ("X", 0), ("F", 0), ("X", 11), ("F", 0), ("X", 0),
            ("F", 2), ("X", 6), ("F", 0), ("X", 5), ("F", 1), ("X", 0), ("F", 0), ("X", 11),
            ("F", 1), ("X", 5), ("F", 2), ("X", 5), ("F", 2), ("X", 0), ("F", 1), ("X", 5),
            ("F", 0), ("X", 5), ("F", 0), ("X", 11), ("F", 2), ("X", 0), ("F", 1), ("X", 0),
            ("F", 0), ("X", 11), ("F", 1), ("X", 0), ("F", 1), ("X", 0), ("F", 2), ("X", 0),
        ],
        "skip-F": [
            ("X", x) for x in (0, 5, 6, 0, 0, 11, 0, 0, 11, 6, 5, 5, 7, 0, 0, 11, 8, 5, 11, 5)
        ],
        "annihilate-F": [
            ("X", x) for x in (0, 0, 5, 11, 5, 5, 11, 0, 0, 0, 5, 0, 10, 5, 0, 0, 6, 0, 10, 0)
        ],
    }

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_records_are_pinned(self, capsys, tmp_path, discipline):
        path = tmp_path / "records.jsonl"
        argv = ["shor", "--n", "4", "--r", "3", "--trials", "20", "--seed", "11"]
        code, _, err = run_cli(capsys, argv + ["--discipline", discipline, "--records", str(path)])
        assert code == 0, err
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["register"], r["outcome"]) for r in lines] == self.PINNED_RECORDS[discipline]

    def test_no_trials_leave_an_empty_records_file(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("stale\n")
        code, _, err = run_cli(capsys, ["shor", "--n", "4", "--r", "3", "--trials", "0", "--records", str(path)])
        assert code == 0, err
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_records_over_several_write_blocks_are_the_record_objects_json(
        self, capsys, monkeypatch, tmp_path, discipline
    ):
        # 50 trials in blocks of 7 trials: the last block is short
        monkeypatch.setattr(cli, "RECORD_CHUNK", 7)
        path = tmp_path / "records.jsonl"
        argv = ["shor", "--n", "5", "--r", "6", "--discipline", discipline, "--trials", "50", "--seed", "13"]
        code, out, err = run_cli(capsys, argv + ["--records", str(path), "--json"])
        assert code == 0, err
        inst = build_periodic(5, 6)
        trials = trial_records(*shor.sample_trials(inst, discipline, 50, np.random.default_rng(13)))
        records = [r for trial in trials for r in trial]
        expected = "".join(json.dumps(r.to_json() | {"seed": 13}, sort_keys=True) + "\n" for r in records)
        assert path.read_text() == expected
        successes = sum(shor.extract_period(r.outcome, inst.table) == 6 for r in records if r.register == "X")
        assert json.loads(out)["success_rate_empirical"] == successes / 50

    def test_dump_state_is_the_t4_state_of_the_program(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        argv = ["shor", "--n", "3", "--r", "3", "--seed", "6", "--discipline", "annihilate-F"]
        code, _, err = run_cli(capsys, argv + ["--dump-state", str(path)])
        assert code == 0, err
        inst = build_periodic(3, 3)
        trace = run(period_circuit(inst, "annihilate-F"), np.random.default_rng(6))
        dumped = PureState.from_json(json.loads(path.read_text()))
        assert np.abs(dumped.amplitudes - trace.state_at_tag("t4").amplitudes).max() < 1e-15

    def test_trials_above_the_ceiling_is_a_usage_error_before_any_allocation(self, capsys):
        argv = ["shor", "--n", "10", "--trials", str(cli.MAX_TRIALS + 1), "--json"]
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"qdesk: error: shor: --trials must be at most {cli.MAX_TRIALS}, got {cli.MAX_TRIALS + 1}"
        ]
        assert peak < 2**20

    def test_negative_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shor", "--n", "3", "--trials", "-5", "--json"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "0"],
            ["--n", "-1"],
            ["--n", "11"],
            ["--n", "4", "--r", "0"],
            ["--n", "4", "--r", "17"],
            ["--n", "10", "--base", "2", "--modulus", "4099"],
            ["--n", "19", "--base", "2", "--modulus", "3"],
        ],
    )
    def test_out_of_range_instance_is_usage_error(self, capsys, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("instance built before the size check")

        monkeypatch.setattr(shor, "build_periodic", refuse)
        monkeypatch.setattr(shor, "build_modexp", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["shor", *extra, "--trials", "5", "--json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err or "--r" in err

    @pytest.mark.parametrize(
        "extra, problem",
        [
            (["--base", "3", "--modulus", "15"], "need gcd(--base, --modulus) = 1 and --modulus >= 2, got 3, 15"),
            (["--base", "2", "--modulus", "1"], "need gcd(--base, --modulus) = 1 and --modulus >= 2, got 2, 1"),
            (["--base", "2", "--modulus", "0"], "need gcd(--base, --modulus) = 1 and --modulus >= 2, got 2, 0"),
            (["--base", "2", "--modulus", "-5"], "need gcd(--base, --modulus) = 1 and --modulus >= 2, got 2, -5"),
            (["--base", "7"], "--base and --modulus must be given together"),
            (["--modulus", "15"], "--base and --modulus must be given together"),
            # the period of 7^x mod 15 is 4, so neither --r would be read
            (["--base", "7", "--modulus", "15", "--r", "3"], R_WITH_MODEXP),
            (["--r", "4", "--modulus", "15", "--base", "7"], R_WITH_MODEXP),
        ],
    )
    def test_bad_modexp_input_is_a_one_line_usage_error(self, capsys, monkeypatch, extra, problem):
        def refuse(*args, **kwargs):
            raise AssertionError("table built before the input check")

        monkeypatch.setattr(shor, "modexp_table", refuse)
        monkeypatch.setattr(shor, "build_modexp", refuse)
        monkeypatch.setattr(shor, "build_periodic", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["shor", "--n", "4", *extra, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error" in line] == [f"qdesk: error: shor: {problem}"]

    @pytest.mark.parametrize(
        "n, period, modulus", [(10, None, None), (1, 1, None), (4, 16, None), (18, None, 3), (10, None, 1024)]
    )
    def test_instances_up_to_the_ceiling_are_accepted(self, n, period, modulus):
        assert _instance_problem(n, period, modulus) is None


# trees of dicts, lists and tuples, empty ones included, over floats (-0.0,
# NaN and the infinities drawn often), ints, bools, None and strings
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_indented_json_is_the_bytes_of_json_dumps_with_indent(value):
    assert _indented_json(value) == json.dumps(value, sort_keys=True, indent=2)


class TestGroverCommand:
    def test_standard_report_runs_one_search(self, capsys, monkeypatch):
        # an oracle call swaps pairs, or kicks back into the held register,
        # once as it is dispatched and then each time its step is replayed
        calls = []
        for owner, name in ((gates, "oracle_xor_in_place"), (circuit_ir._Segment, "kick")):
            def counting(*args, _oracle=getattr(owner, name), **kwargs):
                calls.append(1)
                step = _oracle(*args, **kwargs)
                return step and (lambda: calls.append(1) or step())

            monkeypatch.setattr(owner, name, counting)
        code, out, err = run_cli(capsys, ["grover", "--n", "64", "--k", "5", "--json"])
        assert code == 0, err
        assert json.loads(out)["oracle_queries"] == iteration_count(64)
        assert len(calls) == iteration_count(64)

    def test_standard_game_report(self, capsys):
        code, out, _ = run_cli(capsys, ["grover", "--n", "4", "--k", "0", "--variant", "standard", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["answered_x"] == 0
        assert report["oracle_queries"] == 1
        assert report["hit_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_extended_game_report(self, capsys):
        code, out, _ = run_cli(capsys, ["grover", "--n", "4", "--variant", "extended", "--seed", "5", "--json"])
        report = json.loads(out)
        assert report["announced_k"] == report["answered_x"]
        joint = report["joint_distribution"]
        assert set(joint) == {f"{k},{k}" for k in range(4)}

    @pytest.mark.parametrize("drawers", ["6", "0", "1", "-4", "1048576", "2097152"])
    def test_drawer_count_out_of_range_is_usage_error(self, capsys, monkeypatch, drawers):
        def refuse(*args, **kwargs):
            raise AssertionError("drawer table built before the size check")

        monkeypatch.setattr(grover, "marked_drawer_table", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["grover", "--n", drawers, "--json"])
        assert exc.value.code == 2
        assert "--n: must be a power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("drawers", [2, 524288])
    def test_drawer_count_accepts_the_range_ends(self, drawers):
        assert drawer_count(str(drawers)) == drawers

    def test_dump_state(self, capsys, tmp_path):
        path = tmp_path / "grover.json"
        code, _, _ = run_cli(capsys, ["grover", "--n", "4", "--k", "2", "--dump-state", str(path)])
        assert code == 0
        state = PureState.from_json(json.loads(path.read_text()))
        assert abs(state.norm() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["grover", "--n", "8", "--k", "8"], "--k"),
        (["grover", "--n", "8", "--k", "-1"], "--k"),
        (["game", "--drawers", "16", "--k", "16"], "--k"),
        (["game", "--drawers", "16", "--k", "-3", "--strategy", "unilateral"], "--k"),
        (["game", "--drawers", "8", "--k", "1", "--strategy", "joint"], "--drawers"),
        (["game", "--drawers", "0", "--k", "0"], "--drawers"),
        (["grover", "--n", "8", "--variant", "extended"], "--n 4"),
        (["mixture-check", "--n", "5"], "--n"),
    ],
)
def test_out_of_range_game_input_is_usage_error(capsys, monkeypatch, argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("game built before the input check")

    for name in ("marked_drawer_table", "run_classical_game", "extended_mixture"):
        monkeypatch.setattr(grover, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["grover", "--variant", "extended", "--n", "4", "--k", "0"], "--k"),
        (["grover", "--order", "kx"], "--order"),
        (["grover", "--n", "16", "--k", "3", "--order", "xk"], "--order"),
        (["defer-check", "--circuit", "program.json", "--auto-defer", "--n", "9"], "--n"),
        (["defer-check", "--circuit", "a.json", "--against", "b.json", "--r", "2"], "--r"),
    ],
)
def test_a_flag_the_other_arguments_leave_unread_is_refused_before_any_work(capsys, monkeypatch, argv, flag):
    # the value given is the default, or one the run would not read: either
    # way the flag is named, where it used to be ignored with exit 0
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the flags were checked")

    for name in ("run_standard_grover", "run_extended_grover"):
        monkeypatch.setattr(grover, name, refuse)
    monkeypatch.setattr(cli, "_load_program", refuse)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"qdesk: error: {argv[0]}: {flag} cannot be given")


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["grover", "--n", "8"], "k", 0),
        (["grover", "--n", "4", "--variant", "extended"], "order", "kx"),
        (["defer-check", "--fig1"], "instructions", 6),
    ],
)
def test_a_flag_not_given_takes_its_default_where_it_is_read(capsys, argv, field, value):
    code, out, err = run_cli(capsys, [*argv, "--json"])
    assert code == 0, err
    assert json.loads(out)[field] == value


def test_the_built_in_program_defaults_to_two_qubits_and_period_two(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(shor, "build_periodic", lambda n, r, _build=shor.build_periodic: built.append((n, r)) or _build(n, r))
    assert run_cli(capsys, ["defer-check", "--fig1", "--json"])[0] == 0
    assert run_cli(capsys, ["defer-check", "--fig1", "--r", "3", "--json"])[0] == 0
    assert built == [(2, 2), (2, 3)]


class TestGameCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, ["game", "--drawers", "4", "--k", "2", "--strategy", "joint", "--json"])
        report = json.loads(out)
        assert report["announced_row"] == 1
        assert report["oracle_queries"] <= 2
        assert report["found_drawer"] == 2
        assert report["worst_case_queries"] == 2

    def test_unilateral_worst_case(self, capsys):
        code, out, _ = run_cli(
            capsys, ["game", "--drawers", "64", "--k", "17", "--strategy", "unilateral", "--json"]
        )
        assert json.loads(out)["worst_case_queries"] == 64


class TestDeferCheckCommand:
    def test_builtin_program(self, capsys):
        code, out, _ = run_cli(capsys, ["defer-check", "--fig1", "--n", "2", "--r", "2", "--json"])
        assert code == 0
        assert json.loads(out)["tv_distance"] == pytest.approx(0.0, abs=1e-10)

    def test_circuit_file_with_auto_defer(self, capsys, tmp_path):
        from qdesk import build_periodic, period_circuit

        path = tmp_path / "fig1.json"
        program = period_circuit(build_periodic(2, 2), "measure-F-at-t2")
        path.write_text(json.dumps(program.to_json()))
        code, out, _ = run_cli(capsys, ["defer-check", "--circuit", str(path), "--auto-defer", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["tv_distance"] == pytest.approx(0.0, abs=1e-10)
        assert report["observed"] == ["F", "X"]

    def test_two_files(self, capsys, tmp_path):
        from qdesk import build_periodic, period_circuit

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(period_circuit(build_periodic(2, 2), "measure-F-at-t2").to_json()))
        b.write_text(json.dumps(period_circuit(build_periodic(2, 4), "measure-F-at-t2").to_json()))
        code, out, _ = run_cli(
            capsys, ["defer-check", "--circuit", str(a), "--against", str(b), "--observed", "X", "--json"]
        )
        assert json.loads(out)["tv_distance"] == pytest.approx(0.5, abs=1e-10)

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["defer-check", "--circuit", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"layout": [["X", 2]], "instructions": []}',
            '{"layout": {"registers": [["X", 2]]}, "instructions": ["measure"]}',
            '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "measure"}]}',
            '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "gate", "reg": "X"}, {"op": "measure", "reg": "X"}]}',
            '{"layout": {"registers": [["X", 2.5]]}, "instructions": [{"op": "measure", "reg": "X"}]}',
            '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "prepare", "reg": "X", "value": 1.7}, {"op": "measure", "reg": "X"}]}',
            '{"layout": {"registers": [["X", 30]]}, "instructions": [{"op": "measure", "reg": "X"}]}',
            '{"layout": {"registers": [["X", 1]]}, "instructions": [{"op": "measure", "reg": "X"}, {"op": "dephase", "reg": "X"}]}',
            "not json",
            None,
        ],
    )
    def test_a_bad_program_file_is_a_one_line_usage_error(self, tmp_path, text):
        # in a fresh process, as a user runs it: a traceback or a second line
        # of stderr would show here
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        src = str(Path(qdesk.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "qdesk.cli", "defer-check", "--circuit", str(path), "--auto-defer", "--json"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: defer-check: ")
        assert "Traceback" not in done.stderr

    def test_a_bad_against_file_is_a_usage_error(self, capsys, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(period_circuit(build_periodic(2, 2), "measure-F-at-t2").to_json()))
        bad.write_text('{"layout": {"registers": [["X", 2]]}}')
        code, out, err = run_cli(capsys, ["defer-check", "--circuit", str(good), "--against", str(bad), "--json"])
        assert (code, out, err) == (2, "", f"error: defer-check: {bad}: program has no 'instructions'\n")

    def test_a_program_failure_is_still_an_internal_error(self, capsys, tmp_path):
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(period_circuit(build_periodic(2, 2), "measure-F-at-t2").to_json()))
        code, _, err = run_cli(capsys, ["defer-check", "--circuit", str(path), "--auto-defer", "--observed", "Q"])
        assert code == 1
        assert err.startswith("error: observed registers ['Q'] are never measured")

    @pytest.mark.parametrize(
        "extra",
        [["--n", "0"], ["--n", "-2"], ["--n", "11"], ["--n", "3", "--r", "9"], ["--n", "3", "--r", "0"]],
    )
    def test_out_of_range_builtin_program_is_usage_error(self, capsys, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("instance built before the size check")

        monkeypatch.setattr(shor, "build_periodic", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["defer-check", "--fig1", *extra, "--json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n" in err or "--r" in err

    @pytest.mark.parametrize("observed", [",", "", " , ", "X,X", "F,X,F", "X, X"])
    def test_empty_or_repeated_observed_is_usage_error(self, capsys, monkeypatch, observed):
        def refuse(*args, **kwargs):
            raise AssertionError("distributions enumerated before the input check")

        monkeypatch.setattr(circuit_ir, "equivalent_distributions", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["defer-check", "--fig1", "--n", "4", "--r", "4", "--observed", observed, "--json"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--observed" in errors[0]

    def test_observed_names_are_stripped_and_kept_in_order(self, capsys):
        code, out, _ = run_cli(capsys, ["defer-check", "--fig1", "--n", "3", "--r", "2", "--observed", " X, ,F", "--json"])
        assert code == 0
        assert json.loads(out)["observed"] == ["X", "F"]

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["defer-check", "--json"], "need --circuit FILE or --fig1"),
            (["defer-check", "--circuit", "F", "--json"], "need --against FILE or --auto-defer"),
        ],
    )
    def test_missing_arguments(self, capsys, argv, problem):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: defer-check: {problem}"]


class TestCostCommand:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, ["cost", "--n-range", "2:4", "--csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "n,stage,classical_units,quantum_units"
        assert lines[1] == "2,function-evaluation,4,3"
        assert len(lines) == 1 + 9

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["cost", "--n-range", "2:3", "--json"])
        rows = json.loads(out)["rows"]
        assert {r["stage"] for r in rows} == {"function-evaluation", "filtration", "extraction"}

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ("ten", "expected LO:HI"),
            ("0:3", "expected 1 <= LO <= HI"),
            ("5:2", "expected 1 <= LO <= HI"),
            ("2:1025", "expected HI <= 1024"),
            ("1025", "expected HI <= 1024"),
            ("2:100000", "expected HI <= 1024"),
        ],
    )
    def test_bad_range(self, capsys, monkeypatch, raw, problem):
        def refuse(*args, **kwargs):
            raise AssertionError("rows built for a bad range")

        monkeypatch.setattr(costmodel, "stage_table", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--n-range", raw])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"qdesk cost: error: argument --n-range: {problem}, got {raw!r}"
        ]

    def test_the_range_ceiling_itself_is_accepted(self):
        assert cli.MAX_COST_N == 1024
        assert cli._parse_n_range("2:1024")[-1] == 1024

    def test_benchmark_table_is_byte_identical(self, capsys):
        # the sha256 of this report when every row came from a built instance
        code, out, _ = run_cli(capsys, ["cost", "--n-range", "2:16", "--json", "--seed", "0"])
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "dd6965f955b1fbdecd0365f748ffec0aa97f6b828c9f9a1c2ab1f1e4b8fbcb9d"
        expected = [row for n in range(2, 17) for row in stage_costs(build_periodic(n, 1 << (n - 1)))]
        assert json.loads(out)["rows"] == [
            {"n": r.n, "stage": r.stage, "classical_units": r.classical_units, "quantum_units": r.quantum_units}
            for r in expected
        ]

    def test_wide_range_builds_no_table(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, ["cost", "--n-range", "2:40", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 4 * 2**20
        rows = json.loads(out)["rows"]
        for stage in ("function-evaluation", "filtration"):
            counts = [row["classical_units"] for row in rows if row["stage"] == stage]
            assert counts == [1 << n for n in range(2, 41)]


class TestMixtureCheckCommand:
    def test_samples_above_the_ceiling_is_a_usage_error_before_any_draw(self, capsys):
        argv = ["mixture-check", "--samples", str(cli.MAX_SAMPLES + 1), "--json"]
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if "error" in line] == [
            f"qdesk: error: mixture-check: --samples must be at most {cli.MAX_SAMPLES}, got {cli.MAX_SAMPLES + 1}"
        ]
        assert peak < 2**20

    def test_distances(self, capsys):
        code, out, _ = run_cli(capsys, ["mixture-check", "--samples", "20000", "--seed", "3", "--json"])
        report = json.loads(out)
        assert report["analytic_distance"] < 1e-10
        assert report["monte_carlo_distance"] < 0.05
        assert report["correlated_phase_distance"] > 0.1

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_is_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["mixture-check", "--samples", samples, "--json"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestCliContract:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shor", "--frequency", "9"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["teleport"])
        assert exc.value.code == 2

    def test_env_var_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QDESK_SEED", "123")
        _, out, _ = run_cli(capsys, ["shor", "--n", "2", "--r", "2", "--json"])
        assert json.loads(out)["seed"] == 123

    def test_text_output_is_default(self, capsys):
        code, out, _ = run_cli(capsys, ["game", "--drawers", "4", "--k", "1"])
        assert code == 0
        assert "oracle_queries" in out

    def test_csv_fallback_for_scalar_reports(self, capsys):
        code, out, _ = run_cli(capsys, ["game", "--drawers", "4", "--k", "1", "--csv"])
        assert out.splitlines()[0] == "key,value"

    @pytest.mark.parametrize(
        "command", ["shor", "grover", "game", "defer-check", "cost", "mixture-check"]
    )
    def test_selftest_exits_clean(self, capsys, command):
        code, out, _ = run_cli(capsys, [command, "--selftest"])
        assert code == 0
        assert "FAIL" not in out

    def test_a_failing_check_is_listed_beside_the_others_and_exits_1(self, capsys, monkeypatch):
        def broken():
            raise ValueError("no such law")

        checks = [("first law", lambda: None), ("broken law", broken), ("last law", lambda: None)]
        monkeypatch.setitem(selftest.SUITES, "cost", lambda rng: checks)
        code, out, _ = run_cli(capsys, ["cost", "--selftest"])
        assert code == 1
        assert out.splitlines() == [
            "PASS [cost] first law",
            "FAIL [cost] broken law (ValueError: no such law)",
            "PASS [cost] last law",
        ]


def run_any(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    # (argv, exit code) in the order one process runs them
    SEQUENCES = {
        "usage error, then a report": [
            (["shor", "--n", "3", "--r", "99", "--json"], 2),
            (["shor", "--n", "3", "--r", "4", "--json"], 0),
        ],
        "json, then text": [
            (["shor", "--n", "3", "--r", "4", "--trials", "10", "--json"], 0),
            (["shor", "--n", "3", "--r", "4", "--trials", "10"], 0),
        ],
        "seed given, then from QDESK_SEED": [
            (["shor", "--n", "3", "--r", "3", "--trials", "20", "--seed", "7", "--json"], 0),
            (["shor", "--n", "3", "--r", "3", "--trials", "20", "--json"], 0),
        ],
        "csv cost, then json cost": [
            (["cost", "--n-range", "2:4", "--csv"], 0),
            (["cost", "--n-range", "2:4", "--json"], 0),
        ],
    }

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_reused_parser_reports_as_a_fresh_one(self, capsys, monkeypatch, name):
        monkeypatch.setenv("QDESK_SEED", "123")
        fresh = []
        for argv, _ in self.SEQUENCES[name]:
            build_parser.cache_clear()
            fresh.append(run_any(capsys, argv))
        build_parser.cache_clear()
        reused = [run_any(capsys, argv) for argv, _ in self.SEQUENCES[name]]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [code for _, code in self.SEQUENCES[name]]


# (argv, exit code, stdout, stderr) on an 80-column terminal, as one parse
# of argv by the top-level parser printed them: the subcommand's parser
# reports what it cannot parse, under its own usage, and the top-level
# parser reports a missing or unknown subcommand, leftover arguments and
# the usage problems found after parsing, under the top-level usage.
TOP_USAGE = "usage: qdesk [-h] {shor,grover,game,defer-check,cost,mixture-check} ...\n"
SHOR_USAGE = (
    "usage: qdesk shor [-h] [--n N] [--r R] [--base BASE] [--modulus MODULUS]\n"
    "                  [--discipline {measure-F-at-t2,skip-F,annihilate-F}]\n"
    "                  [--trials TRIALS] [--dump-state PATH] [--records PATH]\n"
    "                  [--seed SEED] [--json | --csv | --text] [--selftest]\n"
)
PARSE_BYTES = {
    "leftover argument": (
        ["shor", "--bogus"], 2, "", TOP_USAGE + "qdesk: error: unrecognized arguments: --bogus\n"
    ),
    "bad value": (
        ["shor", "--n", "x"], 2, "", SHOR_USAGE + "qdesk shor: error: argument --n: invalid positive_int value: 'x'\n"
    ),
    "bad choice": (
        ["shor", "--discipline", "nope"],
        2,
        "",
        SHOR_USAGE + "qdesk shor: error: argument --discipline: invalid choice: 'nope' "
        "(choose from 'measure-F-at-t2', 'skip-F', 'annihilate-F')\n",
    ),
    "exclusive formats": (
        ["shor", "--json", "--csv"], 2, "", SHOR_USAGE + "qdesk shor: error: argument --csv: not allowed with argument --json\n"
    ),
    "instance over the ceiling": (
        ["shor", "--n", "40"],
        2,
        "",
        TOP_USAGE + "qdesk: error: shor: --n 40 with 40 output bits needs 80 qubits, more than 20\n",
    ),
    "game input": (
        ["game", "--drawers", "5"], 2, "", TOP_USAGE + "qdesk: error: game: --strategy joint needs a square --drawers, got 5\n"
    ),
    "type check": (
        ["mixture-check", "--samples", "0"],
        2,
        "",
        "usage: qdesk mixture-check [-h] [--n N] [--samples SAMPLES] [--seed SEED]\n"
        "                           [--json | --csv | --text] [--selftest]\n"
        "qdesk mixture-check: error: argument --samples: must be >= 1, got 0\n",
    ),
    "no argv": ([], 2, "", TOP_USAGE + "qdesk: error: the following arguments are required: command\n"),
    "unknown subcommand": (
        ["nope"],
        2,
        "",
        TOP_USAGE + "qdesk: error: argument command: invalid choice: 'nope' (choose from 'shor', 'grover', "
        "'game', 'defer-check', 'cost', 'mixture-check')\n",
    ),
    "help": (
        ["-h"],
        0,
        TOP_USAGE
        + "\n"
        "Command-line front end. Subcommands: shor, grover, game, defer-check, cost,\n"
        "mixture-check. Every run is seeded (flag, else the QDESK_SEED environment\n"
        "variable, else 0) and every report carries its seed. JSON output is the stable\n"
        "contract; text and csv are conveniences. Exit codes: 0 ok, 1 internal failure,\n"
        "2 usage, a program file that cannot be read, parsed or loaded, or out of\n"
        "memory (one ``error:`` line, no traceback). ``main`` may be called many times\n"
        "in one process: the parser is built once, on the first call, and every call\n"
        "parses its own argv into a fresh namespace.\n"
        "\n"
        "positional arguments:\n"
        "  {shor,grover,game,defer-check,cost,mixture-check}\n"
        "    shor                period finding under a measurement discipline\n"
        "    grover              quantum drawer search, standard or mode-extended\n"
        "    game                classical drawer search on a square chest\n"
        "    defer-check         prove a deferral rewrite observationally sound\n"
        "    cost                classical vs quantum stage cost table\n"
        "    mixture-check       random-phase mixture vs uniform classical mixture\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    "subcommand help": (
        ["shor", "-h"],
        0,
        SHOR_USAGE
        + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 input register qubits\n"
        "  --r R                 hidden period of the synthetic instance\n"
        "  --base BASE           modular-exponentiation base\n"
        "  --modulus MODULUS     modular-exponentiation modulus\n"
        "  --discipline {measure-F-at-t2,skip-F,annihilate-F}\n"
        "  --trials TRIALS       sampled runs for the empirical rate\n"
        "  --dump-state PATH     write the pre-measurement state as JSON\n"
        "  --records PATH        write measurement records as JSON lines\n"
        "  --seed SEED           RNG seed (default: $QDESK_SEED or 0)\n"
        "  --json                machine-readable JSON report\n"
        "  --csv                 delimited report\n"
        "  --text                human-readable report (default)\n"
        "  --selftest            run this subcommand's invariant suite and exit\n",
        "",
    ),
    # a flag the other arguments leave unread is refused, and the help of
    # the subcommands that refuse one is unchanged, byte for byte
    "search key beside the extended game": (
        ["grover", "--variant", "extended", "--n", "4", "--k", "3"],
        2,
        "",
        TOP_USAGE + "qdesk: error: grover: --k cannot be given with --variant extended: "
        "the hider's choice is the mode register\n",
    ),
    "measurement order beside the standard search": (
        ["grover", "--variant", "standard", "--order", "xk"],
        2,
        "",
        TOP_USAGE + "qdesk: error: grover: --order cannot be given with --variant standard: it measures one register\n",
    ),
    "built-in program size beside a program file": (
        ["defer-check", "--circuit", "program.json", "--auto-defer", "--n", "9", "--r", "7"],
        2,
        "",
        TOP_USAGE + "qdesk: error: defer-check: --n and --r cannot be given without --fig1: "
        "a program file has its own size\n",
    ),
    "search help": (
        ["grover", "-h"],
        0,
        "usage: qdesk grover [-h] [--n N] [--k K] [--variant {standard,extended}]\n"
        "                    [--order {kx,xk}] [--dump-state PATH] [--seed SEED]\n"
        "                    [--json | --csv | --text] [--selftest]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 number of drawers (power of two, 2..2^19)\n"
        "  --k K                 hidden drawer (standard variant)\n"
        "  --variant {standard,extended}\n"
        "  --order {kx,xk}       extended measurement order\n"
        "  --dump-state PATH     write the pre-measurement state as JSON\n"
        "  --seed SEED           RNG seed (default: $QDESK_SEED or 0)\n"
        "  --json                machine-readable JSON report\n"
        "  --csv                 delimited report\n"
        "  --text                human-readable report (default)\n"
        "  --selftest            run this subcommand's invariant suite and exit\n",
        "",
    ),
    "deferral help": (
        ["defer-check", "-h"],
        0,
        "usage: qdesk defer-check [-h] [--circuit PATH] [--against PATH] [--auto-defer]\n"
        "                         [--fig1] [--n N] [--r R] [--observed OBSERVED]\n"
        "                         [--seed SEED] [--json | --csv | --text] [--selftest]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --circuit PATH       program JSON file\n"
        "  --against PATH       second program JSON file to compare\n"
        "  --auto-defer         compare against the deferred rewrite\n"
        "  --fig1               use the built-in period-finding program\n"
        "  --n N                built-in program: input qubits\n"
        "  --r R                built-in program: hidden period\n"
        "  --observed OBSERVED  comma-separated registers (default: measured in both)\n"
        "  --seed SEED          RNG seed (default: $QDESK_SEED or 0)\n"
        "  --json               machine-readable JSON report\n"
        "  --csv                delimited report\n"
        "  --text               human-readable report (default)\n"
        "  --selftest           run this subcommand's invariant suite and exit\n",
        "",
    ),
}


@pytest.mark.parametrize("name", PARSE_BYTES)
def test_parse_prints_the_bytes_of_one_top_level_parse(capsys, monkeypatch, name):
    argv, code, out, err = PARSE_BYTES[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert run_any(capsys, argv) == (code, out, err)


# (environment, argv) with a seed that is no non-negative integer
BAD_SEEDS = {
    "QDESK_SEED not an integer": ({"QDESK_SEED": "abc"}, ["game", "--drawers", "4"]),
    "negative QDESK_SEED": ({"QDESK_SEED": "-2"}, ["mixture-check", "--samples", "10"]),
    "negative --seed": ({}, ["grover", "--seed", "-1"]),
    "negative --seed, sampled shor": ({}, ["shor", "--trials", "5", "--seed", "-3", "--json"]),
}


@pytest.mark.parametrize("name", BAD_SEEDS)
def test_a_bad_seed_is_a_one_line_usage_error(name):
    # in a fresh process, as a user runs it: a traceback or a second line
    # of stderr would show here
    env, argv = BAD_SEEDS[name]
    src = str(Path(qdesk.__file__).resolve().parent.parent)
    env = os.environ | env | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "qdesk.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"error: {argv[0]}: ") and "must be a non-negative integer" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["shor", "grover", "game", "defer-check", "cost", "mixture-check"])
@pytest.mark.parametrize("seed_from", ["flag", "environment"])
def test_every_subcommand_refuses_a_negative_seed_before_any_work(capsys, monkeypatch, command, seed_from):
    def refuse(*args, **kwargs):
        raise AssertionError("a command ran on a negative seed")

    # the table's entries are what ``main`` calls; the module's names too
    for name, (handler, suites) in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, (refuse, suites))
        monkeypatch.setattr(cli, handler.__name__, refuse)
    monkeypatch.setattr(cli, "run_selftest", refuse)
    if seed_from == "flag":
        seed = ["--seed", "-7"]
        problem = "--seed must be a non-negative integer, got -7"
    else:
        seed = []
        monkeypatch.setenv("QDESK_SEED", "-7")
        problem = "QDESK_SEED must be a non-negative integer, got '-7'"
    for argv in ([command, "--selftest", *seed], [command, *seed]):
        assert run_any(capsys, argv) == (2, "", f"error: {command}: {problem}\n")


# `numpy.random` is imported by the first `default_rng` call in a process;
# the exact routes never draw, so they leave it unimported.  The sha256 of
# each report is the one it had when every `shor` report built a generator.
NUMPY_RANDOM_PROBE = """
import contextlib, hashlib, io, json, sys
from qdesk.cli import main

def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()

exact = [report(["shor", "--n", "8", "--r", "3", "--json"]),
         report(["defer-check", "--fig1", "--n", "5", "--r", "4", "--json"])]
loaded_exact = "numpy.random" in sys.modules
sampled = report(["shor", "--n", "8", "--r", "3", "--trials", "5", "--json"])
print(json.dumps([exact, loaded_exact, sampled, "numpy.random" in sys.modules]))
"""


def test_exact_reports_never_load_numpy_random():
    src = str(Path(qdesk.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE], env=env, capture_output=True, text=True, check=True)
    exact, loaded_exact, sampled, loaded_sampled = json.loads(done.stdout)
    # the deferral check's report reads "tv_distance": 0.0: the two
    # programs' enumerations add the same undivided terms in the same order
    assert exact == [
        "7ea93f4e86dc9c4c19d849e9bccf2fe8c93d61fa5f8348978d8fb46aec761eac",
        "56cff252ccb5f4507136018c269fe06eb014ddd9bdcb03f960efcbd069924f1d",
    ]
    assert not loaded_exact
    assert sampled == "16b8b721b7844bb57171c8879f0565c4e3f847366f9ad24698411b4b86fddd7b"
    assert loaded_sampled


def referenced_names(node):
    """Every name, attribute and imported name in an AST subtree."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_def_and_class_is_reached_from_the_package():
    # what only the tests reach belongs in the tests: each top-level def and
    # class of qdesk is exported (an import in __init__) or referenced in
    # another top-level statement of the package
    package = Path(qdesk.__file__).resolve().parent
    statements = [
        (path.stem, node) for path in sorted(package.glob("*.py")) for node in ast.parse(path.read_text()).body
    ]
    references = [(node, referenced_names(node)) for _, node in statements]
    unreached = [
        f"{module}.{node.name}"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for other, names in references if other is not node)
    ]
    assert unreached == []


class TestHotRoutes:
    def test_no_report_builds_the_dense_fourier_matrix(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Fourier matrix built outside the test oracle")

        monkeypatch.setattr(selftest, "fourier_matrix", refuse)
        shor_argv = ["shor", "--n", "4", "--r", "3", "--trials", "5", "--json"]
        for discipline in DISCIPLINES:
            code, _, err = run_cli(capsys, shor_argv + ["--discipline", discipline])
            assert code == 0, err
        dump = ["--dump-state", str(tmp_path / "state.json")]
        code, _, err = run_cli(capsys, shor_argv + ["--discipline", "annihilate-F"] + dump)
        assert code == 0, err
        code, _, err = run_cli(capsys, ["defer-check", "--fig1", "--n", "3", "--r", "2", "--json"])
        assert code == 0, err

    def test_search_report_builds_the_oracle_permutation_once(self, capsys, monkeypatch):
        # the swapped pairs, or the inputs that kick back into the held
        # register: built once per table, either way
        calls = []
        for name in ("_xor_swaps", "_kicked_inputs"):
            def counting(*args, _build=getattr(gates, name), **kwargs):
                calls.append(1)
                return _build(*args, **kwargs)

            monkeypatch.setattr(gates, name, counting)
        code, out, err = run_cli(capsys, ["grover", "--n", "1024", "--k", "9", "--json"])
        assert code == 0, err
        assert json.loads(out)["oracle_queries"] == iteration_count(1024) > 1
        assert len(calls) == 1

    def test_search_report_adopts_a_few_states(self, capsys, monkeypatch):
        # one per unitary segment and projection, not one per gate
        calls = []
        adopt = PureState._adopt.__func__

        def counting(cls, *args):
            calls.append(1)
            return adopt(cls, *args)

        monkeypatch.setattr(PureState, "_adopt", classmethod(counting))
        code, out, err = run_cli(capsys, ["grover", "--n", "16384", "--k", "77", "--json"])
        assert code == 0, err
        assert json.loads(out)["oracle_queries"] == iteration_count(16384) == 100
        assert len(calls) <= 8

    def test_game_report_plays_a_constant_number_of_games(self, capsys, monkeypatch):
        calls = []
        play = grover.run_classical_game

        def counting(*args, **kwargs):
            calls.append(1)
            return play(*args, **kwargs)

        monkeypatch.setattr(grover, "run_classical_game", counting)
        for strategy in ("joint", "unilateral"):
            argv = ["game", "--drawers", "65536", "--k", "300", "--strategy", strategy, "--json"]
            code, out, err = run_cli(capsys, argv)
            assert code == 0, err
            assert json.loads(out)["worst_case_queries"] == (256 if strategy == "joint" else 65536)
        assert len(calls) <= 4
