"""Digest of every report in the first rounds of the benchmark workloads.

    python3 tools/report_digest.py [--src PATH] > digest.jsonl
    python3 tools/report_digest.py [--src PATH] --against OTHER_SRC

Runs every job of rounds 0 and 1 at workload seed 0 of each workload in
``perfbench/jobs.py``, then the fixed ``ceiling`` jobs at the 20-qubit
sizes the workloads stop short of, then the ``files`` jobs, ``defer-check``
on program files, in this process through ``qdesk.cli.main``, with stdout
captured.  Every ``shor`` and ``grover`` job also writes ``--dump-state``,
and every ``shor`` job writes ``--records``.  Every ``shor`` and ``grover``
job then runs a second time as the workload gives it, without the added
files: the route the benchmark times.  Then come the ``usage`` jobs, run
once each: argvs that end in help or a usage error, some with a bad seed in
the environment (leading ``NAME=value`` words, as on a shell line), and
last the ``selftest`` jobs, each subcommand's ``--selftest --seed 3``
listing, run once each.  Every job runs with ``COLUMNS=80``, the width
argparse wraps its help and usage to.  One JSON line per run gives its argv,
its exit code (1 for an exception that escapes ``main``, as a traceback
exits; the traceback is printed to this script's stderr), and the sha256 of
its stdout, of its stderr, of its dumped state, of its full records file,
and of the records' (register, outcome) sequence alone; temporary paths
read ``<tmp>`` in the argv and the stderr.

``--src`` imports qdesk from another checkout's ``src``, so one copy of
this script digests two versions of the program; ``diff`` the two outputs
to see which reports moved.

``--against`` compares two trees instead: it runs the same jobs once from
``--src`` and once from ``OTHER_SRC``, each in a fresh interpreter that
keeps what each job wrote (``--keep``), and prints one line per moved
report field: the command (with its ``--variant`` and ``--discipline``),
the field (``exit``, ``stdout.<key>``, ``stderr``, ``dump_state``,
``records.<key>``; ``[]`` stands for every list index), how many of the
command's reports it moved in, and its largest absolute move, or
``changed`` where a value that is no number differs.  A ``usage`` or
``selftest`` job is its own command, labelled with its whole argv.  Then
each command with its count of byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
ROUNDS = 2
DISCIPLINES = ("measure-F-at-t2", "skip-F", "annihilate-F")

# Searches and period finding at the sizes where the in-place Fourier
# transform and oracle matter most: searches of 2^19 and 2^20 amplitudes,
# and period finding on 2^14 under every discipline with sampled trials;
# then the branches the walk slices at size: 128 and 512 F branches of
# 2^16 and 2^20 amplitudes, deferred and sampled, and 128 with F summed
# out, which pins the order in which the branches' distributions add up;
# then 10^4 trials through the sampled lookups, and 2000 annihilate-F
# trials of 513 doubles each, which span several blocks of uniforms; then
# searches with the kickback register held: 4 drawers, whose exact-zero
# amplitudes carry their signs into the dumped state, and 2^19 drawers,
# the 20-qubit ceiling, where the held kickback is written out only for
# the dumped state; then the README's mixture check, 48 full batches of
# phase draws and a 1696-draw remainder; last, the shapes where F is held
# as rows from the oracle on: three rows of 2^10 amplitudes, exact under
# every discipline and deferred, and 512 rows sampled under skip-F.
CEILING = (
    (("grover", "--n", "262144", "--json"), ("grover", "--n", "524288", "--json"))
    + tuple(
        ("shor", "--n", "10", "--base", "7", "--modulus", "15", "--discipline", discipline, "--trials", "50", "--json")
        for discipline in DISCIPLINES
    )
    + (
        ("defer-check", "--fig1", "--n", "8", "--r", "128", "--json"),
        ("defer-check", "--fig1", "--n", "10", "--r", "512", "--json"),
        ("defer-check", "--fig1", "--n", "8", "--r", "128", "--observed", "X", "--json"),
        ("shor", "--n", "10", "--r", "512", "--discipline", "measure-F-at-t2", "--trials", "100", "--json"),
    )
    + tuple(
        ("shor", "--n", "6", "--r", "5", "--discipline", discipline, "--trials", "20000", "--json")
        for discipline in ("measure-F-at-t2", "skip-F")
    )
    + (("shor", "--n", "10", "--r", "512", "--discipline", "annihilate-F", "--trials", "2000", "--json"),)
    + (("grover", "--n", "4", "--k", "3", "--json"), ("grover", "--n", "524288", "--k", "300000", "--json"))
    + (("mixture-check", "--samples", "100000", "--seed", "3", "--json"),)
    + tuple(("shor", "--n", "10", "--r", "3", "--discipline", discipline, "--json") for discipline in DISCIPLINES)
    + (
        ("shor", "--n", "10", "--r", "512", "--discipline", "skip-F", "--trials", "100", "--json"),
        ("defer-check", "--fig1", "--n", "10", "--r", "3", "--json"),
    )
)


# Argvs that print help or a usage error: what the subcommand's parser
# cannot parse (a bad value, a bad choice, two exclusive formats, a count
# below its floor, a cost range over its ceiling), what the top-level
# parser reports (a leftover argument, an instance over the ceiling, a
# period given beside a modular exponentiation, a game input, a flag the
# other arguments leave unread, no argv, an unknown subcommand), the two
# help texts, and a seed that is not a non-negative integer, from the
# environment or the flag.
USAGE = (
    ("shor", "--bogus"),
    ("shor", "--n", "x"),
    ("shor", "--discipline", "nope"),
    ("shor", "--json", "--csv"),
    ("shor", "--n", "40"),
    ("game", "--drawers", "5"),
    ("mixture-check", "--samples", "0"),
    ("cost", "--n-range", "2:1025"),
    ("shor", "--base", "7", "--modulus", "15", "--n", "4", "--r", "3"),
    ("grover", "--variant", "extended", "--n", "4", "--k", "3"),
    ("grover", "--variant", "standard", "--order", "xk"),
    ("defer-check", "--circuit", "program.json", "--auto-defer", "--n", "9", "--r", "7"),
    (),
    ("nope",),
    ("-h",),
    ("shor", "-h"),
    ("QDESK_SEED=abc", "game", "--drawers", "4"),
    ("QDESK_SEED=-2", "mixture-check", "--samples", "10"),
    ("grover", "--seed", "-1"),
    ("shor", "--trials", "5", "--seed", "-3", "--json"),
)


# Program files for defer-check: one per discipline, written from
# period_circuit(build_periodic(4, 3), discipline).to_json(); a loaded
# search, standard_circuit(GameInstance(64, 5)).to_json(), whose repeated
# body comes back as equal but distinct objects, so no step of it is
# replayed; then one per
# document the loader must refuse (a layout that is no object, a string
# instruction, a missing reg and kind, a fractional qubit count and prepare
# value, a layout over the ceiling, a measured register dephased), text that
# is no JSON, and a file that is not there.
BAD_FILES = {
    "layout-list": '{"layout": [["X", 2]], "instructions": [{"op": "measure", "reg": "X"}]}',
    "string-instruction": '{"layout": {"registers": [["X", 2]]}, "instructions": ["measure"]}',
    "no-reg": '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "measure"}]}',
    "no-kind": '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "gate", "reg": "X"}, {"op": "measure", "reg": "X"}]}',
    "fractional-qubits": '{"layout": {"registers": [["X", 2.5]]}, "instructions": [{"op": "prepare", "reg": "X", "value": 1}, {"op": "measure", "reg": "X"}]}',
    "fractional-value": '{"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "prepare", "reg": "X", "value": 1.7}, {"op": "measure", "reg": "X"}]}',
    "over-ceiling": '{"layout": {"registers": [["X", 30]]}, "instructions": [{"op": "measure", "reg": "X"}]}',
    "dephase-after-measure": '{"layout": {"registers": [["X", 1]]}, "instructions": [{"op": "measure", "reg": "X"}, {"op": "dephase", "reg": "X"}]}',
    "measured-twice-then-gated": '{"layout": {"registers": [["X", 1]]}, "instructions": [{"op": "measure", "reg": "X"}, {"op": "measure", "reg": "X"}, {"op": "gate", "kind": "hadamard", "reg": "X"}]}',
    "not-json": "not json",
}


# Each subcommand's ``--selftest`` listing at seed 3: its checks run routes
# that no report runs (``project``, ``backdate_outcome``), so the listing is
# digested like a report.
SELFTEST = tuple(
    (command, "--selftest", "--seed", "3") for command in ("shor", "grover", "game", "defer-check", "cost", "mixture-check")
)


def file_jobs(work: Path) -> list[tuple[str, ...]]:
    """The ``defer-check`` jobs on program files, written into ``work``:
    each valid file deferred, measure-F against skip-F, and skip-F against
    annihilate-F; the loaded search deferred with X observed; then each
    file of ``BAD_FILES`` and a missing one, deferred, and the order-rule
    file given as ``--against``."""
    from qdesk.grover import GameInstance, standard_circuit
    from qdesk.shor import DISCIPLINES, build_periodic, period_circuit

    for discipline in DISCIPLINES:
        doc = period_circuit(build_periodic(4, 3), discipline).to_json()
        (work / f"{discipline}.json").write_text(json.dumps(doc))
    search = work / "search.json"
    search.write_text(json.dumps(standard_circuit(GameInstance(64, 5)).to_json()))
    for name, text in BAD_FILES.items():
        (work / f"{name}.json").write_text(text)
    path = {name: str(work / f"{name}.json") for name in [*DISCIPLINES, *BAD_FILES, "missing"]}
    early, skip, annihilate = (path[d] for d in DISCIPLINES)
    return [
        *(("defer-check", "--circuit", path[d], "--auto-defer", "--json") for d in DISCIPLINES),
        ("defer-check", "--circuit", early, "--against", skip, "--json"),
        ("defer-check", "--circuit", skip, "--against", annihilate, "--observed", "X", "--json"),
        ("defer-check", "--circuit", str(search), "--auto-defer", "--observed", "X", "--json"),
        *(("defer-check", "--circuit", path[name], "--auto-defer", "--json") for name in [*BAD_FILES, "missing"]),
        ("defer-check", "--circuit", early, "--against", path["dephase-after-measure"], "--json"),
    ]


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _outcomes(records: bytes | None) -> bytes | None:
    if records is None:
        return None
    pairs = [(doc["register"], doc["outcome"]) for doc in map(json.loads, records.decode().splitlines())]
    return json.dumps(pairs).encode()


def _option(argv: list[str], flag: str, path: Path | None) -> Path | None:
    """The path ``argv`` gives for ``flag``; if it gives none, ``path``,
    appended to ``argv`` unless it is None."""
    if flag in argv:
        return Path(argv[argv.index(flag) + 1])
    if path is not None:
        argv += [flag, str(path)]
    return path


def run_job(job_argv: tuple[str, ...], work: Path, main, add_files: bool = True) -> dict:
    """One job run through ``main``: its argv, exit code, stdout, stderr,
    and the bytes of its dumped state and records file, each None if not
    written.  Leading ``NAME=value`` words set the environment of the run."""
    words = list(itertools.takewhile(lambda word: "=" in word, job_argv))
    argv = list(job_argv[len(words) :])
    command = argv[0] if argv else None
    state = records = None
    if command in ("shor", "grover"):
        state = _option(argv, "--dump-state", work / "state.json" if add_files else None)
    if command == "shor":
        records = _option(argv, "--records", work / "records.jsonl" if add_files else None)
    for path in (state, records):
        if path is not None and path.exists():
            path.unlink()
    out, err = io.StringIO(), io.StringIO()
    failure = None
    environment = dict(word.split("=", 1) for word in words)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, environment):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the job goes on being digested; its traceback is shown below
            code, failure = 1, traceback.format_exc()
    if failure:
        print(failure, file=sys.stderr)
    return {
        "argv": words + [arg.replace(str(work), "<tmp>") for arg in argv],
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(str(work), "<tmp>"),
        "dump_state": _read(state) if state else None,
        "records": _read(records) if records else None,
    }


def digest(run: dict) -> dict:
    return {
        "argv": run["argv"],
        "exit": run["exit"],
        "stdout": _sha(run["stdout"].encode()),
        "stderr": _sha(run["stderr"].encode()),
        "dump_state": _sha(run["dump_state"]),
        "records": _sha(run["records"]),
        "record_outcomes": _sha(_outcomes(run["records"])),
    }


def all_runs(work: Path, main):
    """(workload, round, run) for every job in order; a ``shor`` or
    ``grover`` job runs twice, the second time as the workload gives it."""
    import jobs

    every = [(workload, index, job.argv) for workload in jobs.WORKLOADS for index in range(ROUNDS)
             for job in jobs.make_round(workload, SEED, index, work)]
    every += [("ceiling", 0, argv) for argv in CEILING]
    every += [("files", 0, argv) for argv in file_jobs(work)]
    for workload, index, argv in every:
        yield workload, index, run_job(argv, work, main)
        if argv[0] in ("shor", "grover"):
            yield workload, index, run_job(argv, work, main, add_files=False)
    for argv in USAGE:
        yield "usage", 0, run_job(argv, work, main, add_files=False)
    for argv in SELFTEST:
        yield "selftest", 0, run_job(argv, work, main, add_files=False)


def keep(workload: str, run: dict, where: Path, k: int) -> None:
    """Write one run's workload, argv, exit code, stdout and stderr to
    ``where/k.json``, and its dumped state and records, if any, beside it."""
    fields = {key: run[key] for key in ("argv", "exit", "stdout", "stderr")}
    (where / f"{k}.json").write_text(json.dumps({"workload": workload} | fields))
    for key in ("dump_state", "records"):
        if run[key] is not None:
            (where / f"{k}.{key}").write_bytes(run[key])


def _leaves(value, path: str):
    """(path, leaf) for every leaf of a JSON value; ``[]`` marks a list index."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, f"{path}[]")
    else:
        yield path, value


def _fields(where: Path, k: int) -> tuple[str, list[str], dict[str, list]]:
    """One kept run's workload, argv and fields: path -> leaves, in order."""
    run = json.loads((where / f"{k}.json").read_text())
    try:
        stdout = json.loads(run["stdout"])
    except json.JSONDecodeError:
        stdout = run["stdout"]
    fields = defaultdict(list)
    fields["exit"].append(run["exit"])
    fields["stderr"].append(run["stderr"])
    for path, leaf in _leaves(stdout, "stdout"):
        fields[path].append(leaf)
    state = where / f"{k}.dump_state"
    if state.exists():
        fields["dump_state"] = np.array(json.loads(state.read_bytes())["amplitudes"], dtype=np.float64)
    records = where / f"{k}.records"
    if records.exists():
        for line in records.read_text().splitlines():
            for path, leaf in _leaves(json.loads(line), "records"):
                fields[path].append(leaf)
    return run["workload"], run["argv"], fields


def _move(old: list | np.ndarray, new: list | np.ndarray) -> float | str | None:
    """The largest absolute move between two lists of leaves, or two dumped
    states' arrays; ``changed`` where a leaf that is no number differs or
    the two differ in length; None where nothing moved."""
    if isinstance(old, np.ndarray) or isinstance(new, np.ndarray):
        old, new = np.asarray(old, dtype=np.float64), np.asarray(new, dtype=np.float64)
        if old.shape != new.shape:
            return "changed"
        return None if np.array_equal(old, new) else float(np.abs(old - new).max())
    if old == new:
        return None
    if len(old) != len(new) or not all(type(v) in (int, float) for v in old + new):
        return "changed"
    return float(np.abs(np.subtract(old, new, dtype=np.float64)).max())


def compare(old_dir: Path, new_dir: Path) -> list[str]:
    """The moved fields between two kept runs of the same jobs, as lines."""
    moved: dict[tuple[str, str], list] = defaultdict(list)
    reports: dict[str, list[bool]] = defaultdict(list)
    for k in range(len(list(old_dir.glob("*.json")))):
        workload, argv, old = _fields(old_dir, k)
        _, new_argv, new = _fields(new_dir, k)
        assert argv == new_argv, (argv, new_argv)
        if workload in ("usage", "selftest"):
            label = f"{workload} [{' '.join(argv)}]"
        else:
            label = " ".join([argv[0]] + [f"{flag} {argv[argv.index(flag) + 1]}" for flag in ("--variant", "--discipline") if flag in argv])
        same = all((old_dir / f"{k}.{x}").read_bytes() == (new_dir / f"{k}.{x}").read_bytes()
                   for x in ("json", "dump_state", "records") if (old_dir / f"{k}.{x}").exists())
        reports[label].append(same)
        for path in sorted(old.keys() | new.keys()):
            move = _move(old.get(path, []), new.get(path, []))
            if move is not None:
                moved[label, path].append(move)
    lines = []
    for (label, path), moves in sorted(moved.items()):
        numbers = [m for m in moves if m != "changed"]
        largest = f"largest move {max(numbers):.2g}" if numbers else ""
        changed = f"changed in {len(moves) - len(numbers)}" if len(numbers) < len(moves) else ""
        lines.append(f"{label}: {path} moved in {len(moves)} of {len(reports[label])} reports; "
                     + ", ".join(filter(None, (largest, changed))))
    for label, same in sorted(reports.items()):
        lines.append(f"{label}: {sum(same)} of {len(same)} reports byte-identical")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="qdesk source directory")
    parser.add_argument("--against", type=Path, help="compare with the qdesk source directory of another tree")
    parser.add_argument("--keep", type=Path, help="write each run's outputs into this directory instead of digests")
    args = parser.parse_args(argv)
    if args.against:
        with tempfile.TemporaryDirectory(prefix="report-moves-") as tmp:
            sides = {"old": args.against, "new": args.src}
            for side, src in sides.items():
                (Path(tmp) / side).mkdir()
                subprocess.run([sys.executable, __file__, "--src", str(src), "--keep", str(Path(tmp) / side)], check=True)
            print("\n".join(compare(Path(tmp) / "old", Path(tmp) / "new")))
        return 0
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    os.environ["COLUMNS"] = "80"
    sys.dont_write_bytecode = True  # leave no cache files beside jobs.py
    from qdesk.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        for k, (workload, index, run) in enumerate(all_runs(Path(tmp), cli_main)):
            if args.keep:
                keep(workload, run, args.keep, k)
            else:
                print(json.dumps({"workload": workload, "round": index} | digest(run), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
