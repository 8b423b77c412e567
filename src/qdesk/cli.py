"""Command-line front end.

Subcommands: shor, grover, game, defer-check, cost, mixture-check.  Every
run is seeded (flag, else the QDESK_SEED environment variable, else 0) and
every report carries its seed.  JSON output is the stable contract; text
and csv are conveniences.  Exit codes: 0 ok, 1 internal failure, 2 usage,
a program file that cannot be read, parsed or loaded, or out of memory (one
``error:`` line, no traceback).

``main`` may be called many times in one process: the parser is built once,
on the first call, and every call parses its own argv into a fresh namespace.

When argv[0] names a subcommand, that subcommand's parser parses the rest
of argv, so a report runs one parse; the top-level parser runs only for
help or a missing or unknown subcommand.  Leftover arguments and usage
problems found after parsing still end in the top-level parser's error,
as they would under one parse of argv.  A seed that is not a non-negative
integer, from ``--seed`` or QDESK_SEED, is one ``error:`` line and exit 2.
``--help`` shows every paragraph above this one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import circuit_ir, costmodel, grover, measure, shor
from .errors import QdeskError
from .gates import modexp_output_bits
from .qstate import MAX_QUBITS, PureState, collector_paused
from .selftest import run_selftest

DEFAULT_SEED_ENV = "QDESK_SEED"


class _UsageError(Exception):
    """An input a command cannot use, found after parsing: ``main`` prints
    one ``error:`` line and exits 2."""


def _seed(args: argparse.Namespace) -> int:
    """The run's seed: ``--seed``, else QDESK_SEED, else 0; one that is not
    a non-negative integer is a usage error."""
    if args.seed is not None:
        name, raw = "--seed", args.seed
    else:
        name, raw = DEFAULT_SEED_ENV, os.environ.get(DEFAULT_SEED_ENV) or "0"
    try:
        seed = int(raw)
    except ValueError:
        seed = -1  # refused below, as a negative seed is
    if seed < 0:
        raise _UsageError(f"{name} must be a non-negative integer, got {raw!r}")
    return seed


def non_negative_int(raw: str, low: int = 0) -> int:
    value = int(raw)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(raw: str) -> int:
    return non_negative_int(raw, low=1)


MAX_DRAWER_QUBITS = MAX_QUBITS - 1  # and the kickback qubit

# A sampled trial keeps an outcome and a probability, 8 bytes each, for
# each of at most two measured registers: the trial arrays stay within
# 512 MiB.
MAX_TRIALS = (1 << 29) // (2 * 2 * 8)

# A Monte Carlo sample draws one phase per slot of the mixture, four in
# mixture-check: the draws stay within 2^26 doubles, seconds of work.
MAX_SAMPLES = (1 << 26) // 4

# The cost table's classical counts are 2^n, about 0.3 n digits, in three
# rows per n, so its report grows as HI^2: --n-range 2:1024 prints 0.66 MiB
# of JSON.
MAX_COST_N = 1024


def drawer_count(raw: str) -> int:
    """A power of two from 2 to 2^MAX_DRAWER_QUBITS, checked before any table is built."""
    value = int(raw)
    if value < 2 or value > 1 << MAX_DRAWER_QUBITS or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"must be a power of two from 2 to {1 << MAX_DRAWER_QUBITS}, got {value}"
        )
    return value


def _instance_problem(n: int, period: int | None, modulus: int | None) -> str | None:
    """Why a period-finding instance is out of range, if it is: checked
    before any table is built.  ``period`` is None for the default one."""
    output_bits = n if modulus is None else modexp_output_bits(modulus)
    if n + output_bits > MAX_QUBITS:
        return (
            f"--n {n} with {output_bits} output bits needs {n + output_bits} qubits, "
            f"more than {MAX_QUBITS}"
        )
    if period is not None and not 1 <= period <= 1 << n:
        return f"--r must be in 1..{1 << n}, got {period}"
    return None


def _game_problem(args: argparse.Namespace) -> str | None:
    """Why a drawer-game input is out of range, or a flag is given that the
    variant does not read, if one is: checked before any table or state is
    built."""
    if args.command == "grover" and args.variant == "extended" and args.k is not None:
        return "--k cannot be given with --variant extended: the hider's choice is the mode register"
    if args.command == "grover" and args.variant == "standard" and args.order is not None:
        return "--order cannot be given with --variant standard: it measures one register"
    if args.command == "grover" and args.variant == "extended" and args.n != 4:
        return f"--variant extended needs --n 4, got {args.n}"
    if args.command == "mixture-check" and args.n != 4:
        return f"--n must be 4, got {args.n}"
    if args.command == "mixture-check" and args.samples > MAX_SAMPLES:
        return f"--samples must be at most {MAX_SAMPLES}, got {args.samples}"
    if args.command == "grover" and args.variant == "standard" and not 0 <= (args.k or 0) < args.n:
        return f"--k must be in 0..{args.n - 1}, got {args.k}"
    if args.command != "game":
        return None
    if args.drawers < 1:
        return f"--drawers must be >= 1, got {args.drawers}"
    if not 0 <= args.k < args.drawers:
        return f"--k must be in 0..{args.drawers - 1}, got {args.k}"
    if args.strategy == "joint" and math.isqrt(args.drawers) ** 2 != args.drawers:
        return f"--strategy joint needs a square --drawers, got {args.drawers}"
    return None


def _modexp_problem(base: int | None, modulus: int | None, period: int | None) -> str | None:
    """Why a modular-exponentiation instance is invalid, if it is: checked
    before any table is built, as ``gates.modexp_table`` checks it for
    library callers.  Its period is the base's order, so a given ``--r``
    is refused rather than ignored."""
    if (base is None) != (modulus is None):
        return "--base and --modulus must be given together"
    if modulus is not None and period is not None:
        return "--r cannot be given with --base and --modulus: the period is the order of the base"
    if modulus is not None and (modulus < 2 or math.gcd(base, modulus) != 1):
        return f"need gcd(--base, --modulus) = 1 and --modulus >= 2, got {base}, {modulus}"
    return None


def _observed_names(raw: str) -> tuple[str, ...]:
    """The register names of a comma-separated ``--observed``, blanks dropped."""
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _observed_problem(raw: str | None) -> str | None:
    """Why ``--observed`` names no register, or one twice, if it does."""
    if raw is None:
        return None
    names = _observed_names(raw)
    if not names:
        return f"--observed names no register, got {raw!r}"
    twice = sorted({name for name in names if names.count(name) > 1})
    if twice:
        return f"--observed names {', '.join(twice)} more than once"
    return None


def _usage_problem(args: argparse.Namespace) -> str | None:
    if args.command == "shor":
        problem = _modexp_problem(args.base, args.modulus, args.r) or _instance_problem(args.n, args.r, args.modulus)
        if not problem and args.trials > MAX_TRIALS:
            problem = f"--trials must be at most {MAX_TRIALS}, got {args.trials}"
    elif args.command == "defer-check":
        # --n and --r size the built-in program, 2 and 2 where not given
        fig1 = _instance_problem(args.n or 2, 2 if args.r is None else args.r, None) if args.fig1 else None
        unread = " and ".join(flag for flag in ("--n", "--r") if not args.fig1 and getattr(args, flag[2:]) is not None)
        problem = _observed_problem(args.observed) or fig1
        problem = problem or (unread and f"{unread} cannot be given without --fig1: a program file has its own size")
    else:
        problem = _game_problem(args)
    return f"{args.command}: {problem}" if problem else None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: $QDESK_SEED or 0)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable JSON report")
    fmt.add_argument("--csv", action="store_true", help="delimited report")
    fmt.add_argument("--text", action="store_true", help="human-readable report (default)")
    parser.add_argument(
        "--selftest", action="store_true", help="run this subcommand's invariant suite and exit"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built on the first call; its ``commands`` maps
    each subcommand's name to the parser it hands that subcommand's
    arguments to."""
    # the help text is the module docstring without its last paragraph
    parser = argparse.ArgumentParser(prog="qdesk", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("shor", help="period finding under a measurement discipline")
    p.add_argument("--n", type=positive_int, default=3, help="input register qubits")
    p.add_argument("--r", type=int, default=None, help="hidden period of the synthetic instance")
    p.add_argument("--base", type=int, default=None, help="modular-exponentiation base")
    p.add_argument("--modulus", type=int, default=None, help="modular-exponentiation modulus")
    p.add_argument("--discipline", choices=shor.DISCIPLINES, default="skip-F")
    p.add_argument("--trials", type=non_negative_int, default=0, help="sampled runs for the empirical rate")
    p.add_argument("--dump-state", metavar="PATH", help="write the pre-measurement state as JSON")
    p.add_argument("--records", metavar="PATH", help="write measurement records as JSON lines")
    _add_common(p)

    p = sub.add_parser("grover", help="quantum drawer search, standard or mode-extended")
    p.add_argument("--n", type=drawer_count, default=4, help="number of drawers (power of two, 2..2^19)")
    p.add_argument("--k", type=int, default=None, help="hidden drawer (standard variant)")
    p.add_argument("--variant", choices=("standard", "extended"), default="standard")
    p.add_argument("--order", choices=("kx", "xk"), default=None, help="extended measurement order")
    p.add_argument("--dump-state", metavar="PATH", help="write the pre-measurement state as JSON")
    _add_common(p)

    p = sub.add_parser("game", help="classical drawer search on a square chest")
    p.add_argument("--drawers", type=int, default=4)
    p.add_argument("--k", type=int, default=0, help="hidden drawer")
    p.add_argument("--strategy", choices=grover.STRATEGIES, default="joint")
    _add_common(p)

    p = sub.add_parser("defer-check", help="prove a deferral rewrite observationally sound")
    p.add_argument("--circuit", metavar="PATH", help="program JSON file")
    p.add_argument("--against", metavar="PATH", help="second program JSON file to compare")
    p.add_argument("--auto-defer", action="store_true", help="compare against the deferred rewrite")
    p.add_argument("--fig1", action="store_true", help="use the built-in period-finding program")
    p.add_argument("--n", type=positive_int, default=None, help="built-in program: input qubits")
    p.add_argument("--r", type=int, default=None, help="built-in program: hidden period")
    p.add_argument("--observed", help="comma-separated registers (default: measured in both)")
    _add_common(p)

    p = sub.add_parser("cost", help="classical vs quantum stage cost table")
    p.add_argument("--n-range", type=_parse_n_range, default="2:10", help="inclusive range, e.g. 2:10")
    _add_common(p)

    p = sub.add_parser("mixture-check", help="random-phase mixture vs uniform classical mixture")
    p.add_argument("--n", type=int, default=4, help="number of drawers (4)")
    p.add_argument("--samples", type=positive_int, default=100_000)
    _add_common(p)

    return parser


def _indented_json(value, outer: str = "\n") -> str:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2)`` (dict keys
    are strings), from the C encoder: ``indent`` runs ``json``'s Python one.
    A container that holds no container is one C-encoder call whose item
    separator carries the newline and indent; ``outer`` is the newline and
    indent of the line that closes ``value``."""
    containers = (dict, list, tuple)
    if not isinstance(value, containers) or not value:
        return json.dumps(value)
    pad = outer + "  "
    items = value.values() if isinstance(value, dict) else value
    if not any(issubclass(kind, containers) for kind in set(map(type, items))):
        body = json.dumps(value, sort_keys=True, separators=("," + pad, ": "))
    elif isinstance(value, dict):
        parts = [f"{json.dumps(key)}: {_indented_json(value[key], pad)}" for key in sorted(value)]
        body = "{" + ("," + pad).join(parts) + "}"
    else:
        body = "[" + ("," + pad).join(_indented_json(item, pad) for item in value) + "]"
    return body[0] + pad + body[1:-1] + outer + body[-1]


def _emit(report: dict, args: argparse.Namespace) -> None:
    """Print the report as JSON, CSV or text; a report with ``rows`` (the
    cost table) is its rows as CSV, one column per key."""
    if args.json:
        print(_indented_json(report))
    elif args.csv:
        out = io.StringIO()
        writer = csv.writer(out)
        if "rows" in report:
            writer.writerow(report["rows"][0])
            writer.writerows(row.values() for row in report["rows"])
        else:
            writer.writerow(["key", "value"])
            for key in sorted(report):
                value = report[key]
                writer.writerow([key, json.dumps(value) if isinstance(value, (dict, list)) else value])
        sys.stdout.write(out.getvalue())
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


def _shor_instance(args: argparse.Namespace) -> shor.PeriodFindingInstance:
    if args.modulus is not None:
        return shor.build_modexp(args.base, args.modulus, args.n)
    period = args.r if args.r is not None else (1 << args.n) // 2
    return shor.build_periodic(args.n, period)


# Amplitudes per chunk of a dumped state: 4096 pairs of floats, about
# 0.6 MiB of lists and text at a time.
DUMP_CHUNK = 1 << 12


# Trials per block of a records file: at most 8192 lines of text at a time.
RECORD_CHUNK = 1 << 12


def _dump_state(path: str, state: PureState) -> None:
    """Write the bytes ``json.dump(state.to_json(), fh)`` writes, a chunk of
    amplitudes at a time: each chunk's ``[re, im]`` pairs are built from the
    float64 view and encoded by ``json.dumps``, which runs the C encoder
    (``json.dump`` runs the Python one), so the writer holds one chunk's
    lists and text, not the whole state's, with the cyclic garbage
    collector paused as ``to_json`` pauses it."""
    pairs = state.amplitudes.view(np.float64).reshape(-1, 2)
    head = json.dumps({"layout": state.layout.to_json(), "amplitudes": []})
    with open(path, "w") as fh, collector_paused():
        fh.write(head[: -len("]}")])
        for start in range(0, len(pairs), DUMP_CHUNK):
            fh.write(", " if start else "")
            fh.write(json.dumps(pairs[start : start + DUMP_CHUNK].tolist())[1:-1])
        fh.write("]}")


def _cmd_shor(args: argparse.Namespace, seed: int) -> dict:
    inst = _shor_instance(args)
    if args.trials > 0:
        # before the exact distribution: the trials' one pass from the start
        # memoises each inert dephasing's support, which they read and the
        # enumeration does not
        registers, outcomes, probabilities = shor.sample_trials(inst, args.discipline, args.trials, np.random.default_rng(seed))
    distribution = shor.exact_outcome_distribution(inst, args.discipline)
    report = {
        "n": inst.n,
        "r": inst.period,
        "r_divides_space": inst.period_divides,
        "discipline": args.discipline,
        "seed": seed,
        "distribution": distribution.tolist(),
        "success_probability_exact": shor.single_run_success_probability(inst, distribution),
        "trials": args.trials,
        "success_rate_empirical": None,
    }
    if args.trials > 0:
        report["success_rate_empirical"] = shor.success_count(inst, outcomes[:, registers.index("X")]) / args.trials
    if args.records:
        # a block of trials at a time, so the text held stays bounded; with
        # no trials the file is left empty
        with open(args.records, "w") as fh:
            for start in range(0, args.trials, RECORD_CHUNK):
                block = slice(start, start + RECORD_CHUNK)
                fh.write(measure.record_lines(registers, outcomes[block], probabilities[block], seed))
    if args.dump_state:
        # the program up to t4 only: the X and F draws after it would cost
        # annihilate-F a second, unphased QFT that the dump never reads
        program = shor.period_circuit(inst, args.discipline)
        head = circuit_ir.CircuitProgram(inst.layout, program.instructions[: program.time_tags["t4"]])
        _dump_state(args.dump_state, circuit_ir.run(head, np.random.default_rng(seed)).final_state)
    return report


def _cmd_grover(args: argparse.Namespace, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if args.variant == "standard":
        k = args.k or 0
        trace, transcript = grover.run_standard_grover(grover.GameInstance(args.n, k), rng)
        report = {
            "variant": "standard",
            "n": args.n,
            "k": k,
            "seed": seed,
            "oracle_queries": transcript.oracle_queries,
            "announced_k": transcript.announced_k,
            "answered_x": transcript.answered_x,
            "hit_probability": transcript.hit_probability,
        }
        if args.dump_state:  # the only reader of the pre-measurement state
            _dump_state(args.dump_state, trace.state_at_tag("pre"))
    else:
        order = args.order or "kx"
        pre, transcript = grover.run_extended_grover(args.n, rng, order=order)
        joint = grover.sequential_joint_distribution(pre, "K", "X")
        report = {
            "variant": "extended",
            "n": args.n,
            "order": order,
            "seed": seed,
            "oracle_queries": transcript.oracle_queries,
            "announced_k": transcript.announced_k,
            "answered_x": transcript.answered_x,
            "joint_distribution": {f"{k},{x}": p for (k, x), p in sorted(joint.items())},
        }
        if args.dump_state:
            _dump_state(args.dump_state, pre)
    return report


def _cmd_game(args: argparse.Namespace, seed: int) -> dict:
    transcript = grover.run_classical_game(args.drawers, args.k, args.strategy)
    return {
        "drawers": args.drawers,
        "k": args.k,
        "strategy": args.strategy,
        "seed": seed,
        "oracle_queries": transcript.oracle_queries,
        "announced_row": transcript.announced_row,
        "found_drawer": transcript.answered_x,
        "worst_case_queries": grover.classical_worst_case_queries(args.drawers, args.strategy),
    }


def _load_program(path: str) -> circuit_ir.CircuitProgram:
    """The program in a JSON file; a file that cannot be read, parsed or
    loaded is a usage error."""
    try:
        with open(path) as fh:
            return circuit_ir.CircuitProgram.from_json(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # JSON's errors and ProgramError are ValueErrors
        raise _UsageError(f"{path}: {exc}") from None


def _cmd_defer_check(args: argparse.Namespace, seed: int) -> dict:
    if not (args.fig1 or args.circuit):
        raise _UsageError("need --circuit FILE or --fig1")
    if not (args.fig1 or args.against or args.auto_defer):
        raise _UsageError("need --against FILE or --auto-defer")
    if args.fig1:
        program = shor.period_circuit(shor.build_periodic(args.n or 2, 2 if args.r is None else args.r), "measure-F-at-t2")
    else:
        program = _load_program(args.circuit)
    other = _load_program(args.against) if args.against else circuit_ir.defer_measurements(program)
    if args.observed is not None:
        observed = _observed_names(args.observed)
    else:
        observed = tuple(sorted(set(program.measured_registers()) & set(other.measured_registers())))
        if not observed:
            raise QdeskError("the two programs share no measured registers")
    distance = circuit_ir.equivalent_distributions(program, other, observed)
    return {
        "seed": seed,
        "observed": list(observed),
        "tv_distance": distance.value,
        "instructions": len(program.instructions),
        "instructions_rewritten": len(other.instructions),
    }


def _parse_n_range(raw: str) -> list[int]:
    """``--n-range``'s type: an inclusive ``LO:HI`` (or ``N``), 1 <= LO <= HI
    <= ``MAX_COST_N``."""
    lo, _, hi = raw.partition(":")
    try:
        low, high = int(lo), int(hi if hi else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {raw!r}") from None
    if not 1 <= low <= high:
        raise argparse.ArgumentTypeError(f"expected 1 <= LO <= HI, got {raw!r}")
    if high > MAX_COST_N:
        raise argparse.ArgumentTypeError(f"expected HI <= {MAX_COST_N}, got {raw!r}")
    return list(range(low, high + 1))


def _cmd_cost(args: argparse.Namespace, seed: int) -> dict:
    return {"seed": seed, "rows": [asdict(row) for row in costmodel.stage_table(args.n_range)]}


def _cmd_mixture_check(args: argparse.Namespace, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    analytic = grover.mixture_equivalence_check(args.n, "analytic")
    monte = grover.mixture_equivalence_check(args.n, "monte-carlo", samples=args.samples, rng=rng)
    correlated = grover.mixture_equivalence_check(args.n, "analytic", correlated_phases=True)
    return {
        "n": args.n,
        "seed": seed,
        "samples": args.samples,
        "analytic_distance": analytic.value,
        "monte_carlo_distance": monte.value,
        "correlated_phase_distance": correlated.value,
    }


# Each subcommand's report handler and the ``selftest`` suites its
# ``--selftest`` runs.
COMMANDS = {
    "shor": (_cmd_shor, ("qstate", "gates", "shor")),
    "grover": (_cmd_grover, ("grover",)),
    "game": (_cmd_game, ("grover",)),
    "defer-check": (_cmd_defer_check, ("circuit",)),
    "cost": (_cmd_cost, ("cost",)),
    "mixture-check": (_cmd_mixture_check, ("measure",)),
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """argv parsed as one top-level parse parses it, with the usage
    problems found after parsing reported by the top-level parser; when
    argv[0] names a subcommand, only that subcommand's parser runs."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, or a missing or unknown subcommand
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        args.command = argv[0]
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    problem = _usage_problem(args)
    if problem:
        parser.error(problem)
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        seed = _seed(args)
        handler, suites = COMMANDS[args.command]
        if args.selftest:
            ok, lines = run_selftest(suites, seed)
            for line in lines:
                print(line)
            return 0 if ok else 1
        _emit(handler(args, seed), args)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (QdeskError, OSError, ValueError, KeyError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
