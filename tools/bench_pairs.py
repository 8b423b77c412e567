"""Alternating parent/change pairs of one benchmark workload, as a markdown table.

    python3 tools/bench_pairs.py --parent PATH --workload W --pairs N --seconds S [--seed S0] [--out BENCH_W.json]

Pair i runs ``perfbench/run.py --workload W --seed S0+i --seconds S`` once
from the checkout at ``--parent`` and once from this one, each with its own
copy of the benchmark; the parent goes first in even pairs and this
checkout in odd ones, so drift of the host's speed does not favour a side.
Only the last line of each run's stdout (its JSON result) is read, and
nothing under ``perfbench/`` is changed.

The table has one row per pair with every end-to-end metric that
``BENCHMARK.json`` declares, as ``parent → change``, and the failed report
counts; then the medians, with the parent's quartiles; then the number of
pairs in which the change was better on each metric.  ``--out`` also
writes them as JSON: per metric, each side's median and quartiles and the
change's wins, with the workload, the seeds and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run from ``checkout``, parsed."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def _cell(value: float) -> str:
    return f"{value:.4g}"


def _spread(values: list[float]) -> dict:
    """The median and the inclusive quartiles of one side's values."""
    q1, q3 = statistics.quantiles(values, n=4, method="inclusive")[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(pairs: list[tuple[int, str, dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the pairs, and in
    how many pairs the change was better."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [_value(parent, name) for _, _, parent, _ in pairs]
        new = [_value(change, name) for _, _, _, change in pairs]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": _spread(old), "change": _spread(new), "change_better": wins}
    return out


def table(pairs: list[tuple[int, str, dict, dict]], metrics: list[dict]) -> str:
    """The markdown table of ``(seed, first side, parent run, change run)`` pairs."""
    names = [metric["name"] for metric in metrics]
    lines = ["| pair | seed | first | " + " | ".join(names) + " | failed |",
             "|---" * (len(names) + 4) + "|"]
    for i, (seed, first, parent, change) in enumerate(pairs):
        cells = [f"{_cell(_value(parent, name))} → {_cell(_value(change, name))}" for name in names]
        lines.append(f"| {i} | {seed} | {first} | " + " | ".join(cells)
                     + f" | {parent['failed']} → {change['failed']} |")
    medians, wins = [], []
    for name, row in summary(pairs, metrics).items():
        old, new = row["parent"], row["change"]
        spread = f" ({_cell(old['q1'])}–{_cell(old['q3'])})" if len(pairs) > 1 else ""
        medians.append(f"{_cell(old['median'])}{spread} → {_cell(new['median'])}")
        wins.append(f"{row['change_better']}/{len(pairs)}")
    failed = sum(parent["failed"] + change["failed"] for _, _, parent, change in pairs)
    lines.append("| median (parent quartiles) | | | " + " | ".join(medians) + " | |")
    lines.append("| change better | | | " + " | ".join(wins) + f" | {failed} failed in all |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the first pair")
    parser.add_argument("--out", type=Path, help="also write the medians and quartiles here, as JSON")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        pairs.append((seed, order[0], runs["parent"], runs["change"]))
        rates = " → ".join(_cell(_value(runs[side], "reports_per_s")) for side in ("parent", "change"))
        print(f"pair {i} seed {seed}: reports_per_s {rates}", file=sys.stderr, flush=True)
    print(table(pairs, metrics))
    if args.out:
        doc = {
            "workload": args.workload,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": [seed for seed, _, _, _ in pairs],
            "failed": {"parent": sum(p["failed"] for _, _, p, _ in pairs), "change": sum(c["failed"] for *_, c in pairs)},
            "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__},
            "metrics": summary(pairs, metrics),
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
