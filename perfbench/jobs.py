"""Seeded job mixes for the three workloads.

A workload is an endless sequence of rounds.  Every round of a workload
holds the same jobs in cost terms: the same subcommands at the same sizes.
The workload seed and the round index only shuffle their order and choose
the values that leave the work unchanged: the CLI ``--seed`` of each job,
hidden drawers, measurement orders, and which sampled jobs write
``--records``.  A run measures whole rounds, so two runs of one workload
measure the same mix whatever their seeds.

Each job carries its argv and the spec its oracle needs; the program sees
only the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

WORKLOADS = ("period-exact", "period-sampled", "drawer-games")

DISCIPLINES = ("measure-F-at-t2", "skip-F", "annihilate-F")

SAMPLED_TRIALS = 200
MIXTURE_SAMPLES = 20_000
COST_RANGE = (2, 16)


@dataclass(frozen=True)
class Job:
    """One CLI report: its argv, and what the oracle needs to check it."""

    argv: tuple[str, ...]
    spec: dict = field(hash=False)

    @property
    def shape(self) -> tuple:
        """Jobs of one shape run the same kernels at the same sizes."""
        return self.spec["shape"]


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _shor(rng: random.Random, n: int, discipline: str, *, r: int | None = None,
          modexp: tuple[int, int] | None = None, trials: int = 0,
          records: str | None = None) -> Job:
    seed = _cli_seed(rng)
    argv = ["shor", "--n", str(n)]
    if modexp is None:
        argv += ["--r", str(r)]
    else:
        argv += ["--base", str(modexp[0]), "--modulus", str(modexp[1])]
    argv += ["--discipline", discipline, "--seed", str(seed), "--json"]
    if trials:
        argv += ["--trials", str(trials)]
    if records:
        argv += ["--records", records]
    spec = {
        "cmd": "shor", "n": n, "r": r, "modexp": modexp, "discipline": discipline,
        "seed": seed, "trials": trials, "records": records,
        "shape": ("shor", n, modexp is not None),
    }
    return Job(tuple(argv), spec)


def _defer_check(rng: random.Random, n: int, r: int) -> Job:
    seed = _cli_seed(rng)
    argv = ("defer-check", "--fig1", "--n", str(n), "--r", str(r), "--seed", str(seed), "--json")
    return Job(argv, {"cmd": "defer-check", "n": n, "r": r, "seed": seed, "shape": ("defer-check", n)})


def period_exact(rng: random.Random, scratch: Path, index: int) -> list[Job]:
    """53 exact reports, about 15 s per round on a 2-core Xeon.

    The n=9 states and the two larger moduli run under skip-F only: under
    the other disciplines one such report takes 1-4 s, which would make a
    single report a tenth of a run.
    """
    jobs = []
    for discipline in DISCIPLINES:
        for r in (3, 4, 5, 6, 8, 16):
            jobs.append(_shor(rng, 8, discipline, r=r))
        for r in (16, 32, 64):
            jobs.append(_shor(rng, 7, discipline, r=r))
        for pair in ((7, 15), (2, 21)):
            jobs.append(_shor(rng, 10, discipline, modexp=pair))
    for r in (4, 8):
        jobs.append(_shor(rng, 9, "skip-F", r=r))
    for pair in ((2, 33), (5, 39)):
        jobs.append(_shor(rng, 10, "skip-F", modexp=pair))
    for _ in range(2):
        for n in (5, 6):
            for r in (4, 8, 16, 32):
                jobs.append(_defer_check(rng, n, r))
    rng.shuffle(jobs)
    return jobs


def period_sampled(rng: random.Random, scratch: Path, index: int) -> list[Job]:
    """27 sampled reports of 200 trials each; one job per input size writes
    its measurement records."""
    jobs = []
    for n in (4, 5, 6):
        group = [(discipline, r) for discipline in DISCIPLINES for r in (3, 4, 8)]
        writer = rng.randrange(len(group))
        for i, (discipline, r) in enumerate(group):
            records = str(scratch / f"records-{index}-{n}-{i}.jsonl") if i == writer else None
            jobs.append(_shor(rng, n, discipline, r=r, trials=SAMPLED_TRIALS, records=records))
    rng.shuffle(jobs)
    return jobs


def drawer_games(rng: random.Random, scratch: Path, index: int) -> list[Job]:
    """24 search, game, mixture and cost reports.

    The counts per size place the median inside the 4096-drawer searches
    and the 90th percentile inside the 16384-drawer ones, so neither
    percentile sits on the edge between two job sizes.
    """
    jobs = []
    for drawers, count in ((1024, 2), (4096, 8), (16384, 4)):
        for _ in range(count):
            k = rng.randrange(drawers)
            seed = _cli_seed(rng)
            argv = ("grover", "--n", str(drawers), "--k", str(k), "--seed", str(seed), "--json")
            jobs.append(Job(argv, {"cmd": "grover", "drawers": drawers, "k": k, "seed": seed,
                                   "shape": ("grover", drawers)}))
    for order in ("kx", "xk"):
        seed = _cli_seed(rng)
        argv = ("grover", "--n", "4", "--variant", "extended", "--order", order,
                "--seed", str(seed), "--json")
        jobs.append(Job(argv, {"cmd": "grover-extended", "order": order, "seed": seed,
                               "shape": ("grover-extended",)}))
    seed = _cli_seed(rng)
    argv = ("mixture-check", "--samples", str(MIXTURE_SAMPLES), "--seed", str(seed), "--json")
    jobs.append(Job(argv, {"cmd": "mixture-check", "samples": MIXTURE_SAMPLES, "seed": seed,
                           "shape": ("mixture-check",)}))
    for drawers, per_strategy in ((4096, 2), (65536, 1)):
        for strategy in ("joint", "unilateral"):
            for _ in range(per_strategy):
                k = rng.randrange(drawers)
                argv = ("game", "--drawers", str(drawers), "--strategy", strategy, "--k", str(k), "--json")
                jobs.append(Job(argv, {"cmd": "game", "drawers": drawers, "strategy": strategy,
                                       "k": k, "shape": ("game", drawers)}))
    lo, hi = COST_RANGE
    jobs.append(Job(("cost", "--n-range", f"{lo}:{hi}", "--json"),
                    {"cmd": "cost", "lo": lo, "hi": hi, "shape": ("cost",)}))
    rng.shuffle(jobs)
    return jobs


_MIXES = {
    "period-exact": period_exact,
    "period-sampled": period_sampled,
    "drawer-games": drawer_games,
}


def make_round(workload: str, seed: int, index: int, scratch: Path) -> list[Job]:
    """Round ``index`` of a workload; the same arguments give the same jobs."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _MIXES[workload](rng, scratch, index)


def rounds(workload: str, seed: int, scratch: Path) -> Iterator[list[Job]]:
    index = 0
    while True:
        yield make_round(workload, seed, index, scratch)
        index += 1
