"""Output oracles the benchmark owns: each report is checked against an
answer computed here, without calling qdesk.

``check`` returns ``None`` for a correct report and a one-line reason
otherwise.  All checks run outside the timed interval.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

EXACT_ATOL = 1e-9
DEFER_TV_MAX = 1e-10


def _function_values(n: int, r: int | None, modexp: tuple[int, int] | None) -> list[int]:
    size = 1 << n
    if modexp is None:
        return [x % r for x in range(size)]
    base, modulus = modexp
    return [pow(base, x, modulus) for x in range(size)]


def _order(base: int, modulus: int) -> int:
    order, acc = 1, base % modulus
    while acc != 1:
        acc = acc * base % modulus
        order += 1
    return order


@lru_cache(maxsize=None)
def x_distribution(n: int, r: int | None, modexp: tuple[int, int] | None) -> np.ndarray:
    """Exact final [X] distribution of period finding, by one batched FFT.

    For each function value v the X register holds the indicator of
    f(x) = v; its Fourier transform's squared magnitudes, summed over v,
    give P(c).  The three disciplines must all report this distribution.
    """
    values = np.asarray(_function_values(n, r, modexp))
    size = 1 << n
    classes = np.unique(values)
    indicators = (values[None, :] == classes[:, None]).astype(float)
    spectra = np.fft.fft(indicators, axis=1)
    return (np.abs(spectra) ** 2).sum(axis=0) / size**2


def _euler_phi(value: int) -> int:
    return sum(1 for k in range(1, value + 1) if math.gcd(k, value) == 1)


def _check_records(path: str, spec: dict) -> str | None:
    lines = Path(path).read_text().splitlines()
    per_trial = 2 if spec["discipline"] == "measure-F-at-t2" else 1
    if len(lines) != spec["trials"] * per_trial:
        return f"records: {len(lines)} lines, expected {spec['trials'] * per_trial}"
    size = 1 << spec["n"]
    for line in lines:
        record = json.loads(line)
        if record["register"] not in ("X", "F") or record["seed"] != spec["seed"]:
            return f"records: bad record {record}"
        if not 0 <= record["outcome"] < size or not 0.0 < record["probability"] <= 1.0 + EXACT_ATOL:
            return f"records: bad record {record}"
    return None


def _check_shor(report: dict, spec: dict) -> str | None:
    n, r, modexp = spec["n"], spec["r"], spec["modexp"]
    period = r if modexp is None else _order(*modexp)
    size = 1 << n
    expected = {"n": n, "r": period, "r_divides_space": size % period == 0,
                "discipline": spec["discipline"], "seed": spec["seed"], "trials": spec["trials"]}
    for key, value in expected.items():
        if report[key] != value:
            return f"{key} is {report[key]!r}, expected {value!r}"
    oracle = x_distribution(n, r, modexp)
    dist = np.asarray(report["distribution"], dtype=float)
    if dist.shape != oracle.shape:
        return f"distribution has {dist.size} entries, expected {oracle.size}"
    drift = float(np.abs(dist - oracle).max())
    if drift > EXACT_ATOL:
        return f"distribution differs from the FFT oracle by {drift:.3g}"
    success = report["success_probability_exact"]
    if not -EXACT_ATOL <= success <= 1.0 + EXACT_ATOL:
        return f"success_probability_exact {success} outside [0, 1]"
    if size % period == 0 and abs(success - _euler_phi(period) / period) > EXACT_ATOL:
        return f"success_probability_exact {success}, expected phi(r)/r = {_euler_phi(period) / period}"
    if spec["trials"]:
        rate = report["success_rate_empirical"]
        # Six standard deviations of a binomial rate around the exact value.
        slack = 6.0 * math.sqrt(max(success * (1.0 - success), 0.0) / spec["trials"]) + EXACT_ATOL
        if rate is None or abs(rate - success) > slack:
            return f"success_rate_empirical {rate} is not within {slack:.3g} of {success}"
    elif report["success_rate_empirical"] is not None:
        return "success_rate_empirical set without trials"
    if spec["records"]:
        return _check_records(spec["records"], spec)
    return None


def _check_defer(report: dict, spec: dict) -> str | None:
    if report["tv_distance"] > DEFER_TV_MAX:
        return f"tv_distance {report['tv_distance']} > {DEFER_TV_MAX}"
    if report["observed"] != ["F", "X"] or report["seed"] != spec["seed"]:
        return f"observed {report['observed']}, seed {report['seed']}"
    if report["instructions"] != 6 or report["instructions_rewritten"] != 6:
        return "the fig1 program and its rewrite have 6 instructions each"
    return None


def _check_grover(report: dict, spec: dict) -> str | None:
    drawers, k = spec["drawers"], spec["k"]
    iterations = int(math.floor(math.pi / 4.0 * math.sqrt(drawers)))
    theta = math.asin(1.0 / math.sqrt(drawers))
    hit = math.sin((2 * iterations + 1) * theta) ** 2
    if abs(report["hit_probability"] - hit) > EXACT_ATOL:
        return f"hit_probability {report['hit_probability']}, expected sin^2((2t+1)theta) = {hit}"
    if report["oracle_queries"] != iterations or report["announced_k"] != k:
        return f"oracle_queries {report['oracle_queries']} / announced_k {report['announced_k']}"
    if not 0 <= report["answered_x"] < drawers:
        return f"answered_x {report['answered_x']} out of range"
    return None


def _check_extended(report: dict, spec: dict) -> str | None:
    if report["announced_k"] != report["answered_x"]:
        return f"answers disagree: k={report['announced_k']} x={report['answered_x']}"
    joint = report["joint_distribution"]
    pairs = [tuple(int(v) for v in key.split(",")) for key in joint]
    if any(k != x for k, x in pairs) or abs(sum(joint.values()) - 1.0) > EXACT_ATOL:
        return f"joint distribution is not a diagonal distribution: {joint}"
    if report["order"] != spec["order"] or report["oracle_queries"] != 1:
        return f"order {report['order']} / oracle_queries {report['oracle_queries']}"
    return None


def _check_game(report: dict, spec: dict) -> str | None:
    drawers, k = spec["drawers"], spec["k"]
    side = math.isqrt(drawers)
    if spec["strategy"] == "joint":
        worst, queries, row = side, k % side + 1, k // side
    else:
        worst, queries, row = drawers, k + 1, None
    if report["worst_case_queries"] != worst:
        return f"worst_case_queries {report['worst_case_queries']}, expected {worst}"
    if (report["found_drawer"], report["oracle_queries"], report["announced_row"]) != (k, queries, row):
        return f"transcript {report['found_drawer']}/{report['oracle_queries']}/{report['announced_row']}"
    return None


def _check_cost(report: dict, spec: dict) -> str | None:
    rows = report["rows"]
    sizes = range(spec["lo"], spec["hi"] + 1)
    if len(rows) != 3 * len(sizes):
        return f"{len(rows)} cost rows, expected {3 * len(sizes)}"
    for stage in ("function-evaluation", "filtration"):
        counts = [row["classical_units"] for row in rows if row["stage"] == stage]
        if counts[0] <= 0 or any(b != 2 * a for a, b in zip(counts, counts[1:])):
            return f"classical {stage} counts do not double: {counts}"
    return None


def _check_mixture(report: dict, spec: dict) -> str | None:
    if report["analytic_distance"] > DEFER_TV_MAX:
        return f"analytic_distance {report['analytic_distance']}"
    # Frobenius noise of a 4x4 sampled density falls as 1/sqrt(samples).
    if report["monte_carlo_distance"] > 10.0 / math.sqrt(spec["samples"]):
        return f"monte_carlo_distance {report['monte_carlo_distance']}"
    if report["correlated_phase_distance"] < 0.1:
        return f"correlated_phase_distance {report['correlated_phase_distance']}"
    return None


_CHECKS = {
    "shor": _check_shor,
    "defer-check": _check_defer,
    "grover": _check_grover,
    "grover-extended": _check_extended,
    "game": _check_game,
    "cost": _check_cost,
    "mixture-check": _check_mixture,
}


def check(spec: dict, exit_code: int, stdout: str) -> str | None:
    """``None`` if the report is right, else why it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
        return _CHECKS[spec["cmd"]](report, spec)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
