"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS/FAIL line per criterion alongside the pytest verdicts.  A criterion
that a ``--selftest`` check already makes runs that check by name, so each
invariant and its tolerance live in one place; the independent oracles
(brute-force success, ``Fraction`` extraction) stay here.
"""

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from qdesk import (
    PhasedMixture,
    PureState,
    analytic_average_density,
    average_density,
    build_periodic,
    exact_outcome_distribution,
    RegisterLayout,
    run_classical_game,
    single_run_success_probability,
)
from qdesk.cli import main as cli_main
from qdesk.selftest import SUITES
from qdesk.shor import divisors


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


def selftest_check(suite, name):
    """Run one check of a ``--selftest`` suite by name, at the CLI's
    default seed; a failed assertion propagates."""
    dict(SUITES[suite](np.random.default_rng(0)))[name]()


def euler_phi(r):
    return sum(1 for j in range(1, r + 1) if math.gcd(j, r) == 1)


def brute_force_success_probability(n, r):
    """Independent oracle: scalar-arithmetic branch enumeration plus
    Fraction-based extraction."""
    size = 1 << n
    total = 0.0
    for fbar in range(r):
        preimage = [x for x in range(size) if x % r == fbar]
        weight = len(preimage) / size
        for c in range(size):
            amp = sum(cmath.exp(2j * cmath.pi * c * x / size) for x in preimage)
            amp /= math.sqrt(size * len(preimage))
            if c != 0 and Fraction(c, size).denominator == r:
                total += weight * abs(amp) ** 2
    return total


@criterion(1, "4-drawer search is exact for every hidden drawer")
def test_criterion_1_grover_exactness():
    selftest_check("grover", "4-drawer game lands exactly on the hidden drawer")


@criterion(2, "extended game jointly determines the drawer, either order, 100 phase draws")
def test_criterion_2_joint_determination():
    selftest_check("grover", "joint outcomes are diagonal-uniform in either order")


@criterion(3, "measure-early, skip, and annihilate disciplines agree exactly (n <= 6)")
def test_criterion_3_deferred_measurement_equivalence():
    selftest_check("shor", "all three disciplines share one exact [X] distribution")


@criterion(4, "backdated terminal outcomes equal the early projection (n <= 5)")
def test_criterion_4_backdating_equivalence():
    selftest_check("circuit", "backdated outcomes equal direct early projection")


@criterion(5, "outcome support and single-run success follow the phi(r)/r law")
def test_criterion_5_shor_support_and_success():
    inst = build_periodic(3, 4)
    probs = exact_outcome_distribution(inst, "skip-F")
    assert np.allclose(probs[[0, 2, 4, 6]], 0.25, atol=1e-12)
    assert probs[[1, 3, 5, 7]].max() < 1e-12
    assert single_run_success_probability(inst) == pytest.approx(euler_phi(4) / 4, abs=1e-12)

    strong_instances = []
    for n in range(1, 7):
        for r in divisors(1 << n):
            p = single_run_success_probability(build_periodic(n, r))
            if r == 1:
                # c = 0 is the only outcome and carries no candidate
                assert p == 0.0
                continue
            law = euler_phi(r) / r
            assert p == pytest.approx(law, abs=1e-12)
            assert p == pytest.approx(brute_force_success_probability(n, r), abs=1e-12)
            if law >= 0.5:
                strong_instances.append((n, r))
    assert strong_instances, "some instances should reach the 1/2 mark"
    print(f"  single-run success >= 0.5 for (n, r) in {strong_instances}")


@criterion(6, "random-phase representation reproduces the exact mixtures")
def test_criterion_6_random_phase_representation():
    layout = RegisterLayout.of(Q=1)
    for phi in (0.3, 0.6, 1.1):
        state = PureState(layout, [math.sin(phi), math.cos(phi)])
        mixture = PhasedMixture(state, "Q")
        expected = np.diag([math.sin(phi) ** 2, math.cos(phi) ** 2])
        analytic = analytic_average_density(mixture)
        assert np.abs(analytic.matrix - expected).max() < 1e-10

    phi = 0.6
    mixture = PhasedMixture(PureState(layout, [math.sin(phi), math.cos(phi)]), "Q")
    sampled = average_density(mixture, 100_000, np.random.default_rng(6))
    expected = np.diag([math.sin(phi) ** 2, math.cos(phi) ** 2])
    assert np.linalg.norm(sampled.matrix - expected) < 5e-3

    selftest_check("measure", "closed-form phase average equals the trace and F-projection ensemble")


@criterion(7, "stage costs: classical doubles, quantum stays linear and entanglement-blind")
def test_criterion_7_cost_model_stage_table():
    selftest_check("cost", "stage counts match the declared model exactly")
    selftest_check("cost", "classical/quantum filtration ratio strictly increases")
    selftest_check("cost", "quantum filtration count ignores the period")


@criterion(8, "classical game costs sqrt(n) jointly and n unilaterally")
def test_criterion_8_classical_game():
    selftest_check("grover", "query counts: sqrt(n) joint, n unilateral, floor(pi/4 sqrt(n)) quantum")
    transcript = run_classical_game(4, 2, "joint")
    assert transcript.announced_row == 1
    assert transcript.oracle_queries <= 2
    assert transcript.answered_x == 2


@criterion(9, "every subcommand's --selftest suite is green")
def test_criterion_9_property_suites(capsys):
    for command in ("shor", "grover", "game", "defer-check", "cost", "mixture-check"):
        code = cli_main([command, "--selftest"])
        out = capsys.readouterr().out
        assert code == 0, f"{command} --selftest failed:\n{out}"
        assert "FAIL" not in out
