import cmath
import contextlib
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qdesk import (
    PeriodFindingInstance,
    ShapeMismatchError,
    build_modexp,
    build_periodic,
    exact_outcome_distribution,
    extract_period,
    outcome_distribution,
    single_run_success_probability,
    state_after_oracle,
)
from qdesk.circuit_ir import (
    CircuitProgram,
    Dephase,
    Measure,
    defer_measurements,
    enumerate_outcome_distribution,
    equivalent_distributions,
    sample_outcomes,
)
from qdesk import circuit_ir
from qdesk.cli import main
from qdesk.gates import fourier_axis
from qdesk.measure import PROB_EPS, MeasurementRecord
from qdesk.qstate import RegisterLayout
from qdesk.shor import (
    DISCIPLINES,
    _first_period,
    _period_instructions,
    divisors,
    period_circuit,
    sample_trials,
    success_count,
)


# n = 3..8 with r in {2, 3, 5, 7, 2^n/4 + 1, 2^n - 1} (33 distinct), and
# four modular exponentiations at n = 10
EXACTNESS_INSTANCES = [
    pytest.param(build_periodic(n, r), id=f"n{n}-r{r}")
    for n in range(3, 9)
    for r in sorted({2, 3, 5, 7, (1 << n) // 4 + 1, (1 << n) - 1})
] + [
    pytest.param(build_modexp(base, modulus, 10), id=f"{base}^x-mod-{modulus}")
    for base, modulus in ((7, 15), (2, 21), (2, 33), (5, 39))
]


# periodic instances, and modular exponentiations at n = 10, that leave
# room for a 2-qubit spectator register
PERMUTED_INSTANCES = [
    pytest.param(build_periodic(n, r), id=f"n{n}-r{r}") for n, r in ((3, 3), (5, 5), (6, 8), (8, 65))
] + [
    pytest.param(build_modexp(base, modulus, 10), id=f"{base}^x-mod-{modulus}")
    for base, modulus in ((7, 15), (2, 21), (2, 33), (5, 39))
]


def trial_records(registers, outcomes, probabilities):
    """``sample_trials``' arrays as one tuple of measurement records per
    trial, the form ``circuit_ir.sample`` gives."""
    return [
        tuple(map(MeasurementRecord, registers, row, probs))
        for row, probs in zip(outcomes.tolist(), probabilities.tolist())
    ]


def x_outcomes(inst, discipline, trials, rng):
    """The X column of ``sample_trials``' outcomes."""
    registers, outcomes, _ = sample_trials(inst, discipline, trials, rng)
    return outcomes[:, registers.index("X")]


def spectator_layouts(n, output_bits):
    """Every order of X, F and an untouched 2-qubit register S."""
    widths = {"X": n, "F": output_bits, "S": 2}
    return [RegisterLayout(tuple((name, widths[name]) for name in order)) for order in itertools.permutations(widths)]


def dense_x(program, dimension):
    """A program's exact [X] as a dense array."""
    probs = np.zeros(dimension)
    for (x,), p in enumerate_outcome_distribution(program, ["X"]).items():
        probs[x] = p
    return probs


def batched_outcome_distribution(inst, discipline):
    """The exact [X] distribution by the batched route ``shor`` used before
    it ran through the walk.

    It works on the F support columns of the t2 state's ``(X, F)`` block:
    the column of F = v holds the prepared X amplitude 2^(-n/2) at each x
    with f(x) = v and zero elsewhere, so it is built from the table alone,
    as an X-by-support matrix, and Fourier-transformed along X by one
    batched FFT.  Under measure-F-at-t2 the distribution is the
    Born-weighted sum over the columns, each normalised to its branch;
    under skip-F and annihilate-F it is the sum of |FFT|^2 over the
    columns, since F is measured last or dephased, and either way the cross
    terms between F values leave the X marginal.
    """
    values, column = np.unique(inst.table.values, return_inverse=True)
    columns = np.zeros((inst.dimension, values.size), dtype=np.complex128)
    columns[np.arange(inst.dimension), column] = 2.0 ** (-inst.n / 2)
    f_probs = (np.abs(columns) ** 2).sum(axis=0)
    support = f_probs > PROB_EPS
    columns, weights = columns[:, support], f_probs[support]
    if discipline == "measure-F-at-t2":
        branches = np.abs(fourier_axis(columns / np.sqrt(weights), 0)) ** 2
        return branches @ weights
    return (np.abs(fourier_axis(columns, 0)) ** 2).sum(axis=1)


def euler_phi(r):
    return sum(1 for j in range(1, r + 1) if math.gcd(j, r) == 1)


def brute_force_outcome_distribution(n, r):
    """Reference [X] distribution via scalar arithmetic: enumerate the
    function-value branches, then the transform amplitude at each outcome."""
    size = 1 << n
    probs = [0.0] * size
    for fbar in range(min(r, size)):
        preimage = [x for x in range(size) if x % r == fbar]
        if not preimage:
            continue
        branch_weight = len(preimage) / size
        for c in range(size):
            amp = sum(cmath.exp(2j * cmath.pi * c * x / size) for x in preimage)
            amp /= math.sqrt(size * len(preimage))
            probs[c] += branch_weight * abs(amp) ** 2
    return np.array(probs)


def brute_force_candidate(c, values):
    """Period extraction by brute force: the closest fraction to c/N with
    denominator at most m, for every bound m; of these, the ones nearer in
    |q c/N - p| than every earlier one are the convergents (Lagrange's best
    approximations of the second kind), and the first whose denominator is
    a period of the table, compared entry by entry, is the candidate."""
    size = len(values)
    if c == 0:
        return None
    x, best = Fraction(c, size), None
    for m in range(1, size + 1):
        approximation = x.limit_denominator(m)
        q = approximation.denominator
        error = abs(q * x - approximation.numerator)
        if best is not None and error >= best:
            continue
        best = error
        if all(values[i + q] == values[i] for i in range(size - q)):
            return q
    return None


def brute_force_success_probability(n, r):
    """Success probability via the reference distribution and Fraction
    arithmetic, independent of the library's extraction code."""
    size = 1 << n
    probs = brute_force_outcome_distribution(n, r)
    total = 0.0
    for c in range(size):
        if c != 0 and Fraction(c, size).denominator == r:
            total += probs[c]
    return total


class TestInstanceBuilders:
    def test_canonical_labeling(self):
        assert build_periodic(2, 2).table.table == (0, 1, 0, 1)

    def test_modexp_order_by_brute_force(self):
        # powers of 7 mod 15: 1, 7, 4, 13, 1 -> order 4
        inst = build_modexp(7, 15, 4)
        powers = {x: pow(7, x, 15) for x in range(16)}
        order = next(k for k in range(1, 16) if pow(7, k, 15) == 1)
        assert order == 4
        assert inst.period == 4
        assert all(inst.table(x) == powers[x] for x in range(16))

    def test_full_period_is_injective(self):
        inst = build_periodic(3, 8)
        assert len(set(inst.table.table)) == 8
        assert inst.period == 8

    def test_periodicity_invariant(self):
        for n in range(1, 6):
            for r in divisors(1 << n):
                table = build_periodic(n, r).table
                for x in range(1 << n):
                    for y in range(1 << n):
                        assert (table(x) == table(y)) == ((x - y) % r == 0)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            build_periodic(2, 5)
        with pytest.raises(ValueError):
            build_periodic(2, 0)

    def test_non_dividing_period_is_flagged(self):
        inst = build_periodic(3, 3)
        assert not inst.period_divides


class TestExtractPeriod:
    def test_zero_carries_no_information(self):
        assert extract_period(0, build_periodic(3, 4).table) is None

    def test_hand_computed_convergents(self):
        assert extract_period(6, build_periodic(3, 4).table) == 4  # 6/8 = 3/4
        assert extract_period(4, build_periodic(3, 2).table) == 2  # 4/8 = 1/2

    @pytest.mark.parametrize("dimension", [4, 8, 16, 64, 256])
    def test_matches_fraction_reduction(self, dimension):
        # for a dividing period equal to the lowest-terms denominator, no
        # earlier convergent is a period of the table
        n = dimension.bit_length() - 1
        for c in range(1, dimension):
            denominator = Fraction(c, dimension).denominator
            assert extract_period(c, build_periodic(n, denominator).table) == denominator

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            extract_period(8, build_periodic(3, 4).table)


class TestExactDistribution:
    def test_three_qubit_period_four_support(self):
        probs = exact_outcome_distribution(build_periodic(3, 4), "skip-F")
        assert np.allclose(probs[[0, 2, 4, 6]], 0.25, atol=1e-12)
        assert probs[[1, 3, 5, 7]].max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_support_is_multiples_of_size_over_period(self, n):
        size = 1 << n
        for r in divisors(size):
            probs = exact_outcome_distribution(build_periodic(n, r), "skip-F")
            expected = {j * (size // r) for j in range(r)}
            got = {c for c in range(size) if probs[c] > 1e-12}
            assert got == expected
            assert np.abs(probs[sorted(got)] - 1 / r).max() < 1e-10

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 4), (4, 8), (4, 4)])
    def test_matches_brute_force_reference(self, n, r):
        reference = brute_force_outcome_distribution(n, r)
        for discipline in DISCIPLINES:
            probs = exact_outcome_distribution(build_periodic(n, r), discipline)
            assert np.abs(probs - reference).max() < 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_disciplines_agree_exactly(self, n):
        for r in divisors(1 << n):
            inst = build_periodic(n, r)
            dists = [exact_outcome_distribution(inst, d) for d in DISCIPLINES]
            for other in dists[1:]:
                assert np.array_equal(dists[0], other)

    @pytest.mark.parametrize("inst", EXACTNESS_INSTANCES)
    def test_disciplines_agree_bit_for_bit(self, inst):
        # measure-F adds its undivided F rows' [X] marginals in the order in
        # which skip-F's reduction sums over F, and annihilate-F's dephasing
        # is inert: the same terms in the same order
        dists = [exact_outcome_distribution(inst, d) for d in DISCIPLINES]
        for other in dists[1:]:
            assert np.array_equal(dists[0], other)

    @pytest.mark.parametrize("inst", EXACTNESS_INSTANCES)
    def test_register_order_changes_no_bit(self, inst):
        # F's rows are the batch axis whichever register comes first, and a
        # marginal sums over them in order either way
        reversed_layout = RegisterLayout.of(F=inst.table.output_bits, X=inst.n)
        for discipline in DISCIPLINES:
            instrs, _ = _period_instructions(inst, discipline)
            reordered = dense_x(CircuitProgram(reversed_layout, instrs), inst.dimension)
            assert np.array_equal(reordered, exact_outcome_distribution(inst, discipline))

    @pytest.mark.parametrize("inst", PERMUTED_INSTANCES)
    def test_a_permuted_layout_with_a_spectator_changes_no_bit(self, inst):
        # every order of (X, F, S), S an untouched 2-qubit register: the
        # exact [X] and 300 sampled trials are those of the (X, F) layout
        for discipline in DISCIPLINES:
            instrs, tags = _period_instructions(inst, discipline)
            instrs = instrs[: tags["t4"] + 1]
            plain = CircuitProgram(inst.layout, instrs)
            drawn = sample_outcomes(plain, np.random.default_rng(5), 300)
            for layout in spectator_layouts(inst.n, inst.table.output_bits):
                program = CircuitProgram(layout, instrs)
                assert np.array_equal(dense_x(program, inst.dimension), exact_outcome_distribution(inst, discipline))
                got = sample_outcomes(program, np.random.default_rng(5), 300)
                assert all(np.array_equal(a, b) for a, b in zip(got, drawn))

    @pytest.mark.parametrize("n, r", [(2, 2), (4, 3), (5, 4), (6, 5)])
    def test_fig1_defers_exactly_on_a_permuted_layout(self, n, r):
        # ``defer-check --fig1``'s program on every order of (X, F, S)
        instrs, _ = _period_instructions(build_periodic(n, r), "measure-F-at-t2")
        joint = enumerate_outcome_distribution(CircuitProgram(RegisterLayout.of(X=n, F=n), instrs), ("F", "X"))
        for layout in spectator_layouts(n, n):
            program = CircuitProgram(layout, instrs)
            assert equivalent_distributions(program, defer_measurements(program), ("F", "X")).value == 0.0
            assert enumerate_outcome_distribution(program, ("F", "X")) == joint

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            exact_outcome_distribution(build_periodic(2, 2), "postpone-X")

    @pytest.mark.parametrize("n", range(1, 11))
    def test_enumerated_program_matches_the_batched_route(self, n):
        # the exact route, branch enumeration of each discipline's program,
        # against the batched-FFT route it replaced, over every r <= 2^n up
        # to n = 6; above it, a non-dividing period, r = 2^(n-1) and two
        # modular exponentiations, up to 2^20 amplitudes
        if n > 6:
            insts = [build_periodic(n, 2 * n - 11), build_periodic(n, 1 << (n - 1))]
            insts += [build_modexp(2, 21, n), build_modexp(7, 15, n)]
        else:
            insts = [build_periodic(n, r) for r in range(1, (1 << n) + 1)]
        if n == 6:
            insts += [build_modexp(2, 21, n), build_modexp(2, 9, n)]
        if n == 4:
            insts.append(build_modexp(7, 15, n))
        for inst in insts:
            for discipline in DISCIPLINES:
                program = period_circuit(inst, discipline)
                enumerated = np.zeros(inst.dimension)
                for (x,), p in enumerate_outcome_distribution(program, ["X"]).items():
                    enumerated[x] += p
                exact = exact_outcome_distribution(inst, discipline)
                assert np.array_equal(exact, enumerated)
                assert np.abs(exact - batched_outcome_distribution(inst, discipline)).max() < 1e-12

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_small_period_at_the_ceiling_builds_no_full_state(self, discipline):
        # n = 10, r = 3: F is held as three rows of 2^10 amplitudes from the
        # oracle on, where the (X, F) state would be 2^20 (16 MiB); a fresh
        # instance, since an instance keeps the walk it enumerated
        exact_outcome_distribution(build_periodic(10, 3), discipline)
        inst = build_periodic(10, 3)
        tracemalloc.start()
        try:
            got = exact_outcome_distribution(inst, discipline)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.abs(got - batched_outcome_distribution(inst, discipline)).max() < 1e-12

    @pytest.mark.parametrize("discipline", ["skip-F", "annihilate-F"])
    def test_the_instance_keeps_no_state_after_its_exact_distribution(self, discipline):
        # n = 10, r = 512: F's rows after the transform take 8 MiB; the walk
        # the instance keeps for its trials holds its [X] distribution after
        # the enumeration, not the rows it was reduced from
        inst = build_periodic(10, 512)
        tracemalloc.start()
        try:
            exact_outcome_distribution(inst, discipline)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**20

    def test_non_dividing_period_still_agrees_across_disciplines(self):
        # the clean comb structure needs r | N, but the discipline
        # equivalence only needs disjoint function-register supports
        inst = build_periodic(3, 3)
        dists = [exact_outcome_distribution(inst, d) for d in DISCIPLINES]
        for other in dists[1:]:
            assert np.array_equal(dists[0], other)


def brute_force_instances(n):
    """Every period up to n = 6; at n = 8, non-dividing and dividing periods
    and four modular exponentiations."""
    if n == 8:
        insts = [build_periodic(n, r) for r in (3, 5, 100, 128, 255)]
    else:
        insts = [build_periodic(n, r) for r in range(1, (1 << n) + 1)]
    return insts + [build_modexp(base, modulus, n) for base, modulus in ((2, 21), (7, 15), (2, 9), (5, 39))]


class TestBruteForceExtraction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_every_outcome_of_every_period(self, n):
        for inst in brute_force_instances(n):
            values = list(inst.table.table)
            for c in range(inst.dimension):
                assert extract_period(c, inst.table) == brute_force_candidate(c, values), (inst.n, inst.period, c)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_success_probability_sums_the_brute_force_candidates(self, n):
        # the 1/q^2 window that skips outcomes must drop no success
        for inst in brute_force_instances(n):
            probs = exact_outcome_distribution(inst, "skip-F")
            values = list(inst.table.table)
            expected = sum(
                float(p) for c, p in enumerate(probs) if p > 0.0 and brute_force_candidate(c, values) == inst.period
            )
            assert single_run_success_probability(inst, probs) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "inst,expected",
        [
            (build_periodic(4, 3), 0.5767677536661795),
            (build_periodic(6, 5), 0.7385159604268223),
            (build_periodic(8, 3), 0.6617726303529817),
            (build_periodic(10, 7), 0.850039981140104),
            (build_modexp(2, 21, 6), 0.2857707365120907),
            (build_modexp(2, 21, 8), 0.3229131857498258),
        ],
    )
    def test_non_dividing_orders_succeed(self, inst, expected):
        # each of these scored exactly 0 when the candidate was the
        # lowest-terms denominator, a power of two
        assert not inst.period_divides
        assert single_run_success_probability(inst) == pytest.approx(expected, abs=1e-12)

    def test_the_instances_period_is_not_read(self):
        inst = build_periodic(6, 5)
        decoy = PeriodFindingInstance(inst.n, inst.table, 7, False)
        assert [extract_period(c, decoy.table) for c in range(64)] == [
            extract_period(c, inst.table) for c in range(64)
        ]
        assert single_run_success_probability(decoy) == 0.0


# every exactness instance, and periods 3, 8 and 2^n - 1 at n = 9 and 10
PERIOD_TEST_INSTANCES = EXACTNESS_INSTANCES + [
    pytest.param(build_periodic(n, r), id=f"n{n}-r{r}") for n in (9, 10) for r in (3, 8, (1 << n) - 1)
]


def full_recurrence_success_probability(inst, probs):
    """The success probability as it was summed before the period test
    stopped at the period: ``extract_period`` of every outcome in the
    1/q^2 window, run to its end, compared with the period, the
    probabilities added in ascending outcome order."""
    size, period = inst.dimension, inst.period
    offset = np.arange(size) * period % size
    near = np.minimum(offset, size - offset) * period <= size
    total = 0.0
    for outcome in np.flatnonzero(near & (probs > 0.0)).tolist():
        if extract_period(outcome, inst.table) == period:
            total += float(probs[outcome])
    return total


@pytest.mark.parametrize("inst", PERIOD_TEST_INSTANCES)
class TestPeriodTestStopsAtThePeriod:
    def test_bounded_at_the_period_it_is_the_full_recurrence_cut_there(self, inst):
        # convergent denominators never decrease, so the first one that
        # passes is found before the first one past the bound, or never
        for c in range(inst.dimension):
            full = extract_period(c, inst.table)
            bounded = _first_period(c, inst.table, inst.period)
            assert bounded == (full if full is not None and full <= inst.period else None), c
            assert (bounded == inst.period) == (full == inst.period), c

    def test_success_count_is_the_per_trial_count(self, inst):
        _, outcomes, _ = sample_trials(inst, "skip-F", 300, np.random.default_rng(inst.dimension + inst.period))
        for x in (outcomes[:, 0], np.arange(inst.dimension)):
            assert success_count(inst, x) == sum(extract_period(c, inst.table) == inst.period for c in x.tolist())

    def test_success_probability_is_the_full_recurrences_bit_for_bit(self, inst):
        probs = exact_outcome_distribution(inst, "skip-F")
        assert single_run_success_probability(inst, probs) == full_recurrence_success_probability(inst, probs)

    def test_outcome_0_gives_no_candidate(self, inst):
        assert _first_period(0, inst.table, inst.period) is None


def test_period_1_never_succeeds_on_one_qubit():
    # the only outcome is 0, whose first convergent denominator 1 is a
    # period of the constant table: outcome 0 must be refused before it
    inst = build_periodic(1, 1)
    assert single_run_success_probability(inst) == 0.0
    assert success_count(inst, np.zeros(5, dtype=np.int64)) == 0


def forty_digit_distribution(n, r):
    """[X] of period finding on n qubits for any table injective on one
    period r, from Shor's closed form (SIAM J. Comput. 26(5), 1997,
    section 5) at 40 digits: with Q = 2^n, m = Q // r and a = Q mod r,
    [X](c) = (a D_{m+1}(c) + (r - a) D_m(c)) / Q^2, where D_k(c) =
    sin^2(pi c r k / Q) / sin^2(pi c r / Q), or k^2 where c r = 0 mod Q.
    The sine arguments are reduced mod Q as integers."""
    q = 1 << n
    m, a = divmod(q, r)
    with mp.workdps(40):

        def d(k, t):  # t = c r mod Q
            return mpf(k * k) if t == 0 else mp.sinpi(mpf(t * k % q) / q) ** 2 / mp.sinpi(mpf(t) / q) ** 2

        return [(a * d(m + 1, c * r % q) + (r - a) * d(m, c * r % q)) / q**2 for c in range(q)]


def forty_digit_error(value, exact) -> float:
    """|value - exact|, taken at 40 digits."""
    with mp.workdps(40):
        return float(abs(mpf(float(value)) - exact))


def check_against_forty_digits(inst):
    """Every discipline's exact [X] within 2.5e-16 of the closed form, and
    the success probability within 1e-15 of the closed form's sum over the
    outcomes that give the period."""
    exact = forty_digit_distribution(inst.n, inst.period)
    for discipline in DISCIPLINES:
        probs = exact_outcome_distribution(inst, discipline)
        assert max(map(forty_digit_error, probs, exact)) <= 2.5e-16, discipline
    with mp.workdps(40):
        success = mp.fsum(p for c, p in enumerate(exact) if extract_period(c, inst.table) == inst.period)
    assert forty_digit_error(single_run_success_probability(inst), success) <= 1e-15


class TestFortyDigitOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_periodic_instances(self, data):
        n = data.draw(st.integers(1, 10))
        check_against_forty_digits(build_periodic(n, data.draw(st.integers(1, 1 << n))))

    @pytest.mark.parametrize("base, modulus", [(7, 15), (2, 21), (2, 33), (5, 39)])
    def test_modexp_instances(self, base, modulus):
        check_against_forty_digits(build_modexp(base, modulus, 10))


class TestSuccessProbability:
    def test_three_qubit_period_four_is_one_half(self):
        # successes at c in {2, 6} out of the uniform {0, 2, 4, 6}
        assert single_run_success_probability(build_periodic(3, 4)) == pytest.approx(0.5, abs=1e-12)

    def test_two_qubit_period_two_is_one_half(self):
        assert single_run_success_probability(build_periodic(2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_trivial_period_never_succeeds(self):
        # the only outcome is c = 0, which maps to no candidate
        assert single_run_success_probability(build_periodic(3, 1)) == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_totient_law_for_dividing_periods(self, n):
        for r in divisors(1 << n):
            p = single_run_success_probability(build_periodic(n, r))
            if r == 1:
                assert p == 0.0
            else:
                assert p == pytest.approx(euler_phi(r) / r, abs=1e-12)

    @pytest.mark.parametrize("n,r", [(3, 4), (4, 8), (5, 4)])
    def test_matches_brute_force_reference(self, n, r):
        assert single_run_success_probability(build_periodic(n, r)) == pytest.approx(
            brute_force_success_probability(n, r), abs=1e-12
        )

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_precomputed_distribution_gives_the_same_probability(self, discipline):
        inst = build_modexp(2, 21, 6)
        given = exact_outcome_distribution(inst, discipline)
        assert single_run_success_probability(inst, given) == pytest.approx(
            single_run_success_probability(inst), abs=1e-12
        )

    def test_precomputed_distribution_must_fit_the_instance(self):
        with pytest.raises(ShapeMismatchError):
            single_run_success_probability(build_periodic(3, 4), np.full(4, 0.25))

    def test_modexp_instance(self):
        # order 4 divides 16, so the totient law applies
        inst = build_modexp(7, 15, 4)
        assert single_run_success_probability(inst) == pytest.approx(
            euler_phi(4) / 4, abs=1e-12
        )


class TestRunPipeline:
    def test_seeded_runs_reproduce(self):
        inst = build_periodic(3, 4)
        for discipline in DISCIPLINES:
            a = trial_records(*sample_trials(inst, discipline, 1, np.random.default_rng(5)))
            b = trial_records(*sample_trials(inst, discipline, 1, np.random.default_rng(5)))
            assert a == b

    def test_measured_outcome_always_in_support(self):
        inst = build_periodic(3, 4)
        for seed in range(50):
            assert x_outcomes(inst, "skip-F", 1, np.random.default_rng(seed))[0] in {0, 2, 4, 6}

    def test_function_branch_projects_to_comb(self):
        # after measuring the function register the input support is one
        # residue class, whose transform is supported on 0 and 2
        inst = build_periodic(2, 2)
        for seed in range(20):
            f, x = trial_records(*sample_trials(inst, "measure-F-at-t2", 1, np.random.default_rng(seed)))[0]
            assert (f.register, x.register) == ("F", "X")
            assert f.probability == pytest.approx(0.5)
            assert x.outcome in {0, 2}

    def test_empirical_success_rate_tracks_exact(self):
        inst = build_periodic(3, 4)
        rng = np.random.default_rng(123)
        trials = 2000
        hits = sum(success_count(inst, x_outcomes(inst, "annihilate-F", 1, rng)) for _ in range(trials))
        exact = single_run_success_probability(inst)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits / trials - exact) <= 4 * sigma

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            sample_trials(build_periodic(2, 2), "whatever", 1, np.random.default_rng(0))

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_batched_trials_equal_repeated_single_runs(self, discipline):
        inst = build_periodic(4, 3)
        batch = trial_records(*sample_trials(inst, discipline, 30, np.random.default_rng(8)))
        rng = np.random.default_rng(8)
        singles = [trial_records(*sample_trials(inst, discipline, 1, rng))[0] for _ in range(30)]
        assert batch == singles
        assert sum(map(len, batch)) == 30 * (2 if discipline == "measure-F-at-t2" else 1)

    def test_zero_trials(self):
        registers, outcomes, probabilities = sample_trials(build_periodic(3, 4), "skip-F", 0, np.random.default_rng(0))
        assert registers == ("X",) and outcomes.shape == probabilities.shape == (0, 1)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @pytest.mark.parametrize("inst", [build_periodic(5, 6), build_modexp(7, 15, 5)], ids=["periodic", "modexp"])
    def test_success_count_counts_the_successful_runs(self, inst, discipline):
        xs = x_outcomes(inst, discipline, 200, np.random.default_rng(3))
        successes = sum(extract_period(x, inst.table) == inst.period for x in xs.tolist())
        assert success_count(inst, xs) == successes
        assert 0 < successes < 200
        assert success_count(inst, xs[:0]) == 0

    def test_non_dividing_period_pipeline_runs(self):
        inst = build_periodic(3, 3)
        assert not inst.period_divides
        for discipline in DISCIPLINES:
            assert 0 <= x_outcomes(inst, discipline, 1, np.random.default_rng(4))[0] < 8

    @pytest.mark.parametrize("discipline, segments", [("measure-F-at-t2", [3, 1]), ("skip-F", [4]), ("annihilate-F", [3, 1])])
    def test_a_sampled_report_runs_each_unitary_instruction_once(self, monkeypatch, discipline, segments):
        # the unitary instructions of each segment a report runs: the prepare,
        # Hadamard and oracle, then the X transform, run once, however the
        # segments fall; the trials' pass memoises the inert dephasing's
        # support where a segment ends at it, so annihilate-F's first segment
        # does not run again to read it (it did: [4, 3])
        runs = []
        run_segment = circuit_ir._Segment.run
        monkeypatch.setattr(
            circuit_ir._Segment, "run", lambda segment, instrs, *rest: runs.append(len(instrs)) or run_segment(segment, instrs, *rest)
        )
        argv = ["shor", "--n", "6", "--r", "3", "--trials", "200", "--discipline", discipline, "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert runs == segments

    def test_annihilate_f_sampling_at_the_ceiling_peaks_as_measure_f_does(self):
        # n = 10, r = 512: F is held as 512 rows of 2^10 amplitudes (8 MiB),
        # and its distribution reduces their squares (4 MiB, laid out to be
        # summed one F value after another); the dephasing's state is not
        # kept beside the transformed one
        inst = build_periodic(10, 512)
        peaks = {}
        for discipline in ("measure-F-at-t2", "annihilate-F"):
            tracemalloc.start()
            try:
                sample_trials(inst, discipline, 100, np.random.default_rng(5))
                peaks[discipline] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["annihilate-F"] <= 1.1 * peaks["measure-F-at-t2"]
        assert peaks["measure-F-at-t2"] < 20 * 2**20


class TestPeriodCircuit:
    def test_early_measure_variant_tags(self):
        program = period_circuit(build_periodic(2, 2), "measure-F-at-t2")
        assert program.time_tags == {"t1": 1, "t2": 3, "t3": 4, "t4": 5}

    def test_skip_variant_tags(self):
        program = period_circuit(build_periodic(2, 2), "skip-F")
        assert program.time_tags == {"t1": 1, "t2": 3, "t4": 4}

    def test_annihilate_variant_dephases_f_at_t2(self):
        program = period_circuit(build_periodic(2, 2), "annihilate-F")
        assert program.time_tags == {"t1": 1, "t2": 3, "t3": 4, "t4": 5}
        assert program.instructions[3] == Dephase("F")
        assert program.instructions[5:] == (Measure("X"), Measure("F"))

    def test_unknown_discipline_has_no_circuit(self):
        with pytest.raises(ValueError):
            period_circuit(build_periodic(2, 2), "postpone-X")

    def test_oracle_state_matches_module_route(self):
        from qdesk import run

        inst = build_periodic(3, 2)
        trace = run(period_circuit(inst, "skip-F"), np.random.default_rng(0))
        t2 = trace.state_at_tag("t2")
        assert np.abs(t2.amplitudes - state_after_oracle(inst).amplitudes).max() < 1e-12


class TestDivisors:
    def test_small_values(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(64) == [1, 2, 4, 8, 16, 32, 64]
