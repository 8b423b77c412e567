import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qdesk import (
    CircuitProgram,
    DegenerateStateError,
    DensityMatrix,
    Measure,
    MeasurementRecord,
    OutcomeDistribution,
    PhasedMixture,
    ProjectionOperator,
    PureState,
    RegisterLayout,
    ShapeMismatchError,
    analytic_average_density,
    average_density,
    born_sample,
    build_periodic,
    make_basis_state,
    measure_register,
    normalize,
    outcome_distribution,
    partial_trace,
    project,
    sample_phases,
    state_after_oracle,
)
from qdesk.circuit_ir import enumerate_outcome_distribution
from qdesk.grover import extended_mixture
from qdesk.measure import MAX_DENSITY_QUBITS, PROB_EPS, record_lines
from qdesk.selftest import chi_square_sf_one_dof
from qdesk.shor import divisors
from test_register_axis import gate, mixture_slots


@pytest.fixture
def parity_state():
    """(1/2) sum_x |x>|x mod 2> over 2 input qubits."""
    return state_after_oracle(build_periodic(2, 2))


class TestOutcomeDistribution:
    def test_parity_function_splits_evenly(self, parity_state):
        # enumerate the 4 terms: two end in 0, two end in 1
        probs = outcome_distribution(parity_state, "F").probabilities
        assert np.allclose(probs[:2], [0.5, 0.5], atol=1e-12)
        assert probs[2:].max() < 1e-15

    def test_basis_state_is_point_mass(self):
        state = make_basis_state(RegisterLayout.of(X=3), {"X": 5})
        probs = outcome_distribution(state, "X").probabilities
        assert probs[5] == 1.0
        assert probs.sum() == 1.0

    def test_uniform_superposition(self):
        state = gate(make_basis_state(RegisterLayout.of(X=3), {}), "hadamard", reg="X")
        assert np.allclose(outcome_distribution(state, "X").probabilities, 1 / 8, atol=1e-12)

    def test_joint_distribution_orders_keys_as_requested(self, parity_state):
        program = CircuitProgram(parity_state.layout, (Measure("X"), Measure("F")))
        kx = enumerate_outcome_distribution(program, ["X", "F"], initial=parity_state)
        fx = enumerate_outcome_distribution(program, ["F", "X"], initial=parity_state)
        assert set(kx) == {(x, x % 2) for x in range(4)}
        assert set(fx) == {(x % 2, x) for x in range(4)}
        for (x, f), p in kx.items():
            assert fx[(f, x)] == pytest.approx(p)


class TestProject:
    def test_even_branch_is_the_two_term_comb(self, parity_state):
        # projecting F=0 keeps x in {0, 2} with equal weight: the comb
        # |0> + |2> times |0>_F, renormalized
        post = project(parity_state, ProjectionOperator("F", 0))
        layout = parity_state.layout
        expected = np.zeros(layout.dimension, dtype=complex)
        expected[layout.encode({"X": 0, "F": 0})] = 1 / math.sqrt(2)
        expected[layout.encode({"X": 2, "F": 0})] = 1 / math.sqrt(2)
        assert np.abs(post.amplitudes - expected).max() < 1e-12

    def test_basis_state_projects_to_itself(self):
        state = make_basis_state(RegisterLayout.of(X=2, F=1), {"X": 3, "F": 1})
        post = project(state, ProjectionOperator("F", 1))
        assert np.array_equal(post.amplitudes, state.amplitudes)

    def test_idempotent(self, parity_state):
        once = project(parity_state, ProjectionOperator("F", 1))
        twice = project(once, ProjectionOperator("F", 1))
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-12

    def test_distinct_outcomes_annihilate(self, parity_state):
        once = project(parity_state, ProjectionOperator("F", 0))
        with pytest.raises(DegenerateStateError):
            project(once, ProjectionOperator("F", 1))

    def test_outcome_out_of_range(self, parity_state):
        with pytest.raises(ValueError):
            project(parity_state, ProjectionOperator("F", 4))


class TestMeasureRegister:
    def test_point_mass_is_deterministic(self):
        state = make_basis_state(RegisterLayout.of(X=2), {"X": 2})
        for seed in range(5):
            outcome, post = measure_register(state, "X", np.random.default_rng(seed))
            assert outcome == 2
            assert np.array_equal(post.amplitudes, state.amplitudes)

    def test_seeded_runs_reproduce(self, parity_state):
        a = measure_register(parity_state, "F", np.random.default_rng(123))
        b = measure_register(parity_state, "F", np.random.default_rng(123))
        assert a[0] == b[0]
        assert np.array_equal(a[1].amplitudes, b[1].amplitudes)

    def test_empirical_frequencies_within_three_sigma(self, parity_state):
        runs = 10_000
        counts = np.zeros(4)
        for seed in range(runs):
            outcome, _ = measure_register(parity_state, "F", np.random.default_rng(seed))
            counts[outcome] += 1
        probs = outcome_distribution(parity_state, "F").probabilities
        for v in range(4):
            sigma = math.sqrt(probs[v] * (1 - probs[v]) / runs)
            assert abs(counts[v] / runs - probs[v]) <= 3 * sigma + 1e-12

    def test_function_register_then_input_register_are_consistent(self, parity_state):
        # after seeing f-bar, the input register only ever shows preimages
        f = build_periodic(2, 2).table
        for seed in range(200):
            rng = np.random.default_rng(seed)
            fbar, post = measure_register(parity_state, "F", rng)
            x, _ = measure_register(post, "X", rng)
            assert f(x) == fbar

    def test_born_sampling_chi_square(self, parity_state):
        rng = np.random.default_rng(2024)
        dist = outcome_distribution(parity_state, "F")
        samples = 10_000
        counts = np.zeros(4)
        for _ in range(samples):
            counts[born_sample(dist, rng)] += 1
        keep = dist.probabilities > 0
        expected = samples * dist.probabilities[keep]
        stat = float((((counts[keep] - expected) ** 2) / expected).sum())
        assert chi_square_sf(stat, keep.sum() - 1) > 1e-3


def chi_square_sf(stat, dof):
    """The chi-square distribution's upper tail at ``stat`` with ``dof``
    degrees of freedom: the regularised upper incomplete gamma function
    Q(dof/2, stat/2), at 40 digits."""
    with mp.workdps(40):
        return float(mp.gammainc(mpf(int(dof)) / 2, mpf(stat) / 2, mp.inf, regularized=True))


def choice_sample(dist, rng):
    """The replaced Born draw: clip, normalise, and ``rng.choice``."""
    probs = np.clip(dist.probabilities, 0.0, None)
    return int(rng.choice(len(probs), p=probs / probs.sum()))


@st.composite
def distributions(draw):
    """Probabilities with zeros, entries near PROB_EPS and sums off by up
    to 1e-10; length 1 included."""
    size = draw(st.integers(1, 24))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    probs = weights / weights.sum()
    tiny = st.sampled_from([0.0, -1e-17, 0.5 * PROB_EPS, PROB_EPS, 2 * PROB_EPS, 1e-13])
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        probs[i] = draw(tiny)
    if probs.max() <= 0.0:
        probs[0] = 1.0
    probs /= probs.sum()
    return OutcomeDistribution("X", probs * (1.0 + draw(st.floats(-0.999e-10, 0.999e-10))))


class TestBornSample:
    @settings(max_examples=300, deadline=None)
    @given(
        dist=distributions(),
        seed=st.integers(0, 2**32 - 1),
        gaps=st.lists(st.integers(0, 3), max_size=12),
    )
    def test_cdf_draws_equal_choice_draws(self, dist, seed, gaps):
        # each draw is followed by ``gap`` phase draws, as in a dephasing trial
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for gap in gaps:
            assert born_sample(dist, ours) == choice_sample(dist, reference)
            phases = ours.uniform(0.0, 2 * np.pi, size=gap)
            assert np.array_equal(phases, reference.uniform(0.0, 2 * np.pi, size=gap))
        assert ours.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(dist=distributions())
    def test_cdf_and_support_are_built_once_and_frozen(self, dist):
        assert dist.cdf is dist.cdf
        assert not dist.cdf.flags.writeable
        with pytest.raises(ValueError):
            dist.cdf[0] = 0.5
        # what ``rng.choice`` builds from the ``p`` the replaced draw passed it
        clipped = np.clip(dist.probabilities, 0.0, None)
        expected = (clipped / clipped.sum()).cumsum()
        expected /= expected[-1]
        assert np.array_equal(dist.cdf, expected)
        assert isinstance(dist.support, tuple)
        assert list(dist.support) == [int(v) for v in np.nonzero(dist.probabilities > PROB_EPS)[0]]


class TestPartialTrace:
    def test_product_state_gives_rank_one(self):
        layout = RegisterLayout.of(X=2, F=1)
        state = gate(make_basis_state(layout, {}), "hadamard", reg="X")
        rho = partial_trace(state, ["X"])
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(eigs[:-1]).max() < 1e-12

    def test_parity_state_reduction_matches_hand_matrix(self, parity_state):
        # (1/2) x rank-1 on (|0>+|2>)/sqrt(2) + (1/2) x rank-1 on (|1>+|3>)/sqrt(2)
        even = np.zeros(4)
        even[[0, 2]] = 1 / math.sqrt(2)
        odd = np.zeros(4)
        odd[[1, 3]] = 1 / math.sqrt(2)
        expected = 0.5 * np.outer(even, even) + 0.5 * np.outer(odd, odd)
        rho = partial_trace(parity_state, ["X"])
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_maximally_entangled_pair_reduces_to_identity(self):
        layout = RegisterLayout.of(A=1, B=1)
        amps = np.zeros(4)
        amps[[0, 3]] = 1 / math.sqrt(2)  # |00> + |11>
        rho = partial_trace(PureState(layout, amps), ["A"])
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12

    def test_empty_keep_rejected(self, parity_state):
        with pytest.raises(ValueError):
            partial_trace(parity_state, [])

    def test_properties_hold(self, parity_state):
        rho = partial_trace(parity_state, ["X"])
        assert rho.min_eigenvalue() >= -1e-9
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_outcome_weighted_post_densities_reproduce_prior(self):
        for n, r in [(2, 2), (3, 4), (3, 2)]:
            state = state_after_oracle(build_periodic(n, r))
            prior = partial_trace(state, ["X"]).matrix
            f_dist = outcome_distribution(state, "F")
            acc = np.zeros_like(prior)
            for v in f_dist.support:
                post = project(state, ProjectionOperator("F", v))
                acc = acc + f_dist.probabilities[v] * partial_trace(post, ["X"]).matrix
            assert np.abs(acc - prior).max() < 1e-10


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_json_shape(self):
        rho = DensityMatrix(np.eye(2) / 2, ("X",))
        doc = rho.to_json()
        assert doc["dimension"] == 2
        assert doc["matrix"][0][0] == [0.5, 0.0]


class TestPhasedMixture:
    def test_parity_state_groups_into_two_slots(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        assert mixture.slot_count == 2
        assert mixture.slot_values == (0, 1)
        layout = parity_state.layout
        even_support = {layout.encode({"X": x, "F": 0}) for x in (0, 2)}
        got = {int(i) for i in np.nonzero(np.abs(mixture_slots(mixture)[0]) > 1e-15)[0]}
        assert got == even_support

    def test_injective_function_gives_one_slot_per_value(self):
        state = state_after_oracle(build_periodic(2, 4))
        mixture = PhasedMixture(state, "F")
        assert mixture.slot_count == 4

    def test_constant_function_collapses_to_single_slot(self):
        state = state_after_oracle(build_periodic(2, 1))
        mixture = PhasedMixture(state, "F")
        assert mixture.slot_count == 1
        assert np.abs(mixture.flatten().amplitudes - state.amplitudes).max() < 1e-15

    def test_flatten_with_zero_phases_recovers_state(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        assert np.abs(mixture.flatten().amplitudes - parity_state.amplitudes).max() < 1e-15

    def test_sampled_phases_keep_unit_norm_and_statistics(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        base = outcome_distribution(parity_state, "X").probabilities
        rng = np.random.default_rng(8)
        for _ in range(10):
            sampled = sample_phases(mixture, rng)
            assert abs(sampled.norm() - 1.0) < 1e-12
            # phases never leak into the per-register statistics
            probs = outcome_distribution(sampled, "X").probabilities
            assert np.abs(probs - base).max() < 1e-12


class TestPhaseAveraging:
    @pytest.mark.parametrize("phi", [0.3, 0.6, 1.0, math.pi / 3])
    def test_two_state_example_analytic(self, phi):
        layout = RegisterLayout.of(Q=1)
        state = PureState(layout, [math.sin(phi), math.cos(phi)])
        mixture = PhasedMixture(state, "Q")
        rho = analytic_average_density(mixture)
        expected = np.diag([math.sin(phi) ** 2, math.cos(phi) ** 2])
        assert np.abs(rho.matrix - expected).max() < 1e-10

    def test_two_state_example_monte_carlo(self):
        phi = 0.6
        layout = RegisterLayout.of(Q=1)
        state = PureState(layout, [math.sin(phi), math.cos(phi)])
        mixture = PhasedMixture(state, "Q")
        rho = average_density(mixture, 100_000, np.random.default_rng(31))
        expected = np.diag([math.sin(phi) ** 2, math.cos(phi) ** 2])
        assert np.linalg.norm(rho.matrix - expected) < 5e-3

    def test_single_slot_average_is_exact_rank_one(self):
        state = state_after_oracle(build_periodic(2, 1))
        mixture = PhasedMixture(state, "F")
        rho = analytic_average_density(mixture)
        expected = np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_parity_monte_carlo_converges_to_partial_trace(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        rho = average_density(mixture, 100_000, np.random.default_rng(77), keep=["X"])
        assert rho.frobenius_distance(partial_trace(parity_state, ["X"])) < 5e-3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_analytic_average_equals_partial_trace(self, n):
        for r in divisors(1 << n):
            state = state_after_oracle(build_periodic(n, r))
            mixture = PhasedMixture(state, "F")
            averaged = analytic_average_density(mixture, keep=["X"])
            assert averaged.frobenius_distance(partial_trace(state, ["X"])) < 1e-10

    def test_reduced_analytic_average_past_the_full_density_cap(self):
        # The full X,F density at n=6 is 4096 x 4096, over the dense cap;
        # the kept X register needs only 64 x 64.
        state = state_after_oracle(build_periodic(6, 4))
        mixture = PhasedMixture(state, "F")
        averaged = analytic_average_density(mixture, keep=["X"])
        assert averaged.dimension == 64
        assert np.abs(averaged.matrix - partial_trace(state, ["X"]).matrix).max() < 1e-12

    @pytest.mark.parametrize("n, r, samples", [(2, 2, 2050), (6, 4, 3)])
    def test_reduced_monte_carlo_average_matches_per_sample_traces(self, n, r, samples):
        # 2050 samples cross a batch boundary; n=6 is past the full density cap.
        state = state_after_oracle(build_periodic(n, r))
        mixture = PhasedMixture(state, "F")
        got = average_density(mixture, samples, np.random.default_rng(5), keep=["X"])
        phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(samples, mixture.slot_count))
        expected = sum(partial_trace(mixture.flatten(p), ["X"]).matrix for p in phases) / samples
        assert np.abs(got.matrix - expected).max() < 1e-12

    def test_average_and_draw_stay_linear_in_the_state(self):
        # H = 128 slot vectors of 2^16 amplitudes would take 128 MiB each time
        tracemalloc.start()
        try:
            mixture = PhasedMixture(state_after_oracle(build_periodic(8, 128)), "F")
            analytic_average_density(mixture, keep=["X"])
            sample_phases(mixture, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mixture.slot_count == 128
        assert peak < 16 * 2**20

    def test_monte_carlo_average_holds_no_batch_of_states(self):
        # phasing a batch of 2048 states and reducing it peaked at 2.5 MiB
        tracemalloc.start()
        try:
            average_density(extended_mixture(), 100_000, np.random.default_rng(3), keep=["K"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_phase_groups_must_partition(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        with pytest.raises(ValueError):
            analytic_average_density(mixture, phase_groups=[[0]])

    def test_sample_count_must_be_positive(self, parity_state):
        mixture = PhasedMixture(parity_state, "F")
        with pytest.raises(ValueError):
            average_density(mixture, 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "reduce",
    [
        lambda state: partial_trace(state, ["X", "F"]),
        lambda state: average_density(PhasedMixture(state, "F"), 1, np.random.default_rng(0)),
        lambda state: analytic_average_density(PhasedMixture(state, "F"), keep=["X", "F"]),
    ],
    ids=["partial_trace", "average_density", "analytic_average_density"],
)
def test_density_cap_is_checked_before_allocating(reduce):
    # a 2^11 x 2^11 density takes 64 MiB; the cap must refuse it first
    layout = RegisterLayout.of(X=6, F=5)
    assert layout.total_qubits == MAX_DENSITY_QUBITS + 1
    amps = np.random.default_rng(3).normal(size=layout.dimension).astype(complex)
    state = PureState(layout, amps / np.linalg.norm(amps))
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatchError, match="capped"):
            reduce(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestMeasurementRecord:
    def test_json_fields(self):
        record = MeasurementRecord("F", 1, 0.5, seed=9)
        assert record.to_json() == {"register": "F", "outcome": 1, "probability": 0.5, "seed": 9}

    @settings(max_examples=150, deadline=None)
    @given(
        registers=st.sampled_from([("X",), ("F", "X")]),
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**20 - 1),
                st.integers(0, 2**20 - 1),
                st.one_of(st.sampled_from([1.0, 1e-300, 0.5]), st.floats(PROB_EPS, 1.0)),
                st.one_of(st.sampled_from([1.0, 1e-300]), st.floats(PROB_EPS, 1.0)),
            ),
            max_size=12,
        ),
        seed=st.one_of(st.sampled_from([0, 2**31 - 1]), st.integers(0, 2**31 - 1)),
    )
    def test_record_lines_are_the_bytes_of_the_records_json(self, registers, rows, seed):
        k = len(registers)
        outcomes = np.array([row[:k] for row in rows], dtype=np.int64).reshape(-1, k)
        probabilities = np.array([row[2 : 2 + k] for row in rows], dtype=float).reshape(-1, k)
        records = [
            MeasurementRecord(reg, outcome, probability)
            for row, probs in zip(outcomes.tolist(), probabilities.tolist())
            for reg, outcome, probability in zip(registers, row, probs)
        ]
        expected = "".join(json.dumps(r.to_json() | {"seed": seed}, sort_keys=True) + "\n" for r in records)
        assert record_lines(registers, outcomes, probabilities, seed) == expected


@pytest.mark.parametrize("stat", [0.0, 0.01, 0.5, 1.0, 3.84, 10.83, 25.0])
def test_closed_form_chi_square_tail_matches_the_incomplete_gamma(stat):
    assert abs(chi_square_sf_one_dof(stat) - chi_square_sf(stat, 1)) < 1e-12
