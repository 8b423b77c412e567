"""Randomized checks of the register-axis routes against full-state references.

The references here are the plain forms the fast routes replaced: the dense
Fourier matrix, full-length masks built from ``np.arange(dimension)``, and
the per-branch projection of the whole state.  They stay in this file so the
library keeps one route per operation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import (
    PureState,
    RegisterLayout,
    build_modexp,
    build_periodic,
    exact_outcome_distribution,
    outcome_distribution,
    phased_mixture_from_state,
    project,
    qft,
    state_after_oracle,
)
from qdesk.circuit_ir import _xor_register
from qdesk.measure import PROB_EPS, ProjectionOperator
from qdesk.shor import DISCIPLINES

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def random_states(draw, max_registers=3, max_qubits=4):
    """A normalized random state on a random layout, plus one of its registers."""
    sizes = draw(st.lists(st.integers(1, max_qubits), min_size=1, max_size=max_registers))
    layout = RegisterLayout(tuple((f"R{i}", q) for i, q in enumerate(sizes)))
    rng = np.random.default_rng(draw(SEEDS))
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    state = PureState(layout, amps / np.linalg.norm(amps))
    return state, draw(st.sampled_from(layout.names))


def field(layout, reg):
    """Every basis index's value in one register, by full-length index arithmetic."""
    indices = np.arange(layout.dimension)
    return (indices >> layout.offset(reg)) & (layout.dim(reg) - 1)


def mask_project(state, reg, outcome):
    kept = np.where(field(state.layout, reg) == outcome, state.amplitudes, 0.0)
    return state.with_amplitudes(kept / np.linalg.norm(kept))


def x_marginal(amplitudes, n):
    return (np.abs(amplitudes.reshape(1 << n, -1)) ** 2).sum(axis=1)


def full_state_route(inst, discipline):
    """Exact [X] distribution by projecting the whole state per branch and
    applying the dense Fourier matrix."""
    def dense(s):
        return qft(s, "X", method="dense")

    state = state_after_oracle(inst)
    if discipline == "skip-F":
        return x_marginal(dense(state).amplitudes, inst.n)
    f_dist = outcome_distribution(state, "F")
    total = np.zeros(inst.dimension)
    for v in f_dist.support():
        if discipline == "measure-F-at-t2":
            branch = dense(mask_project(state, "F", v))
            total += f_dist.probabilities[v] * x_marginal(branch.amplitudes, inst.n)
        else:
            slot = np.where(field(state.layout, "F") == v, state.amplitudes, 0.0)
            total += x_marginal(dense(PureState(inst.layout, slot)).amplitudes, inst.n)
    return total


@settings(max_examples=60, deadline=None)
@given(case=random_states(), inverse=st.booleans())
def test_default_qft_matches_dense_oracle(case, inverse):
    state, reg = case
    fast = qft(state, reg, inverse=inverse)
    dense = qft(state, reg, inverse=inverse, method="dense")
    assert np.abs(fast.amplitudes - dense.amplitudes).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(case=random_states(), data=st.data())
def test_project_matches_mask_reference(case, data):
    state, reg = case
    outcome = data.draw(st.integers(0, state.layout.dim(reg) - 1))
    got = project(state, ProjectionOperator(reg, outcome))
    expected = mask_project(state, reg, outcome)
    assert np.abs(got.amplitudes - expected.amplitudes).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=random_states(), data=st.data())
def test_phased_mixture_matches_mask_reference(case, data):
    state, reg = case
    # Empty some of the traced register's values so slot selection matters.
    d = state.layout.dim(reg)
    values = field(state.layout, reg)
    empty = data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    amps = np.where(np.isin(values, list(empty)), 0.0, state.amplitudes)
    state = state.with_amplitudes(amps / np.linalg.norm(amps))
    mixture = phased_mixture_from_state(state, reg)
    weights = [np.linalg.norm(state.amplitudes[values == v]) ** 2 for v in range(d)]
    support = [v for v, w in enumerate(weights) if w > PROB_EPS]
    assert mixture.slot_values == tuple(support)
    for v, slot in zip(support, mixture.slots):
        assert np.array_equal(slot, np.where(values == v, state.amplitudes, 0.0))


@settings(max_examples=60, deadline=None)
@given(case=random_states(), data=st.data())
def test_xor_register_matches_arange_reference(case, data):
    state, reg = case
    value = data.draw(st.integers(0, state.layout.dim(reg) - 1))
    partner = np.arange(state.layout.dimension) ^ (value << state.layout.offset(reg))
    got = _xor_register(state, reg, value)
    assert np.array_equal(got.amplitudes, state.amplitudes[partner])


MODEXP_CASES = [(2, 21), (2, 9), (7, 15), (2, 15), (3, 7), (5, 39), (2, 5)]


@st.composite
def period_instances(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return build_periodic(n, draw(st.integers(1, 1 << n)))
    base, modulus = draw(st.sampled_from(MODEXP_CASES))
    return build_modexp(base, modulus, n)


@settings(max_examples=40, deadline=None)
@given(inst=period_instances(), discipline=st.sampled_from(DISCIPLINES))
def test_exact_distribution_matches_full_state_route(inst, discipline):
    got = exact_outcome_distribution(inst, discipline)
    expected = full_state_route(inst, discipline)
    assert got.shape == (inst.dimension,)
    assert np.abs(got - expected).max() < 1e-12


def test_named_non_dividing_cases_match_full_state_route():
    for inst in (build_modexp(2, 21, 6), build_modexp(2, 9, 6), build_periodic(6, 5)):
        assert not inst.period_divides
        for discipline in DISCIPLINES:
            got = exact_outcome_distribution(inst, discipline)
            assert np.abs(got - full_state_route(inst, discipline)).max() < 1e-12
