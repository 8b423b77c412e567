"""Randomized checks of the register-axis routes against full-state references.

The references here are the plain forms the fast routes replaced: the dense
Fourier matrix, full-length masks built from ``np.arange(dimension)``, and
the per-branch projection of the whole state, the XOR oracles' per-call
``np.arange`` partner arrays, the Hadamard layer as one 2x2 einsum per bit,
the diffusion's strided in-order mean, and the random-phase
slot vectors that ``PhasedMixture`` used to hold, summed with their phases
and stacked per phase group, and the literal Monte Carlo phase average,
one phased state reduced per draw.  The allocating forms of the in-place gate
kernels are here too: the oracles' ``np.take`` gather along the table's
full basis permutation, built here from its entries, the Hadamard butterflies into fresh arrays, the out-of-place
FFT and the reflection into a fresh array.  They stay in this file so the
library keeps one route per operation.
"""

import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    Dephase,
    FunctionTable,
    GateOp,
    ModedFunctionTable,
    PhasedMixture,
    PureState,
    RegisterLayout,
    analytic_average_density,
    average_density,
    build_modexp,
    build_periodic,
    apply_instruction,
    exact_outcome_distribution,
    make_basis_state,
    outcome_distribution,
    partial_trace,
    project,
    run,
    sample_phases,
    state_after_oracle,
)
from qdesk import gates
from qdesk.circuit_ir import _xor_register
from qdesk.measure import PROB_EPS, ProjectionOperator
from qdesk.selftest import fourier_matrix
from qdesk.shor import DISCIPLINES

SEEDS = st.integers(0, 2**32 - 1)


def gate(state, kind, **regs):
    """One gate applied to a state: ``apply_instruction`` of a ``GateOp``."""
    return apply_instruction(state, GateOp(kind, **regs))


def dense_qft(state, reg, inverse=False):
    """The register Fourier transform as the dense matrix times the
    register axis of the ``(left, d, right)`` view, O(D d)."""
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    out = np.einsum("cd,ldr->lcr", fourier_matrix(state.layout.qubits(reg), inverse), block)
    return state.with_amplitudes(out.reshape(-1))


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


def mixture_slots(mixture):
    """The slot route's slots: one full-dimension vector per slot value,
    holding the mixture state's components at that value of the traced
    register."""
    values = field(mixture.layout, mixture.traced_reg)
    return [np.where(values == v, mixture.state.amplitudes, 0.0) for v in mixture.slot_values]


def slot_flatten(mixture, phases):
    """The slot route's phased state: the slots summed with their phase factors."""
    total = np.zeros(mixture.layout.dimension, dtype=np.complex128)
    for phase, slot in zip(phases, mixture_slots(mixture)):
        total += np.exp(1j * phase) * slot
    return total


def stack_average(mixture, keep, groups):
    """The slot route's closed-form average: each phase group's slots summed
    into one full vector, each reduced to the kept registers, the reductions
    summed."""
    layout = mixture.layout
    dims = [layout.dim(name) for name in layout.names]
    kept = [i for i, name in enumerate(layout.names) if name in keep]
    rest = [i for i in range(len(dims)) if i not in kept]
    slots = mixture_slots(mixture)
    total = 0.0
    for group in groups:
        vector = sum((slots[h] for h in group), np.zeros(layout.dimension, dtype=np.complex128))
        rows = vector.reshape(dims).transpose(kept + rest).reshape(int(np.prod([dims[i] for i in kept])), -1)
        total = total + rows @ rows.conj().T
    return total


def with_emptied_values(state, reg, empty):
    """The state with the listed values of ``reg`` emptied, renormalised;
    the emptied amplitudes hold zeros of either sign, so that the support
    and the signs of a result's zeros both matter."""
    values = field(state.layout, reg)
    emptied = np.isin(values, list(empty))
    kept = np.where(emptied, 0.0, state.amplitudes)
    zeros = np.where(np.arange(values.size) % 2, complex(-0.0, 0.0), complex(0.0, -0.0))
    return state.with_amplitudes(np.where(emptied, zeros, kept / np.linalg.norm(kept)))


def x_marginal(amplitudes, n):
    return (np.abs(amplitudes.reshape(1 << n, -1)) ** 2).sum(axis=1)


def full_state_route(inst, discipline):
    """Exact [X] distribution by projecting the whole state per branch and
    applying the dense Fourier matrix."""
    def dense(s):
        return dense_qft(s, "X")

    state = state_after_oracle(inst)
    if discipline == "skip-F":
        return x_marginal(dense(state).amplitudes, inst.n)
    f_dist = outcome_distribution(state, "F")
    total = np.zeros(inst.dimension)
    for v in f_dist.support:
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
    fast = gate(state, "inverse-qft" if inverse else "qft", reg=reg)
    dense = dense_qft(state, reg, inverse)
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
    state = with_emptied_values(state, reg, data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1)))
    mixture = PhasedMixture(state, reg)
    weights = [np.linalg.norm(state.amplitudes[values == v]) ** 2 for v in range(d)]
    support = [v for v, w in enumerate(weights) if w > PROB_EPS]
    assert mixture.slot_values == tuple(support)
    assert mixture.slot_count == len(support)
    for v, slot in zip(support, mixture_slots(mixture)):
        assert np.array_equal(slot, np.where(values == v, state.amplitudes, 0.0))


def as_bits(amplitudes):
    return amplitudes.view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(case=random_states(), data=st.data(), seed=SEEDS)
def test_dephase_block_matches_slot_route_bit_for_bit(case, data, seed):
    state, reg = case
    d = state.layout.dim(reg)
    state = with_emptied_values(state, reg, data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1)))
    mixture = PhasedMixture(state, reg)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=mixture.slot_count)
    expected = as_bits(slot_flatten(mixture, phases))
    assert np.array_equal(as_bits(mixture.flatten(phases).amplitudes), expected)
    assert np.array_equal(as_bits(sample_phases(mixture, np.random.default_rng(seed)).amplitudes), expected)
    program = CircuitProgram(state.layout, (Dephase(reg),))
    got = run(program, np.random.default_rng(seed), initial=state).final_state
    assert np.array_equal(as_bits(got.amplitudes), expected)
    zero = as_bits(slot_flatten(mixture, np.zeros(mixture.slot_count)))
    assert np.array_equal(as_bits(mixture.flatten().amplitudes), zero)


@settings(max_examples=150, deadline=None)
@given(case=random_states(max_qubits=3), data=st.data())
def test_analytic_average_matches_stack_route(case, data):
    state, reg = case
    layout = state.layout
    d = layout.dim(reg)
    state = with_emptied_values(state, reg, data.draw(st.sets(st.integers(0, d - 1), max_size=d - 1)))
    mixture = PhasedMixture(state, reg)
    keep = data.draw(st.sets(st.sampled_from(layout.names), min_size=1))
    h = mixture.slot_count
    if data.draw(st.booleans()):
        groups = None
        expected_groups = [[k] for k in range(h)]
    else:
        labels = data.draw(st.lists(st.integers(0, h - 1), min_size=h, max_size=h))
        groups = [[k for k in range(h) if labels[k] == g] for g in sorted(set(labels))]
        expected_groups = groups
    got = analytic_average_density(mixture, keep=keep, phase_groups=groups)
    assert got.registers == tuple(name for name in layout.names if name in keep)
    assert np.abs(got.matrix - stack_average(mixture, keep, expected_groups)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(case=random_states(), data=st.data())
def test_xor_register_matches_arange_reference(case, data):
    state, reg = case
    value = data.draw(st.integers(0, state.layout.dim(reg) - 1))
    partner = np.arange(state.layout.dimension) ^ (value << state.layout.offset(reg))
    work = state.amplitudes.copy()
    _xor_register(work, state.layout, reg, value)
    assert np.array_equal(work, state.amplitudes[partner])


def arange_oracle_xor(state, f, in_reg, out_reg):
    """|x>|y> -> |x>|y XOR f(x)> by a full-length partner array."""
    layout = state.layout
    values = np.asarray(f.table)[field(layout, in_reg)]
    partner = np.arange(layout.dimension) ^ (values << layout.offset(out_reg))
    return state.with_amplitudes(state.amplitudes[partner])


def arange_oracle_moded(state, f, mode_reg, in_reg, out_reg):
    """|k>|x>|y> -> |k>|x>|y XOR F(k, x)> by a full-length partner array."""
    layout = state.layout
    keys = (field(layout, mode_reg) << f.input_bits) | field(layout, in_reg)
    values = np.asarray(f.table)[keys]
    partner = np.arange(layout.dimension) ^ (values << layout.offset(out_reg))
    return state.with_amplitudes(state.amplitudes[partner])


@st.composite
def oracle_cases(draw, roles):
    """A random state on 2-4 registers with ``roles`` of them picked in any
    order, plus a random table of entries that fit the last one."""
    count = draw(st.integers(len(roles), 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    layout = RegisterLayout(tuple((f"R{i}", q) for i, q in enumerate(sizes)))
    regs = draw(st.permutations(layout.names))[: len(roles)]
    rng = np.random.default_rng(draw(SEEDS))
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    state = PureState(layout, amps / np.linalg.norm(amps))
    key_bits = sum(layout.qubits(reg) for reg in regs[:-1])
    entries = rng.integers(0, layout.dim(regs[-1]), size=1 << key_bits)
    return state, regs, entries


@settings(max_examples=80, deadline=None)
@given(case=oracle_cases(("in", "out")))
def test_oracle_xor_matches_arange_reference(case):
    state, (in_reg, out_reg), entries = case
    f = FunctionTable(state.layout.qubits(in_reg), state.layout.qubits(out_reg), entries)
    oracle = GateOp("oracle-xor", in_reg=in_reg, out_reg=out_reg, table=f)
    got = apply_instruction(state, oracle)
    assert np.array_equal(got.amplitudes, arange_oracle_xor(state, f, in_reg, out_reg).amplitudes)
    assert np.array_equal(apply_instruction(got, oracle).amplitudes, state.amplitudes)


@settings(max_examples=80, deadline=None)
@given(case=oracle_cases(("mode", "in", "out")))
def test_oracle_moded_matches_arange_reference(case):
    state, (mode_reg, in_reg, out_reg), entries = case
    layout = state.layout
    f = ModedFunctionTable(layout.qubits(mode_reg), layout.qubits(in_reg), layout.qubits(out_reg), entries)
    oracle = GateOp("oracle-moded", mode_reg=mode_reg, in_reg=in_reg, out_reg=out_reg, table=f)
    got = apply_instruction(state, oracle)
    expected = arange_oracle_moded(state, f, mode_reg, in_reg, out_reg)
    assert np.array_equal(got.amplitudes, expected.amplitudes)
    assert np.array_equal(apply_instruction(got, oracle).amplitudes, state.amplitudes)


@settings(max_examples=60, deadline=None)
@given(case=random_states(max_registers=4))
def test_grover_diffusion_matches_mean_reference(case):
    state, reg = case
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    got = gate(state, "grover-diffusion", reg=reg).amplitudes
    # the register axis made contiguous and summed pairwise: bit for bit
    pairwise = np.ascontiguousarray(np.moveaxis(block, 1, -1)).mean(-1)
    assert np.array_equal(as_bits(got), as_bits((2.0 * pairwise[:, None, :] - block).reshape(-1)))
    # the strided in-order mean adds the terms in another order
    strided = (2.0 * block.mean(axis=1, keepdims=True) - block).reshape(-1)
    assert np.abs(got - strided).max() <= 1e-14


HADAMARD_1Q = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def einsum_hadamard_all(state, reg):
    """H on every bit of the register by one 2x2 einsum per bit, each a
    fresh array."""
    layout = state.layout
    amps = state.amplitudes
    for bit in range(layout.offset(reg), layout.offset(reg) + layout.qubits(reg)):
        stride = 1 << bit
        amps = np.einsum("cd,ldr->lcr", HADAMARD_1Q, amps.reshape(-1, 2, stride)).reshape(-1)
    return amps


@settings(max_examples=80, deadline=None)
@given(case=random_states(max_registers=4))
def test_hadamard_all_matches_einsum_reference(case):
    state, reg = case
    got = gate(state, "hadamard", reg=reg)
    assert np.abs(got.amplitudes - einsum_hadamard_all(state, reg)).max() <= 1e-14
    assert np.abs(gate(got, "hadamard", reg=reg).amplitudes - state.amplitudes).max() <= 1e-14
    assert not got.amplitudes.flags.writeable
    assert not np.shares_memory(got.amplitudes, state.amplitudes)


def test_hadamard_all_on_a_16_mib_state_peaks_under_40_mib():
    state = make_basis_state(RegisterLayout.of(X=10, F=10), {"F": 3})  # 16 MiB
    tracemalloc.start()
    try:
        out = gate(state, "hadamard", reg="X")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(out.amplitudes[3] - 2.0**-5) < 1e-15
    assert peak < 40 * 2**20


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


def xor_permutation(values, output_bits):
    """The flat index map (key, y) -> (key, y XOR values[key]) over a
    table's key-major pairs, a self-inverse permutation, which the take
    route gathers along."""
    outputs = np.arange(1 << output_bits)
    keys = np.arange(values.size)[:, None] << output_bits
    return (keys | (outputs ^ values[:, None])).reshape(-1)


def take_permute_registers(state, regs, permutation):
    """The allocating oracle route: ``regs`` moved to the trailing axes, the
    amplitudes gathered along ``permutation`` over their joint value (first
    most significant) with ``np.take``, and the axes moved back."""
    layout = state.layout
    names = layout.names
    axes = [names.index(reg) for reg in regs]
    trailing = list(range(len(names) - len(regs), len(names)))
    tensor = state.amplitudes.reshape([layout.dim(name) for name in names])
    block = np.moveaxis(tensor, axes, trailing)
    batch = block.shape[: trailing[0]]
    gathered = np.take(block.reshape(batch + (-1,)), permutation, axis=-1)
    return np.moveaxis(gathered.reshape(block.shape), trailing, axes).reshape(-1)


def allocating_hadamard(state, reg):
    """The butterflies (a0 + a1, a0 - a1) of every register bit, each into a
    fresh array, then one scaling."""
    left = state.layout.axis_shape(reg)[0]
    q = state.layout.qubits(reg)
    amps = state.amplitudes
    for k in range(q):
        pairs = amps.reshape(left << k, 2, -1)
        amps = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1).reshape(-1)
    return amps * 2.0 ** (-q / 2)


def grover_diffusion_in_place(work, layout, reg):
    """The diffusion step bound to ``work`` and run once."""
    gates.bound_grover_diffusion(work, layout, reg)()


def in_place(kernel, state, *args):
    """``kernel`` run on a writable copy of the amplitudes; the copy."""
    work = state.amplitudes.copy()
    assert kernel(work, state.layout, *args) is None
    return work


LONG_RIGHT_AXIS = RegisterLayout.of(L=3, X=6, R=4)


@st.composite
def kernel_states(draw):
    """A random state on 1-4 random registers, or on the layout whose middle
    register has a long right axis."""
    if draw(st.booleans()):
        layout = LONG_RIGHT_AXIS
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        layout = RegisterLayout(tuple((f"R{i}", q) for i, q in enumerate(sizes)))
    rng = np.random.default_rng(draw(SEEDS))
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    return PureState(layout, amps / np.linalg.norm(amps))


@settings(max_examples=80, deadline=None)
@given(state=kernel_states(), data=st.data())
def test_register_kernels_in_place_match_allocating_references_bit_for_bit(state, data):
    reg = data.draw(st.sampled_from(state.layout.names))
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    got = in_place(gates.hadamard_all_in_place, state, reg)
    assert np.array_equal(as_bits(got), as_bits(allocating_hadamard(state, reg)))
    for inverse in (False, True):
        got = in_place(gates.qft_in_place, state, reg, inverse)
        transform = np.fft.fft if inverse else np.fft.ifft
        assert np.array_equal(as_bits(got), as_bits(transform(block, axis=1, norm="ortho").reshape(-1)))
    got = in_place(grover_diffusion_in_place, state, reg)
    pairwise = np.ascontiguousarray(np.moveaxis(block, 1, -1)).mean(-1)
    assert np.array_equal(as_bits(got), as_bits((2.0 * pairwise[:, None, :] - block).reshape(-1)))


@settings(max_examples=80, deadline=None)
@given(state=kernel_states(), data=st.data())
def test_oracles_in_place_match_the_take_route_bit_for_bit(state, data):
    layout = state.layout
    assume(len(layout.names) >= 2)
    # any registers in any order: trailing, leading, split by a batch register, or reversed
    regs = data.draw(st.permutations(layout.names))[: data.draw(st.integers(2, min(3, len(layout.names))))]
    rng = np.random.default_rng(data.draw(SEEDS))
    key_bits = sum(layout.qubits(reg) for reg in regs[:-1])
    entries = rng.integers(0, layout.dim(regs[-1]), size=1 << key_bits)
    if data.draw(st.booleans()):
        entries[rng.random(entries.size) < 0.5] = 0  # rows the oracle leaves alone
    widths = [layout.qubits(reg) for reg in regs]
    if len(regs) == 2:
        f = FunctionTable(*widths, entries)
        got = in_place(gates.oracle_xor_in_place, state, f, *regs)
    else:
        f = ModedFunctionTable(*widths, entries)
        got = in_place(gates.oracle_moded_in_place, state, f, *regs)
    permutation = xor_permutation(f.values, f.output_bits)
    assert np.array_equal(as_bits(got), as_bits(take_permute_registers(state, regs, permutation)))
    lo, hi = f.swaps
    assert np.array_equal(permutation[lo], hi) and np.array_equal(permutation[hi], lo)
    assert np.count_nonzero(permutation != np.arange(permutation.size)) == 2 * lo.size


def literal_average(mixture, samples, rng, keep):
    """The literal Monte Carlo average: the phases drawn in batches of 2048,
    each draw applied to the state and the phased state reduced to the
    kept registers, the reductions averaged."""
    total = 0.0
    for done in range(0, samples, 2048):
        for phases in rng.uniform(0.0, 2.0 * np.pi, size=(min(2048, samples - done), mixture.slot_count)):
            total = total + partial_trace(mixture.flatten(phases), keep).matrix
    return total / samples


@st.composite
def faint_mixtures(draw):
    """A mixture over 2 or 3 registers, each of which may be the traced
    one, with some of its values emptied and one of those holding a
    probability below ``PROB_EPS``: not a slot, but not zero either."""
    state, _ = draw(random_states(max_registers=3, max_qubits=2).filter(lambda c: len(c[0].layout.names) > 1))
    layout = state.layout
    reg = draw(st.sampled_from(layout.names))
    d = layout.dim(reg)
    empty = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1))
    faint = draw(st.sampled_from(sorted(empty)))
    state = with_emptied_values(state, reg, empty)
    amps = np.where(field(layout, reg) == faint, 1e-9 / np.sqrt(layout.dimension), state.amplitudes)
    mixture = PhasedMixture(state.with_amplitudes(amps), reg)
    assert faint not in mixture.slot_values
    return mixture


@settings(max_examples=40, deadline=None)
@given(mixture=faint_mixtures(), data=st.data(), seed=SEEDS)
def test_average_density_matches_literal_monte_carlo(mixture, data, seed):
    keep = data.draw(st.sets(st.sampled_from(mixture.layout.names), min_size=1))
    samples = data.draw(st.sampled_from([1, 2047, 2048, 2049, 4097]))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = average_density(mixture, samples, rng, keep=keep)
    expected = literal_average(mixture, samples, reference_rng, keep)
    assert np.abs(got.matrix - expected).max() < 1e-12
    assert rng.bit_generator.state == reference_rng.bit_generator.state
