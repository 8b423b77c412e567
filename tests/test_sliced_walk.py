"""The sliced branch walk against the full-state walk it replaced.

``circuit_ir``'s walk holds every branch as fixed register values times an
amplitude tensor over the free registers.  The reference kept here is the
walk that carried every branch as a full state: the same chain, memoised
distributions and trials, with each unitary segment run on the whole state
and each projection zero-filling it, and the trial that carried two states
past a dephasing: one for its draws, one with every phase for its tagged
states.  Neither divides a branch: a distribution is its undivided marginal
divided by the branch's path probability, the marginal of the node before
it at its value, and a tagged or final state is divided by its square root
where it is read.  The random programs
start from |0...0> (every register fixed) or from a random state, and gate,
prepare, dephase and query registers that are still fixed, so each of the
slice's rules runs: value prepares, Hadamards that hold a register in the
Hadamard basis, oracles with a fixed input or output or into a held output,
and gates that expand a register.
"""

import collections
import contextlib
import copy
import gc
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    Dephase,
    FunctionTable,
    GameInstance,
    GateOp,
    Measure,
    ModedFunctionTable,
    Prepare,
    PureState,
    RegisterLayout,
    build_periodic,
    make_basis_state,
    period_circuit,
    run,
    run_standard_grover,
    sample,
    standard_circuit,
)
from qdesk import circuit_ir, gates, grover
from qdesk.circuit_ir import _BranchWalk, enumerate_outcome_distribution
from qdesk.cli import main
from qdesk.errors import ShapeMismatchError
from qdesk.measure import MeasurementRecord, OutcomeDistribution, _dephase, _summed_squares, born_sample
from test_families import born_project

SEEDS = st.integers(0, 2**32 - 1)


def run_unitaries(state, instrs, real=False):
    """The replaced full-state segment: the unitary instructions among
    ``instrs``, in order, on one copy of ``state``, through the in-place
    kernels; measurements and dephasings are skipped.  Given ``real``, a
    real segment runs on the float64 view, a copy of the real parts, as the
    walk's segments do."""
    unitary = [instr for instr in instrs if not isinstance(instr, (Measure, Dephase))]
    if not unitary:
        return state
    real = real and real_segment(unitary, state.amplitudes)
    work = state.amplitudes.real.copy() if real else state.amplitudes.copy()
    for instr in unitary:
        circuit_ir._bound_kernel(work, state.layout, instr)()
    return PureState._adopt(state.layout, work.astype(np.complex128, copy=False))


def real_segment(instrs, amps):
    """Whether a segment of ``instrs`` from ``amps`` is real: no Fourier
    transform, and every imaginary part +0."""
    fourier = any(getattr(instr, "kind", None) in ("qft", "inverse-qft") for instr in instrs)
    return not fourier and not amps.imag.view(np.uint64).any()


def full_marginal(state, reg):
    """|amplitude|^2 summed over every register but ``reg``, undivided."""
    return (np.abs(state.amplitudes.reshape(state.layout.axis_shape(reg))) ** 2).sum(axis=(0, 2))


def divided(state, weight):
    """A branch's full state divided by the square root of its path probability."""
    return state if weight == 1.0 else PureState._adopt(state.layout, state.amplitudes / np.sqrt(weight))


class FullStateWalk:
    """The replaced walk: kept states, tagged states and branches are full
    states, and a trial carries its draws' state and its phased state
    apart; otherwise the sliced walk's own logic, its inert rule included.
    Its segments run on complex128, or, given ``real``, a real segment on
    float64, as ``run_unitaries`` runs it."""

    def __init__(self, program, initial, real=False):
        self.instructions, self.real = program.instructions, real
        later, self.inert, visible = set(), set(), False
        for i in reversed(range(len(self.instructions))):
            instr = self.instructions[i]
            if isinstance(instr, Dephase):
                visible = visible or instr.reg in later
                if not visible:
                    self.inert.add(i)
            if not isinstance(instr, Measure):
                later |= circuit_ir.touched_registers(instr)
        self.nodes = [
            i
            for i, instr in enumerate(self.instructions)
            if isinstance(instr, (Measure, Dephase)) and i not in self.inert
        ]
        draws = [i for i, instr in enumerate(self.instructions) if isinstance(instr, (Measure, Dephase))]
        self._last_draw = max(draws, default=-1)
        start = make_basis_state(program.layout, {}) if initial is None else initial
        self._chain = [(0, (), start)]
        self._marginals, self._distributions = {}, {}

    def state(self, boundary, path):
        chain = self._chain
        while not (chain[-1][0] <= boundary and path[: len(chain[-1][1])] == chain[-1][1]):
            chain.pop()
        at, taken, state = chain[-1]
        if at == boundary:
            return state
        k, start = len(taken), at
        for i in range(at, boundary):
            instr = self.instructions[i]
            if isinstance(instr, (Measure, Dephase)) and i not in self.inert:
                state = run_unitaries(state, self.instructions[start:i], self.real)
                state = born_project(state, instr.reg, path[k])
                k, start = k + 1, i + 1
        state = run_unitaries(state, self.instructions[start:boundary], self.real)
        chain.append((boundary, path, state))
        return state

    def weight(self, path):
        if not path:
            return 1.0
        return float(self.marginal(self.nodes[len(path) - 1], path[:-1])[path[-1]])

    def marginal(self, index, path):
        key = (index, path)
        if key not in self._marginals:
            self._marginals[key] = full_marginal(self.state(index, path), self.instructions[index].reg)
        return self._marginals[key]

    def distribution(self, index, path):
        key = (index, path)
        if key not in self._distributions:
            probabilities = self.marginal(index, path) / self.weight(path)
            self._distributions[key] = OutcomeDistribution(self.instructions[index].reg, probabilities)
        return self._distributions[key]

    def trial(self, rng, tags=None):
        instrs = self.instructions
        keep = tags is not None
        stop = len(instrs) if keep else self._last_draw + 1
        records, tagged, path, weight = [], {}, (), 1.0
        own = phased = None

        def forward(carried, i):
            at, state = carried
            return i, run_unitaries(state, instrs[at:i], self.real)

        def here(i):
            nonlocal own, phased
            if phased is not None:
                phased = forward(phased, i)
                return phased[1]
            if own is not None:
                own = forward(own, i)
                return own[1]
            return self.state(i, path)

        for i in range(stop):
            instr = instrs[i]
            if keep and i in tags.values():
                tagged.update((tag, divided(here(i), weight)) for tag, b in tags.items() if b == i)
            if not isinstance(instr, (Measure, Dephase)):
                continue
            if own is not None:
                own = forward(own, i)
            if phased is not None:
                phased = forward(phased, i)
            if own is None:
                marginal, dist = self.marginal(i, path), self.distribution(i, path)
            else:
                marginal = full_marginal(own[1], instr.reg)
                dist = OutcomeDistribution(instr.reg, marginal / weight)
            last = not keep and i == self._last_draw
            if isinstance(instr, Measure):
                outcome = born_sample(dist, rng)
                records.append(MeasurementRecord(instr.reg, outcome, float(dist.probabilities[outcome])))
                weight = float(marginal[outcome])
                if own is None:
                    path += (outcome,)
                elif not last:
                    own = (i + 1, born_project(own[1], instr.reg, outcome))
                if phased is not None:
                    phased = (i + 1, born_project(phased[1], instr.reg, outcome))
                continue
            values = dist.support
            phases = rng.uniform(0.0, 2.0 * np.pi, size=len(values))

            def dephase(state):
                block = state.amplitudes.reshape(state.layout.axis_shape(instr.reg))
                amps = _dephase(block, values, phases).reshape(-1)
                return i + 1, PureState._adopt(state.layout, amps)

            if i in self.inert:
                if keep:
                    phased = dephase(here(i))
                continue
            if phased is not None:
                phased = dephase(phased[1])
            if not last:
                own = dephase(own[1] if own is not None else self.state(i, path))
        if not keep:
            return tuple(records), tagged, None
        final = divided(here(len(instrs)), weight)
        tagged.update((tag, final) for tag, b in tags.items() if b == len(instrs))
        return tuple(records), tagged, final


def full_state_enumeration(program, observed, initial):
    """The replaced enumeration: the full-state walk, one dict entry per leaf."""
    instrs = program.instructions
    tail = len(instrs)
    while tail > 0 and isinstance(instrs[tail - 1], Measure):
        tail -= 1
    kept = instrs[:tail] + tuple(m for m in instrs[tail:] if m.reg in observed)
    walk = FullStateWalk(CircuitProgram(program.layout, kept), initial)
    nodes = walk.nodes
    where = {kept[i].reg: k for k, i in enumerate(nodes) if isinstance(kept[i], Measure)}
    acc, stack = {}, [((), 1.0)]
    while stack:
        path, weight = stack.pop()
        if len(path) < len(nodes):
            dist = walk.distribution(nodes[len(path)], path)
            stack.extend((path + (v,), weight * float(dist.probabilities[v])) for v in dist.support)
            continue
        key = tuple(path[where[reg]] for reg in observed)
        acc[key] = acc.get(key, 0.0) + weight
    return acc


def random_table(draw, input_bits, output_bits):
    return draw(st.lists(st.integers(0, (1 << output_bits) - 1), min_size=1 << input_bits, max_size=1 << input_bits))


OPS = ("prepare", "hadamard", "qft", "inverse-qft", "grover-diffusion", "oracle", "moded", "dephase", "measure")
REAL_OPS = ("prepare", "hadamard", "grover-diffusion", "oracle", "moded", "measure")


@st.composite
def sliced_programs(draw, ops=OPS):
    """A random well-ordered program on 2-3 registers that starts from
    |0...0> or, one time in four, from a random state.

    The body prepares values, "uniform" and "minus", runs every gate kind,
    both oracles, dephasings and measurements on any unmeasured register,
    fixed or not; every register still unmeasured after it is measured at
    the end, and a random non-empty subset of the measured ones is observed.
    With ``ops`` the body draws only those operations; with ``REAL_OPS`` no
    gate is a Fourier transform and nothing dephases, and the random start
    state is real, so every segment is real.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    names = [f"R{i}" for i in range(len(sizes))]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    instrs, measured = [], []
    for _ in range(draw(st.integers(0, 9))):
        free = [name for name in names if name not in measured]
        op = draw(st.sampled_from(ops))
        reg = draw(st.sampled_from(free))
        others = [name for name in free if name != reg]
        if op == "prepare":
            keywords = ["uniform", "minus"] if layout.qubits(reg) == 1 else ["uniform"]
            instrs.append(Prepare(reg, draw(st.sampled_from(keywords + [0, 1, layout.dim(reg) - 1]))))
        elif op == "oracle" and others:
            out = draw(st.sampled_from(others))
            table = FunctionTable(layout.qubits(reg), layout.qubits(out), random_table(draw, layout.qubits(reg), layout.qubits(out)))
            instrs.append(GateOp("oracle-xor", in_reg=reg, out_reg=out, table=table))
        elif op == "moded" and len(others) == 2:
            mode, out = draw(st.permutations(others))
            q = (layout.qubits(mode), layout.qubits(reg), layout.qubits(out))
            table = ModedFunctionTable(*q, random_table(draw, q[0] + q[1], q[2]))
            instrs.append(GateOp("oracle-moded", mode_reg=mode, in_reg=reg, out_reg=out, table=table))
        elif op == "dephase":
            instrs.append(Dephase(reg))
        elif op == "measure":
            instrs.append(Measure(reg))
            measured.append(reg)
            if len(measured) == len(names):
                break
        elif op in ("hadamard", "qft", "inverse-qft", "grover-diffusion"):
            instrs.append(GateOp(op, reg=reg))
    rest = draw(st.permutations([name for name in names if name not in measured]))
    instrs += [Measure(name) for name in rest]
    observed = draw(st.lists(st.sampled_from(measured + list(rest)), min_size=1, unique=True))
    initial = None
    if draw(st.integers(0, 3)) == 0:
        rng = np.random.default_rng(draw(SEEDS))
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        if ops == REAL_OPS:
            amps.imag = 0.0
        initial = PureState(layout, amps / np.linalg.norm(amps))
    return CircuitProgram(layout, tuple(instrs)), tuple(observed), initial


def assert_close(got, expected):
    assert got.layout == expected.layout
    assert got.amplitudes.dtype == np.complex128
    assert np.abs(got.amplitudes - expected.amplitudes).max() < 1e-12


def assert_states_agree(program, initial, seed, tags):
    """One trial's records, tagged states and final state against the
    full-state walk's; returns the full-state walk's trial."""
    got = _BranchWalk(program, initial).trial(np.random.default_rng(seed), tags)
    expected = FullStateWalk(program, initial).trial(np.random.default_rng(seed), tags)
    assert [(r.register, r.outcome) for r in got[0]] == [(r.register, r.outcome) for r in expected[0]]
    for tag in tags:
        state, weight = got[1][tag]
        assert_close(state.state(weight), expected[1][tag])
    assert_close(got[2]().state(got[3]), expected[2])
    return expected


def assert_distributions_agree(program, observed, initial):
    """Every node distribution, each measurement's branches expanded as one
    block of rows, and the enumeration, against the full-state walk's."""
    sliced, full = _BranchWalk(program, initial), FullStateWalk(program, initial)
    stack = [()]
    while stack:
        path = stack.pop()
        if len(path) == len(sliced.nodes):
            continue
        got = sliced.distribution(sliced.nodes[len(path)], path)
        expected = full.distribution(full.nodes[len(path)], path)
        assert np.abs(got.probabilities - expected.probabilities).max() < 1e-12
        if len(path) + 1 < len(sliced.nodes):
            sliced.expand(len(path), path, expected.support)
        stack.extend(path + (v,) for v in expected.support)
    got = enumerate_outcome_distribution(program, observed, initial)
    expected = full_state_enumeration(program, observed, initial)
    assert set(got) == set(expected)
    for key in expected:
        assert abs(got[key] - expected[key]) < 1e-12


class TestAgainstTheFullStateWalk:
    @settings(max_examples=150, deadline=None)
    @given(case=sliced_programs(), seed=SEEDS, trials=st.integers(1, 10))
    def test_sample_records_are_the_full_state_walks(self, case, seed, trials):
        program, _, initial = case
        got = sample(program, np.random.default_rng(seed), trials, initial=initial)
        reference, rng = FullStateWalk(program, initial), np.random.default_rng(seed)
        expected = [reference.trial(rng)[0] for _ in range(trials)]
        assert [[(r.register, r.outcome) for r in trial] for trial in got] == [
            [(r.register, r.outcome) for r in trial] for trial in expected
        ]
        for trial, reference_trial in zip(got, expected):
            for record, reference_record in zip(trial, reference_trial):
                assert abs(record.probability - reference_record.probability) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(case=sliced_programs(), seed=SEEDS)
    def test_tagged_and_final_states_are_the_full_state_walks(self, case, seed):
        program, _, initial = case
        assert_states_agree(program, initial, seed, {f"b{i}": i for i in range(len(program.instructions) + 1)})

    @settings(max_examples=150, deadline=None)
    @given(case=sliced_programs())
    def test_node_distributions_and_enumeration_are_the_full_state_walks(self, case):
        program, observed, initial = case
        sliced, full = _BranchWalk(program, initial), FullStateWalk(program, initial)
        stack = [()]
        while stack:
            path = stack.pop()
            if len(path) == len(sliced.nodes):
                continue
            got = sliced.distribution(sliced.nodes[len(path)], path)
            expected = full.distribution(full.nodes[len(path)], path)
            assert np.abs(got.probabilities - expected.probabilities).max() < 1e-12
            stack.extend(path + (v,) for v in expected.support)
        got = enumerate_outcome_distribution(program, observed, initial)
        expected = full_state_enumeration(program, observed, initial)
        for key in set(got) | set(expected):
            assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) < 1e-12


class TestRealPrograms:
    """A segment with no Fourier transform runs in float64, from a start
    whose imaginary parts are all +0; what it hands out is complex128,
    within 1e-12 of the complex128 full-state walk."""

    @settings(max_examples=150, deadline=None)
    @given(case=sliced_programs(REAL_OPS))
    def test_node_distributions_and_enumeration(self, case):
        program, observed, initial = case
        assert_distributions_agree(program, observed, initial)

    @settings(max_examples=100, deadline=None)
    @given(case=sliced_programs(REAL_OPS), seed=SEEDS)
    def test_tagged_and_final_states(self, case, seed):
        program, _, initial = case
        assert_states_agree(program, initial, seed, {f"b{i}": i for i in range(len(program.instructions) + 1)})

    @staticmethod
    def buffers(monkeypatch, program, initial=None):
        """The dtypes of the work buffers a diffusion kernel is bound to in a
        run of ``program``, and the dtype of its final state."""
        dtypes = []
        bind = gates.bound_grover_diffusion

        def record(work, layout, reg):
            dtypes.append(work.dtype.type)
            return bind(work, layout, reg)

        monkeypatch.setattr(gates, "bound_grover_diffusion", record)
        trace = run(program, np.random.default_rng(0), initial=initial)
        return set(dtypes), trace.final_state.amplitudes.dtype

    LAYOUT = RegisterLayout.of(X=2, Y=1)
    SEARCH = (
        Prepare("X", "uniform"),
        GateOp("oracle-xor", in_reg="X", out_reg="Y", table=FunctionTable(2, 1, (0, 1, 0, 0))),
        GateOp("grover-diffusion", reg="X"),
    )

    def test_a_real_program_runs_its_kernels_in_float64(self, monkeypatch):
        program = CircuitProgram(self.LAYOUT, self.SEARCH + (Measure("X"), Measure("Y")))
        assert self.buffers(monkeypatch, program) == ({np.float64}, np.complex128)
        start = PureState(self.LAYOUT, np.full(8, 8**-0.5))  # every imaginary part +0
        assert self.buffers(monkeypatch, program, start) == ({np.float64}, np.complex128)

    @pytest.mark.parametrize("kind", ["qft", "inverse-qft"])
    def test_a_fourier_transform_keeps_its_segment_complex128(self, monkeypatch, kind):
        program = CircuitProgram(self.LAYOUT, self.SEARCH + (GateOp(kind, reg="Y"), Measure("X"), Measure("Y")))
        assert self.buffers(monkeypatch, program) == ({np.complex128}, np.complex128)
        # a measurement ends the segment: the search before it is real
        program = CircuitProgram(self.LAYOUT, self.SEARCH + (Measure("X"), GateOp(kind, reg="Y"), Measure("Y")))
        assert self.buffers(monkeypatch, program) == ({np.float64}, np.complex128)

    def test_a_dephasing_makes_the_segment_after_it_complex128(self, monkeypatch):
        # its sampled phases give the next segment's start imaginary parts
        program = CircuitProgram(self.LAYOUT, self.SEARCH[:1] + (Dephase("X"),) + self.SEARCH[1:] + (Measure("X"), Measure("Y")))
        assert self.buffers(monkeypatch, program) == ({np.complex128}, np.complex128)

    @pytest.mark.parametrize("imaginary", [1e-300, -0.0])
    def test_a_start_with_an_imaginary_part_other_than_plus_zero_keeps_complex128(self, monkeypatch, imaginary):
        # a -0 imaginary part would be lost in a float64 buffer
        amps = np.full(8, 8**-0.5, dtype=np.complex128)
        amps.imag[5] = imaginary
        program = CircuitProgram(self.LAYOUT, self.SEARCH + (Measure("X"), Measure("Y")))
        assert self.buffers(monkeypatch, program, PureState._adopt(self.LAYOUT, amps)) == ({np.complex128}, np.complex128)


FATES = ("measured", "dephased", "unobserved", "tagged", "gathered", "gated")


def unitary_steps(draw, layout, regs, count, oracles=True):
    """Up to ``count`` random prepares, gates and, unless ``oracles`` is
    false, XOR oracles on ``regs``."""
    instrs = []
    ops = ("prepare", "hadamard", "qft", "inverse-qft", "grover-diffusion") + (("oracle",) if oracles else ())
    for _ in range(draw(st.integers(0, count))):
        reg = draw(st.sampled_from(regs))
        others = [name for name in regs if name != reg]
        op = draw(st.sampled_from(ops))
        if op == "prepare":
            keywords = ["uniform", "minus"] if layout.qubits(reg) == 1 else ["uniform"]
            instrs.append(Prepare(reg, draw(st.sampled_from(keywords + [0, 1, layout.dim(reg) - 1]))))
        elif op == "oracle" and others:
            out = draw(st.sampled_from(others))
            values = random_table(draw, layout.qubits(reg), layout.qubits(out))
            table = FunctionTable(layout.qubits(reg), layout.qubits(out), values)
            instrs.append(GateOp("oracle-xor", in_reg=reg, out_reg=out, table=table))
        elif op != "oracle":
            instrs.append(GateOp(op, reg=reg))
    return instrs


@st.composite
def held_output_programs(draw, fate):
    """A program from |0...0> on 2-3 registers in which an XOR oracle from
    a spread input I into an output O still fixed holds O as rows: no later
    instruction of the oracle's segment touches O.  Gates on the other
    registers follow it, and O is then, by ``fate``:

    * ``measured`` at a node that later gates follow;
    * ``dephased`` by an inert dephasing among the later gates;
    * ``unobserved``: measured last and summed out;
    * ``tagged``: read by a time tag among the later gates;
    * ``gathered``: left while another register is measured, and its
      branches gathered, before O's own measurement;
    * ``gated``: the same, and then touched by a gate, in the next
      segment, which writes the rows out first.

    Returns the program, the observed registers and the oracle's index.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    names = [f"R{i}" for i in range(len(sizes))]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    i_reg, o_reg = draw(st.permutations(names))[:2]
    rest = [name for name in names if name != o_reg]
    instrs = [draw(st.sampled_from([Prepare(i_reg, "uniform"), GateOp("hadamard", reg=i_reg)]))]
    instrs += unitary_steps(draw, layout, rest, 3, oracles=False)
    if draw(st.booleans()):
        instrs.append(Prepare(o_reg, draw(st.integers(1, layout.dim(o_reg) - 1))))
    table = FunctionTable(layout.qubits(i_reg), layout.qubits(o_reg), random_table(draw, layout.qubits(i_reg), layout.qubits(o_reg)))
    oracle = len(instrs)
    instrs.append(GateOp("oracle-xor", in_reg=i_reg, out_reg=o_reg, table=table))
    body = unitary_steps(draw, layout, rest, 5)
    at = draw(st.integers(0, len(body)))
    measured = []
    if fate == "measured":
        body[at:at] = [Measure(o_reg)]
        measured.append(o_reg)
    elif fate == "dephased":
        body[at:at] = [Dephase(o_reg)]
    elif fate in ("gathered", "gated"):
        first = draw(st.sampled_from(rest))
        body[at:at] = [Measure(first)]
        measured.append(first)
        body = body[: at + 1] + [instr for instr in body[at + 1 :] if first not in circuit_ir.touched_registers(instr)]
        if fate == "gated":
            body.insert(at + 1, GateOp(draw(st.sampled_from(["hadamard", "qft"])), reg=o_reg))
    instrs += body
    tags = {"mid": oracle + 1 + at} if fate == "tagged" else {}
    last = [name for name in rest if name not in measured]
    instrs += [Measure(name) for name in draw(st.permutations(last))]
    if o_reg not in measured:
        instrs.append(Measure(o_reg))
    kept = [name for name in names if name != o_reg] if fate == "unobserved" else names
    observed = tuple(draw(st.lists(st.sampled_from(kept), min_size=1, unique=True)))
    return CircuitProgram(layout, tuple(instrs), tags), observed, oracle


class TestOracleOutputHeldAsRows:
    """An oracle's output held as rows against the full-state walk, which
    writes every register out: node distributions, enumeration, sampled
    records, and the tagged and final states at every boundary."""

    @staticmethod
    def held(program, oracle):
        """The walk's state at the first draw after the oracle holds its
        output as rows."""
        first = min(i for i in program._plan.draws if i > oracle)
        state = _BranchWalk(program, None).state(first, ())
        assert program.instructions[oracle].out_reg in dict(state.rows)

    @pytest.mark.parametrize("fate", FATES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distributions_and_enumeration(self, fate, data):
        program, observed, oracle = data.draw(held_output_programs(fate))
        self.held(program, oracle)
        assert_distributions_agree(program, observed, None)

    @pytest.mark.parametrize("fate", FATES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=SEEDS, trials=st.integers(1, 10))
    def test_sampled_records(self, fate, data, seed, trials):
        program, _, oracle = data.draw(held_output_programs(fate))
        self.held(program, oracle)
        rng = np.random.default_rng(seed)
        got = sample(program, rng, trials)
        reference, expected_rng = FullStateWalk(program, None), np.random.default_rng(seed)
        expected = [reference.trial(expected_rng)[0] for _ in range(trials)]
        assert [[(r.register, r.outcome) for r in trial] for trial in got] == [
            [(r.register, r.outcome) for r in trial] for trial in expected
        ]
        for trial, reference_trial in zip(got, expected):
            for record, reference_record in zip(trial, reference_trial):
                assert abs(record.probability - reference_record.probability) < 1e-12
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("fate", FATES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_tagged_and_final_states(self, fate, data, seed):
        program, _, oracle = data.draw(held_output_programs(fate))
        self.held(program, oracle)
        tags = {**program.time_tags, **{f"b{i}": i for i in range(len(program.instructions) + 1)}}
        expected = assert_states_agree(program, None, seed, tags)
        trace = run(program, np.random.default_rng(seed))
        for tag in program.time_tags:
            assert_close(trace.state_at_tag(tag), expected[1][tag])
        assert_close(trace.final_state, expected[2])


@st.composite
def slices(draw):
    """A slice on 2-3 registers, a random subset of them fixed at random
    values, whose free amplitudes mix random values with signed zeros; one
    time in two every imaginary part is +0, a start a segment with no
    Fourier transform runs in float64."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    layout = RegisterLayout(tuple((f"R{i}", q) for i, q in enumerate(sizes)))
    fixed = {}
    for name in layout.names:
        if draw(st.booleans()):
            fixed[name] = draw(st.integers(0, layout.dim(name) - 1))
    free = circuit_ir._sublayout(layout, frozenset(layout.names).difference(fixed))
    size = 1 if free is None else free.dimension
    parts = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, allow_nan=False)),
            min_size=2 * size,
            max_size=2 * size,
        )
    )
    amps = np.array(parts).view(np.complex128)
    if draw(st.booleans()):
        amps.imag = 0.0
    amps.setflags(write=False)
    return circuit_ir._Slice(layout, fixed, free, amps)


def as_bits(state):
    return state.amplitudes.view(np.uint64)


def assert_held_rows(start, instrs):
    """Run ``instrs`` as a holding segment, one at a time, and check after
    each that the buffer, its registers held as rows written out, is bit
    for bit the full state at the fixed registers' values and at 0 in every
    register held in the Hadamard basis, signed zeros included; stop where
    a product underflows, where such a segment reruns without holding.  A
    real segment runs on the float64 view, as ``run`` starts it, and so
    does the reference."""
    layout = start.layout
    segment = circuit_ir._Segment(start, holds=True)
    real = real_segment(instrs, start.amps)
    if real:
        segment.work, segment.owned = start.amps.real.copy(), True
    for k, instr in enumerate(instrs, 1):
        try:
            with np.errstate(under="raise"):
                segment.apply(instr)
        except FloatingPointError:
            return
        free, rows, work = segment.free, segment.rows, segment.work
        while rows:
            free, rows, work = circuit_ir._write_rows(layout, free, rows, rows[-1][0], work)
        full = run_unitaries(start.state(), instrs[:k], real).amplitudes
        at = {**segment.fixed, **dict.fromkeys(segment.held, 0)}
        row = full.reshape([layout.dim(name) for name in layout.names])[
            tuple(at.get(name, slice(None)) for name in layout.names)
        ]
        row = np.ascontiguousarray(row.real if real else row)
        assert np.array_equal(work.view(np.uint64), row.reshape(-1).view(np.uint64))


def held_segment(start, data):
    """2-7 unitary instructions on ``start``'s layout whose first one is a
    prepare or a Hadamard on a fixed register (on any register if none is
    fixed): prepares and Hadamards hold fixed registers; oracles from
    fixed, free and held inputs kick back into held outputs (half of them
    target the register last prepared or transformed); diffusions run
    beside them and Fourier transforms write them out."""
    layout = start.layout
    names = layout.names
    instrs, last = [], data.draw(st.sampled_from(sorted(start.fixed) or names))
    for k in range(data.draw(st.integers(2, 7))):
        reg = last if k == 0 else data.draw(st.sampled_from(names))
        kinds = ["prepare", "hadamard"] + (["oracle", "oracle", "grover-diffusion", "qft"] if k else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "prepare":
            keywords = ["uniform", "minus"] if layout.qubits(reg) == 1 else ["uniform"]
            instrs.append(Prepare(reg, data.draw(st.sampled_from(keywords + [0, 1, layout.dim(reg) - 1]))))
            last = reg
        elif kind == "hadamard":
            instrs.append(GateOp("hadamard", reg=reg))
            last = reg
        elif kind == "oracle":
            others = [name for name in names if name != reg]
            out = last if last in others and data.draw(st.booleans()) else data.draw(st.sampled_from(others))
            values = random_table(data.draw, layout.qubits(reg), layout.qubits(out))
            table = FunctionTable(layout.qubits(reg), layout.qubits(out), values)
            instrs.append(GateOp("oracle-xor", in_reg=reg, out_reg=out, table=table))
        elif kind == "qft":
            instrs.append(GateOp(data.draw(st.sampled_from(["qft", "inverse-qft"])), reg=reg))
        else:
            instrs.append(GateOp(kind, reg=reg))
    return instrs


class TestSliceRules:
    @settings(max_examples=300, deadline=None)
    @given(start=slices(), data=st.data())
    def test_one_instruction_on_a_slice_is_the_full_state_kernel_bit_for_bit(self, start, data):
        # Hadamards and "minus" prepares free a fixed register by broadcast,
        # oracles scatter or XOR, other gates expand: each must leave the bits
        # the kernel leaves on the full state, signed zeros included
        layout = start.layout
        names = layout.names
        reg = data.draw(st.sampled_from(names))
        kind = data.draw(st.sampled_from(["prepare", "hadamard", "qft", "inverse-qft", "grover-diffusion", "oracle", "moded"]))
        others = [name for name in names if name != reg]
        if kind == "prepare":
            keywords = ["uniform", "minus"] if layout.qubits(reg) == 1 else ["uniform"]
            instr = Prepare(reg, data.draw(st.sampled_from(keywords + [0, layout.dim(reg) - 1])))
        elif kind == "oracle":
            out = data.draw(st.sampled_from(others))
            values = random_table(data.draw, layout.qubits(reg), layout.qubits(out))
            instr = GateOp("oracle-xor", in_reg=reg, out_reg=out, table=FunctionTable(layout.qubits(reg), layout.qubits(out), values))
        elif kind == "moded" and len(others) == 2:
            mode, out = data.draw(st.permutations(others))
            q = (layout.qubits(mode), layout.qubits(reg), layout.qubits(out))
            table = ModedFunctionTable(*q, random_table(data.draw, q[0] + q[1], q[2]))
            instr = GateOp("oracle-moded", mode_reg=mode, in_reg=reg, out_reg=out, table=table)
        else:
            instr = GateOp("hadamard" if kind == "moded" else kind, reg=reg)
        # a real segment and its reference run on the float64 view
        got = circuit_ir._advance(start, [instr]).state()
        expected = run_unitaries(start.state(), [instr], real=True)
        assert np.array_equal(as_bits(got), as_bits(expected))

    @settings(max_examples=500, deadline=None)
    @given(start=slices(), data=st.data())
    def test_a_segment_that_holds_registers_is_the_full_state_kernels_bit_for_bit(self, start, data):
        instrs = held_segment(start, data)
        got = circuit_ir._advance(start, instrs).state()
        expected = run_unitaries(start.state(), instrs, real=True)
        assert np.array_equal(as_bits(got), as_bits(expected))

    def test_a_diffusion_over_the_whole_slice_keeps_an_underflowed_mean_s_negative_zero(self):
        # the mean's real part, -5e-324 / 2, underflows to -0.0: the flat
        # reflection over the slice's one free register must keep it, as the
        # register-last reflection on the full state does
        layout = RegisterLayout(registers=(("R0", 2), ("R1", 1)))
        amps = np.array([0.0, complex(-5e-324, -1.0), 0.0, 0.0])
        amps.setflags(write=False)
        start = circuit_ir._Slice(layout, {"R1": 0}, RegisterLayout(registers=(("R0", 2),)), amps)
        instr = GateOp("grover-diffusion", reg="R0")
        got = circuit_ir._advance(start, [instr]).state()
        expected = run_unitaries(start.state(), [instr], real=True)
        assert np.array_equal(as_bits(got), as_bits(expected))

    @settings(max_examples=300, deadline=None)
    @given(start=slices(), data=st.data())
    def test_a_held_buffer_is_the_full_state_row_at_value_0(self, start, data):
        instrs = held_segment(start, data)
        assert_held_rows(start, instrs)

    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize(
        "amplitude",
        [
            complex(-0.0, 0.5),
            complex(0.5, -0.0),
            complex(-0.0, -0.0),
            complex(0.0, 0.0),
            complex(5e-324, 0.5),
            complex(-5e-324, -0.5),
        ],
    )
    def test_degenerate_zeros_are_written_out_as_the_kernels_leave_them(self, value, amplitude):
        # -0 parts held through a "minus" prepare (from F = 1 the held value
        # is 0), zeros negated by the kickback from a free and from a fixed
        # input, and subnormal parts whose scaling underflows; the diffusion
        # runs on the free register beside the held one
        layout = RegisterLayout.of(C=1, X=2, F=1)
        amps = np.full(4, amplitude)
        amps[1] = 0.25
        amps.setflags(write=False)
        start = circuit_ir._Slice(layout, {"C": 1, "F": value}, RegisterLayout.of(X=2), amps)
        table = FunctionTable(2, 1, (0, 1, 1, 0))
        instrs = [
            Prepare("F", "minus"),
            GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
            GateOp("grover-diffusion", reg="X"),
            GateOp("oracle-xor", in_reg="C", out_reg="F", table=FunctionTable(1, 1, (0, 1))),
            GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
        ]
        got = circuit_ir._advance(start, instrs).state()
        expected = run_unitaries(start.state(), instrs)
        assert np.array_equal(as_bits(got), as_bits(expected))
        assert_held_rows(start, instrs)

    def test_a_segment_whose_scaling_underflows_reruns_without_holding(self, monkeypatch):
        # F held at 2 by a Hadamard scales by 1/2: -5e-324 halves to a zero
        # whose sign the complex product takes from the other part, -0.5
        layout = RegisterLayout.of(X=2, F=2)
        amps = np.array([-0.5, -5e-324, -0.0, -0.5, -0.5, 0.25, -0.5, 1.0]).view(np.complex128)
        amps.setflags(write=False)
        start = circuit_ir._Slice(layout, {"F": 2}, RegisterLayout.of(X=2), amps)
        instrs = [
            GateOp("hadamard", reg="F"),
            GateOp("oracle-xor", in_reg="X", out_reg="F", table=FunctionTable(2, 2, (1, 1, 0, 2))),
        ]
        runs = []
        segment = circuit_ir._Segment

        def recording(start, holds):
            runs.append(holds)
            return segment(start, holds)

        monkeypatch.setattr(circuit_ir, "_Segment", recording)
        got = circuit_ir._advance(start, instrs).state()
        assert runs == [True, False]
        assert np.array_equal(as_bits(got), as_bits(run_unitaries(start.state(), instrs)))

    def test_the_kickback_register_stays_held_through_a_search(self, monkeypatch):
        # 16384 drawers: every diffusion runs on the search register alone,
        # one contiguous block, and no oracle swaps a pair of amplitudes;
        # the diffusion is bound once and its step replayed
        blocks, bound = [], []
        bind = gates.bound_grover_diffusion

        def record(work, layout, reg):
            bound.append(reg)
            step = bind(work, layout, reg)
            return lambda: blocks.append(layout.axis_shape(reg)) or step()

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle swapped amplitude pairs")

        monkeypatch.setattr(gates, "bound_grover_diffusion", record)
        monkeypatch.setattr(gates, "_swap_pairs", refuse)
        inst = GameInstance(16384, 5461)
        trace, transcript = run_standard_grover(inst, np.random.default_rng(0))
        state = trace.state_at_tag("pre")
        assert blocks == [(1, 16384, 1)] * transcript.oracle_queries
        assert bound == ["X"]
        assert transcript.answered_x == inst.hidden_drawer
        assert state.layout.dimension == 2 * 16384

    def test_a_held_search_buffer_is_the_search_register_alone(self, monkeypatch):
        # 2^19 drawers: up to its last diffusion, the segment's buffer holds
        # 2^19 amplitudes (8 MiB), not the 2^20 of search and kickback
        # registers together; the table's kicked inputs are built first
        drawers = 1 << 19
        program = standard_circuit(GameInstance(drawers, 3))
        instrs = program.instructions[:8]  # both prepares and three iterations
        assert instrs[2].table.kicked(1).tolist() == [3]
        sizes, peaks = [], []
        bind = gates.bound_grover_diffusion

        def record(work, layout, reg):
            step = bind(work, layout, reg)

            def replay():
                sizes.append(work.size)
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])

            return replay

        monkeypatch.setattr(gates, "bound_grover_diffusion", record)
        start = circuit_ir._start_slice(program.layout, None)
        tracemalloc.start()
        try:
            end = circuit_ir._advance(start, instrs)
        finally:
            tracemalloc.stop()
        assert sizes == [drawers] * 3
        assert peaks[-1] < 1.25 * drawers * 16
        assert end.state().amplitudes.size == 2 * drawers

    def test_an_oracle_that_does_not_fit_is_rejected_on_fixed_registers(self):
        layout = RegisterLayout.of(X=2, F=1)
        table = FunctionTable(2, 2, (0, 1, 2, 3))
        with pytest.raises(ShapeMismatchError):
            CircuitProgram(layout, (GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),))

    @pytest.mark.parametrize(
        "in_reg, table", [("X", FunctionTable(2, 2, (0, 1, 2, 3))), ("F", FunctionTable(1, 1, (0, 1)))]
    )
    def test_an_oracle_that_does_not_fit_is_rejected_on_a_held_output(self, in_reg, table):
        # a table too wide for the output, and an oracle into its own input
        layout = RegisterLayout.of(X=2, F=1)
        with pytest.raises(ShapeMismatchError):
            CircuitProgram(layout, (Prepare("F", "minus"), GateOp("oracle-xor", in_reg=in_reg, out_reg="F", table=table)))

    def test_value_prepares_and_fixed_oracles_touch_no_amplitude(self, monkeypatch):
        # |3>|0> -> |3>|f(3)> -> measured: no kernel runs and no buffer is built
        def refuse(*args, **kwargs):
            raise AssertionError("an amplitude kernel ran")

        monkeypatch.setattr(circuit_ir, "_bound_kernel", refuse)
        layout = RegisterLayout.of(X=2, F=2)
        table = FunctionTable(2, 2, (1, 2, 3, 0))
        program = CircuitProgram(
            layout,
            (Prepare("X", 3), GateOp("oracle-xor", in_reg="X", out_reg="F", table=table), Measure("F"), Measure("X")),
        )
        assert run(program, np.random.default_rng(0)).records == (
            MeasurementRecord("F", 0, 1.0),
            MeasurementRecord("X", 3, 1.0),
        )


@st.composite
def repeated_bodies(draw):
    """A unitary body repeated 1-8 times, the same instruction objects each
    pass, on 1-3 registers, then every register measured, a random
    non-empty subset of them observed.

    With two or more registers, one of them may be a 1-qubit kickback
    register K prepared "minus", which half the oracles target; the others
    start at 0, at a value or "uniform".  The body mixes XOR oracles,
    diffusions, Hadamards and Fourier transforms, so its first pass may
    hold, broadcast or expand registers that later passes find as they are.
    One time in four the program starts from a random state with subnormal
    parts instead, where a Hadamard's scaling can underflow."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    kick = len(sizes) > 1 and draw(st.booleans())
    if kick:
        sizes[-1] = 1
    names = [f"R{i}" for i in range(len(sizes))]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    initial = None
    if draw(st.integers(0, 3)) == 0:
        rng = np.random.default_rng(draw(SEEDS))
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        amps.real[rng.random(layout.dimension) < 0.3] = 1e-323
        amps /= np.linalg.norm(amps)  # the subnormal parts stay subnormal
        initial = PureState._adopt(layout, amps)
    searched = names[:-1] if kick else names
    prefix = [Prepare(names[-1], "minus")] if kick else []
    for name in searched:
        value = draw(st.sampled_from([None, "uniform", 1, layout.dim(name) - 1]))
        if value is not None:
            prefix.append(Prepare(name, value))
    body = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["oracle-xor", "grover-diffusion", "hadamard", "qft", "inverse-qft"]))
        reg = draw(st.sampled_from(searched))
        if kind != "oracle-xor":
            body.append(GateOp(kind, reg=reg))
            continue
        others = [name for name in names if name != reg]
        if not others:
            continue
        out = names[-1] if kick and draw(st.booleans()) else draw(st.sampled_from(others))
        if out == reg:
            continue
        table = FunctionTable(layout.qubits(reg), layout.qubits(out), random_table(draw, layout.qubits(reg), layout.qubits(out)))
        body.append(GateOp("oracle-xor", in_reg=reg, out_reg=out, table=table))
    body = body or [GateOp("grover-diffusion", reg=searched[0])]
    instrs = tuple(prefix) + tuple(body) * draw(st.integers(1, 8))
    measures = tuple(Measure(name) for name in draw(st.permutations(names)))
    observed = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return CircuitProgram(layout, instrs + measures, {"pre": len(instrs)}), tuple(observed), initial


class TestReplayedSteps:
    """A segment replays the resolved step of an instruction object that
    comes back under the configuration it left; the bits are those of the
    full-state walk, which dispatches every instruction afresh."""

    @settings(max_examples=200, deadline=None)
    @given(case=repeated_bodies(), seed=SEEDS)
    def test_a_repeated_body_is_the_full_state_walk_bit_for_bit(self, case, seed):
        # the state before the measurements, and the final state of the
        # body alone, where no projection renormalises; a real program's
        # reference runs on the float64 view
        program, observed, initial = case
        trace = run(program, np.random.default_rng(seed), initial=initial)
        reference = FullStateWalk(program, initial, real=True)
        records, tagged, _ = reference.trial(np.random.default_rng(seed), program.time_tags)
        assert [(r.register, r.outcome) for r in trace.records] == [(r.register, r.outcome) for r in records]
        assert np.array_equal(as_bits(trace.state_at_tag("pre")), as_bits(tagged["pre"]))
        body = CircuitProgram(program.layout, program.instructions[: program.time_tags["pre"]])
        final = run(body, np.random.default_rng(seed), initial=initial).final_state
        expected = FullStateWalk(body, initial, real=True).trial(np.random.default_rng(seed), {})[2]
        assert np.array_equal(as_bits(final), as_bits(expected))
        # a register the sliced walk keeps fixed is certain, exactly 1,
        # where the full state's marginal may read 1 + 2^-52: enumeration
        # matches the walk with every instruction a fresh object bit for
        # bit, and the full-state walk within 1e-12
        got = enumerate_outcome_distribution(program, observed, initial)
        fresh = CircuitProgram(program.layout, tuple(map(copy.copy, program.instructions)), program.time_tags)
        assert not any(a is b for a, b in zip(fresh.instructions, program.instructions))
        expected = enumerate_outcome_distribution(fresh, observed, initial)
        assert sorted(got) == sorted(expected)
        assert np.array_equal([got[key] for key in sorted(got)], [expected[key] for key in sorted(got)])
        full = full_state_enumeration(program, observed, initial)
        for key in set(got) | set(full):
            assert abs(got.get(key, 0.0) - full.get(key, 0.0)) < 1e-12

    @pytest.mark.parametrize("drawers", [64, 1024])
    def test_a_search_dispatches_its_first_two_passes_only(self, monkeypatch, drawers):
        # the first oracle writes the search register out of the Hadamard
        # basis; from the second pass on, the configuration stays
        dispatched = []
        apply = circuit_ir._Segment.apply

        def recording(segment, instr):
            dispatched.append(instr)
            return apply(segment, instr)

        monkeypatch.setattr(circuit_ir._Segment, "apply", recording)
        program = standard_circuit(GameInstance(drawers, 5))
        trace = run(program, np.random.default_rng(0))
        assert dispatched == list(program.instructions[:5])
        expected = FullStateWalk(program, None, real=True).trial(np.random.default_rng(0), program.time_tags)
        assert np.array_equal(as_bits(trace.state_at_tag("pre")), as_bits(expected[1]["pre"]))

    def test_an_underflowing_body_reruns_without_holding(self, monkeypatch):
        # the kickback register held by a "minus" prepare scales the buffer
        # by 2^(-1/2), which underflows a subnormal part; the rerun holds
        # nothing, and replays the body from its second pass
        layout = RegisterLayout.of(X=2, F=1)
        amps = np.array([0.5, 5e-324, -0.5, 0.5]).astype(np.complex128)
        amps.setflags(write=False)
        start = circuit_ir._Slice(layout, {"F": 1}, RegisterLayout.of(X=2), amps)
        table = FunctionTable(2, 1, (0, 1, 1, 0))
        body = (GateOp("oracle-xor", in_reg="X", out_reg="F", table=table), GateOp("grover-diffusion", reg="X"))
        instrs = (Prepare("F", "minus"),) + body * 5
        runs, dispatched = [], []
        segment, apply = circuit_ir._Segment, circuit_ir._Segment.apply

        def recording(start, holds):
            runs.append(holds)
            return segment(start, holds)

        monkeypatch.setattr(circuit_ir._Segment, "apply", lambda s, instr: dispatched.append(s.holds) or apply(s, instr))
        monkeypatch.setattr(circuit_ir, "_Segment", recording)
        got = circuit_ir._advance(start, instrs).state()
        assert runs == [True, False]
        assert dispatched.count(False) == 3  # the prepare and the first pass
        assert np.array_equal(as_bits(got), as_bits(run_unitaries(start.state(), instrs)))


@settings(max_examples=150, deadline=None)
@given(case=repeated_bodies(), seed=SEEDS, data=st.data())
def test_a_tag_inside_a_repeated_body_reads_the_full_state_walk_bit_for_bit(case, seed, data):
    # the segment to "pre" starts at a tag inside the run, so it replays
    # the run clipped to its own instructions
    program, _, initial = case
    pre = program.time_tags["pre"]
    program = CircuitProgram(program.layout, program.instructions, {"mid": data.draw(st.integers(0, pre)), "pre": pre})
    trace = run(program, np.random.default_rng(seed), initial=initial)
    tagged = FullStateWalk(program, initial, real=True).trial(np.random.default_rng(seed), program.time_tags)[1]
    for tag in ("mid", "pre"):
        assert np.array_equal(as_bits(trace.state_at_tag(tag)), as_bits(tagged[tag]))


def python_calls(drawers: int) -> collections.Counter:
    """The Python-level calls, by code object, of building and running the
    standard search over ``drawers`` drawers once."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    enabled = gc.isenabled()
    gc.disable()  # no collection runs a finaliser inside the count
    sys.setprofile(profile)
    try:
        run(standard_circuit(GameInstance(drawers, 5)), np.random.default_rng(0))
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def test_a_search_pays_per_distinct_instruction_not_per_iteration():
    # building and running a search of 1024 drawers (25 iterations) and of
    # 16384 (100) make the same Python-level calls, but for the two bound
    # kernel steps its body replays, the kick and the diffusion, each once
    # per iteration: the checks, the plan, the segment facts and the
    # replay's own loop make no call per iteration
    for drawers in (1024, 16384):
        python_calls(drawers)  # the layouts' and tables' first uses
    small, large = python_calls(1024), python_calls(16384)
    moved = {code for code in small.keys() | large.keys() if small[code] != large[code]}
    assert sorted(code.co_name for code in moved) == ["reflect", "step"]
    extra = grover.iteration_count(16384) - grover.iteration_count(1024)
    assert all(large[code] - small[code] == extra for code in moved)


def test_a_loaded_search_replays_nothing_and_gives_the_same_bits(monkeypatch):
    # a program loaded from its JSON holds equal but distinct objects: they
    # form no run, so every unitary instruction is dispatched, and the run
    # gives the bits of the built program, whose body replays
    program = standard_circuit(GameInstance(64, 5))
    loaded = CircuitProgram.from_json(program.to_json())
    assert program._plan.repeats and not loaded._plan.repeats
    dispatched = []
    apply = circuit_ir._Segment.apply
    monkeypatch.setattr(circuit_ir._Segment, "apply", lambda segment, instr: dispatched.append(instr) or apply(segment, instr))
    got = run(loaded, np.random.default_rng(3))
    assert dispatched == list(loaded.instructions[:-1])
    monkeypatch.undo()
    expected = run(program, np.random.default_rng(3))
    assert got.records == expected.records
    assert np.array_equal(as_bits(got.state_at_tag("pre")), as_bits(expected.state_at_tag("pre")))


@st.composite
def held_sign_programs(draw):
    """A real program from |0...0> whose first measurement, of a search
    register X of 1-3 qubits, ends a segment that holds a one-qubit
    register K in the Hadamard basis at w: K is prepared "minus" (w = 1),
    or "uniform" or by a Hadamard (w = 0).  X is prepared "uniform", by a
    Hadamard or to a value; one time in two a one-qubit register C is fixed
    at a value, whose oracle into K kicks back all signs or none, and one
    time in two a register Y of 1-2 qubits is searched beside X, so X is
    not the only free register there and K is written out for the
    reduction.  The registers come in any layout order.  The body kicks X's
    oracle back into K, runs diffusions and Hadamards on the searched
    registers, and repeats as the same objects one to four times; then X
    is measured, then K.  Returns the program and w."""
    q = draw(st.integers(1, 3))
    extra = draw(st.sampled_from([(), ("C",), ("Y",), ("C", "Y")]))
    sizes = {"X": q, "K": 1, "C": 1, "Y": draw(st.integers(1, 2))}
    layout = RegisterLayout(tuple((name, sizes[name]) for name in draw(st.permutations(("X", "K") + extra))))
    kick = draw(st.sampled_from([Prepare("K", "minus"), Prepare("K", "uniform"), GateOp("hadamard", reg="K")]))
    prefix = [kick]
    for name in ("X", "Y"):
        if name in layout.names:
            start = draw(st.sampled_from(["uniform", "hadamard", layout.dim(name) - 1]))
            prefix.append(GateOp("hadamard", reg=name) if start == "hadamard" else Prepare(name, start))
    if "C" in layout.names:
        prefix.append(Prepare("C", draw(st.integers(0, 1))))
    searched = [name for name in ("X", "Y") if name in layout.names]
    body = [GateOp("grover-diffusion", reg=name) for name in searched]  # nothing searched stays fixed or held
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["oracle", "diffusion", "hadamard", "fixed-oracle"]))
        if op == "oracle":
            table = FunctionTable(q, 1, random_table(draw, q, 1))
            body.append(GateOp("oracle-xor", in_reg="X", out_reg="K", table=table))
        elif op == "fixed-oracle" and "C" in layout.names:
            body.append(GateOp("oracle-xor", in_reg="C", out_reg="K", table=FunctionTable(1, 1, random_table(draw, 1, 1))))
        elif op in ("diffusion", "hadamard"):
            body.append(GateOp("grover-diffusion" if op == "diffusion" else "hadamard", reg=draw(st.sampled_from(searched))))
    body = draw(st.permutations(body))
    instrs = tuple(prefix) + tuple(body) * draw(st.integers(1, 4)) + (Measure("X"), Measure("K"))
    return CircuitProgram(layout, instrs), int(kick == Prepare("K", "minus"))


class InOrderWalk(FullStateWalk):
    """The full-state walk with its marginals reduced as the sliced walk
    reduces a written-out state, by ``measure``'s in-order reduction, so
    that a probability is the complex128 write-out route's to the bit."""

    def marginal(self, index, path):
        key = (index, path)
        if key not in self._marginals:
            state = self.state(index, path)
            block = state.amplitudes.reshape(1, *state.layout.axis_shape(self.instructions[index].reg))
            self._marginals[key] = _summed_squares(block, 2)[0]
        return self._marginals[key]


class TestHeldSign:
    """A segment that ends at a measurement keeps a lone held one-qubit
    register held, as a sign on its float64 buffer; what the walk reads
    from it is the complex128 write-out route's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=held_sign_programs(), seed=SEEDS, trials=st.integers(1, 8))
    def test_the_walk_reads_what_the_written_out_state_gives_bit_for_bit(self, case, seed, trials):
        program, w = case
        walk, reference = _BranchWalk(program, None), InOrderWalk(program, None, real=True)
        first, last = len(program.instructions) - 2, len(program.instructions) - 1
        end = walk.state(first, ())
        assert end.held == {"K": w} and end.amps.dtype == np.float64
        for index, path in [(first, ())] + [(last, (x,)) for x in reference.distribution(first, ()).support]:
            got, expected = walk.distribution(index, path), reference.distribution(index, path)
            assert np.array_equal(walk.marginal(index, path).view(np.uint64), reference.marginal(index, path).view(np.uint64))
            assert np.array_equal(got.probabilities.view(np.uint64), expected.probabilities.view(np.uint64))
        rng = np.random.default_rng(seed)
        expected = [reference.trial(rng)[0] for _ in range(trials)]
        assert sample(program, np.random.default_rng(seed), trials) == expected
        tags = {f"b{i}": i for i in range(len(program.instructions) + 1)}
        records, tagged, final, weight, _ = _BranchWalk(program, None).trial(np.random.default_rng(seed), tags)
        expected_records, expected_tagged, expected_final = reference.trial(np.random.default_rng(seed), tags)
        assert records == expected_records
        for tag, (state, path_weight) in tagged.items():
            assert np.array_equal(as_bits(state.state(path_weight)), as_bits(expected_tagged[tag]))
        assert np.array_equal(as_bits(final().state(weight)), as_bits(expected_final))

    @pytest.mark.parametrize("drawers", [2, 1024])
    def test_a_search_reduces_its_answer_from_the_float64_buffer(self, monkeypatch, drawers):
        # the answer's marginal is the buffer's doubled; no broadcast writes
        # the kickback register out, and the draws need no full state
        broadcasts = []
        broadcast = circuit_ir._Segment.broadcast
        monkeypatch.setattr(
            circuit_ir._Segment, "broadcast", lambda segment, reg, *dtype: broadcasts.append(reg) or broadcast(segment, reg, *dtype)
        )
        program = standard_circuit(GameInstance(drawers, 1))
        walk = _BranchWalk(program, None)
        records = walk.trial(np.random.default_rng(0))[0]
        assert broadcasts == ["X"]  # the search register, out of the Hadamard basis at the first oracle
        end = walk.state(len(program.instructions) - 1, ())
        assert end.held == {"F": 1} and end.free.names == ("X",) and end.amps.dtype == np.float64
        assert np.array_equal(walk.marginal(len(program.instructions) - 1, ()), 2 * end.amps**2)
        assert records[0].register == "X"


class TestAtTheCeiling:
    def test_a_measure_f_branch_allocates_order_2n(self):
        # n = 10: the t2 state is 2^20 amplitudes (16 MiB); one F branch
        # slices a 2^10 column, transforms and reads it
        inst = build_periodic(10, 512)
        walk = _BranchWalk(period_circuit(inst, "measure-F-at-t2"), None)
        f_dist = walk.distribution(3, ())
        tracemalloc.start()
        try:
            for v in f_dist.support[:4]:
                walk.distribution(5, (v,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * inst.dimension * 16  # 256 KiB

    def test_skip_f_report_at_n9_peaks_under_6_mib(self):
        argv = ["shor", "--n", "9", "--r", "8", "--discipline", "skip-F", "--json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # warm the imports and caches
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_deferral_check_at_the_ceiling(self, capsys):
        # 512 F branches of a 2^20-amplitude state, against the deferred
        # program's 512 X branches
        assert main(["defer-check", "--fig1", "--n", "10", "--r", "512", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tv_distance"] < 1e-10
