"""Measurement families against the child-by-child expansion they replaced.

``circuit_ir``'s walk advances every branch of a measurement as one row of
a block: the measured register's support values are gathered as rows, the
segment up to the next node runs once on the whole block and the next
node's marginal is reduced row by row.  No amplitude is divided: a branch's
squared norm is its path probability, the marginal of the node before it at
its value, and a distribution is a marginal divided by it.  The reference
kept here is the walk that expanded a node's children one at a time: each
branch projected on its own (the Born filter on the free registers,
undivided), run through its own segment and reduced on its own, with the
same chain of kept states.  Enumeration over it is the stack walk that
added each leaf branch's undivided marginal as it popped it, in ascending
order.  The two must agree bit for bit: every node distribution and every
entry of the enumerated array.
"""

import contextlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    Dephase,
    FunctionTable,
    GateOp,
    Measure,
    Prepare,
    PureState,
    RegisterLayout,
    build_periodic,
    defer_measurements,
    gates,
    period_circuit,
)
from qdesk import circuit_ir
from qdesk.cli import main
from qdesk.errors import DegenerateStateError
from qdesk.measure import PROB_EPS

SEEDS = st.integers(0, 2**32 - 1)


def born_filter(state, reg, outcome):
    """The amplitudes of a state with ``reg == outcome``, undivided, as a
    fresh ``(left, right)`` array around the register's axis."""
    return filter_block(state.amplitudes.reshape(state.layout.axis_shape(reg)), reg, outcome)


def filter_block(block, reg, outcome):
    """``born_filter`` on a ``(left, d, right)`` block."""
    if not 0 <= outcome < block.shape[1]:
        raise ValueError(f"outcome {outcome} out of range for register {reg!r}")
    return block[:, outcome, :].copy()


def born_project(state, reg, outcome):
    """The full-state projection: ``born_filter`` written into a zeroed
    state, every other amplitude zero.  Nothing is divided: the result's
    squared norm is the outcome's probability times the state's."""
    out = np.zeros(state.layout.axis_shape(reg), dtype=np.complex128)
    out[:, outcome, :] = born_filter(state, reg, outcome)
    return PureState._adopt(state.layout, out.reshape(-1))


def write_out(s, reg):
    """The slice with one register held as rows written out into its axis."""
    free, rows, amps = circuit_ir._write_rows(s.layout, s.free, s.rows, reg, s.amps)
    return circuit_ir._Slice(s.layout, s.fixed, free, amps, rows=rows)


def project_one(s, reg, outcome):
    """The replaced projection: ``born_filter`` on the slice's free
    registers, one branch at a time, undivided, the register fixed.  A
    register held as rows, or in the Hadamard basis, is written out first;
    rows held beside the projected register join the left axis of its block
    and stay held."""
    s = circuit_ir._written_out(s)
    if reg in dict(s.rows):
        s = write_out(s, reg)
    if reg in s.fixed:
        if s.fixed[reg] != outcome:
            raise DegenerateStateError(f"projection on {reg}={outcome} has zero probability")
        return s
    _, d, right = s.free.axis_shape(reg)
    amps = filter_block(s.amps.reshape(-1, d, right), reg, outcome).reshape(-1)
    amps.setflags(write=False)
    free = circuit_ir._sublayout(s.layout, frozenset(s.free.names) - {reg})
    return circuit_ir._Slice(s.layout, {**s.fixed, reg: outcome}, free, amps, rows=s.rows)


def marginal_one(s, reg, weight):
    """The replaced reduction, undivided: |amplitude|^2 of one branch's
    ``(left, d, right)`` view summed over all but the register axis, one
    term after another along ``right``, then one line after another along
    ``left``.  A fixed register carries the branch's whole ``weight``.
    Every register held as rows, or in the Hadamard basis, is written out
    first."""
    s = circuit_ir._written_out(s)
    while s.rows:
        s = write_out(s, s.rows[-1][0])
    probs = np.zeros(s.layout.dim(reg))
    if reg in s.fixed:
        probs[s.fixed[reg]] = weight
        return probs
    for line in np.abs(s.amps.reshape(s.free.axis_shape(reg))) ** 2:
        total = np.zeros(len(probs))
        for column in line.T:
            total += column
        probs += total
    return probs


def support(probs):
    return np.flatnonzero(probs > PROB_EPS).tolist()


class ChildByChildWalk:
    """The replaced walk: one kept chain of branch states, each branch of a
    node projected, advanced and reduced on its own.  A branch's weight is
    the marginal of the node before it at its value, and a distribution is
    a marginal divided by its branch's weight."""

    def __init__(self, program, initial):
        walk = circuit_ir._BranchWalk(program, initial)
        self.instructions, self.inert, self.nodes = walk.instructions, walk.inert, walk.nodes
        self._chain = [(0, (), circuit_ir._start_slice(program.layout, initial))]
        self._marginals = {}

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
                state = project_one(circuit_ir._advance(state, self.instructions[start:i]), instr.reg, path[k])
                k, start = k + 1, i + 1
        state = circuit_ir._advance(state, self.instructions[start:boundary])
        chain.append((boundary, path, state))
        return state

    def weight(self, path):
        if not path:
            return 1.0
        return float(self.marginal(self.nodes[len(path) - 1], path[:-1])[path[-1]])

    def marginal(self, index, path):
        key = (index, path)
        if key not in self._marginals:
            self._marginals[key] = marginal_one(self.state(index, path), self.instructions[index].reg, self.weight(path))
        return self._marginals[key]

    def distribution(self, index, path):
        return self.marginal(index, path) / self.weight(path)


def child_by_child_enumeration(program, observed, initial):
    """The replaced ``_enumerate``: a stack walk that pops each leaf branch,
    in ascending order, and adds its undivided marginal into the array;
    ``PROB_EPS`` applies to the sum."""
    instrs = program.instructions
    tail = len(instrs)
    while tail > 0 and isinstance(instrs[tail - 1], Measure):
        tail -= 1
    kept = instrs[:tail] + tuple(m for m in instrs[tail:] if m.reg in observed)
    walk = ChildByChildWalk(CircuitProgram(program.layout, kept), initial)
    nodes = walk.nodes
    leaf = len(nodes) - 1
    where = {kept[i].reg: k for k, i in enumerate(nodes) if isinstance(kept[i], Measure)}
    acc = np.zeros(tuple(program.layout.dim(reg) for reg in observed))
    at_leaf = tuple(slice(None) if where[reg] == leaf else None for reg in observed)
    leaf_observed = any(where[reg] == leaf for reg in observed)
    stack = [()]
    while stack:
        path = stack.pop()
        if len(path) < leaf:
            stack.extend(path + (v,) for v in reversed(support(walk.distribution(nodes[len(path)], path))))
            continue
        probs = walk.marginal(nodes[leaf], path)
        index = tuple(path[where[reg]] if at is None else at for reg, at in zip(observed, at_leaf))
        acc[index] += probs if leaf_observed else probs.sum()
    acc[acc <= PROB_EPS] = 0.0
    return walk, acc


def random_table(draw, input_bits, output_bits):
    size = 1 << input_bits
    return draw(st.lists(st.integers(0, (1 << output_bits) - 1), min_size=size, max_size=size))


def draw_gates(draw, layout, regs, count):
    """Up to ``count`` random gates, prepares and XOR oracles on ``regs``."""
    instrs = []
    for _ in range(draw(st.integers(0, count))):
        reg = draw(st.sampled_from(regs))
        op = draw(st.sampled_from(("prepare", "hadamard", "qft", "inverse-qft", "grover-diffusion", "oracle")))
        others = [name for name in regs if name != reg]
        if op == "prepare":
            keywords = ["uniform", "minus"] if layout.qubits(reg) == 1 else ["uniform"]
            instrs.append(Prepare(reg, draw(st.sampled_from(keywords + [0, 1, layout.dim(reg) - 1]))))
        elif op == "oracle":
            if others:
                out = draw(st.sampled_from(others))
                table = FunctionTable(
                    layout.qubits(reg), layout.qubits(out), random_table(draw, layout.qubits(reg), layout.qubits(out))
                )
                instrs.append(GateOp("oracle-xor", in_reg=reg, out_reg=out, table=table))
        else:
            instrs.append(GateOp(op, reg=reg))
    return instrs


@st.composite
def family_programs(draw):
    """A three-level program on three registers, measured in a random order,
    from |0...0> or, one time in four, from a random state.

    The first measured register is spread by gates that leave the last one
    untouched, so that register is still fixed after the first measurement,
    where a Hadamard or a "uniform" or "minus" prepare opens a hold on it
    and an oracle may kick back into it.  A dephasing that a later gate sees
    may sit between the first and the second measurement.  A random
    non-empty subset of the registers is observed, so an early measurement
    is often summed out.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    names = ["R0", "R1", "R2"]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    first, second, third = draw(st.permutations(names))
    instrs = [Prepare(first, "uniform")] + draw_gates(draw, layout, [first, second], 4) + [Measure(first)]
    if draw(st.booleans()):
        opens = Prepare(third, draw(st.sampled_from(["uniform", "minus"] if sizes[names.index(third)] == 1 else ["uniform"])))
        instrs.append(draw(st.sampled_from([opens, GateOp("hadamard", reg=third)])))
    instrs += draw_gates(draw, layout, [second, third], 4)
    if draw(st.booleans()):
        dephased = draw(st.sampled_from([second, third]))
        instrs += [Dephase(dephased), GateOp(draw(st.sampled_from(["hadamard", "qft"])), reg=dephased)]
    instrs += [Measure(second)] + draw_gates(draw, layout, [third], 2) + [Measure(third)]
    observed = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)))
    initial = None
    if draw(st.integers(0, 3)) == 0:
        rng = np.random.default_rng(draw(SEEDS))
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        initial = PureState(layout, amps / np.linalg.norm(amps))
    return CircuitProgram(layout, tuple(instrs)), observed, initial


def one_valued_program(order):
    """R2 held as one row, f being 0 on both inputs, then measured after R0:
    its marginal on each R0 branch is a sum of R1's eight squares, which
    numpy would add pairwise over the held register's lone value."""
    sizes = {"R0": 1, "R1": 3, "R2": 1}
    instrs = (
        (Prepare("R0", "uniform"),) * 3
        + (GateOp("oracle-xor", in_reg="R0", out_reg="R2", table=FunctionTable(1, 1, (0, 0))), Measure("R0"))
        + (Prepare("R1", "uniform"), Measure("R2"), Measure("R1"))
    )
    return CircuitProgram(RegisterLayout(tuple((name, sizes[name]) for name in order)), instrs), ("R2",), None


def mixed_realness_program():
    """R0's branches 4 and 5 have every imaginary part +0 before the
    diffusion, and 6 and 7 do not: each branch alone runs its diffusion in
    float64 or complex128, not the block's one dtype."""
    table = FunctionTable(3, 2, (0, 0, 0, 0, 0, 0, 1, 1))
    instrs = (
        Prepare("R0", "uniform"),
        GateOp("oracle-xor", in_reg="R0", out_reg="R1", table=table),
        GateOp("qft", reg="R1"),
        GateOp("hadamard", reg="R0"),
        GateOp("hadamard", reg="R0"),
        Measure("R0"),
        GateOp("grover-diffusion", reg="R1"),
        Measure("R1"),
        Measure("R2"),
    )
    return CircuitProgram(RegisterLayout.of(R0=3, R1=2, R2=1), instrs), ("R1",), None


def pinned(**given):
    """A test with the two programs above as examples, the first in every
    layout order, each with the other arguments ``given``."""

    def pin(test):
        for order in itertools.permutations(("R0", "R1", "R2")):
            test = example(case=one_valued_program(order), **given)(test)
        return example(case=mixed_realness_program(), **given)(test)

    return pin


def node_paths(walk):
    """Every (node index, path) of a walk's tree, depth first."""
    stack = [()]
    while stack:
        path = stack.pop()
        if len(path) < len(walk.nodes):
            yield walk.nodes[len(path)], path
            stack.extend(path + (v,) for v in support(walk.distribution(walk.nodes[len(path)], path)))


class TestBitForBit:
    @settings(max_examples=200, deadline=None)
    @given(case=family_programs())
    @pinned()
    def test_enumeration_is_the_child_by_child_expansion(self, case):
        program, observed, initial = case
        got = circuit_ir._enumerate(program, observed, initial)
        _, expected = child_by_child_enumeration(program, observed, initial)
        assert np.array_equal(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(case=family_programs(), split=st.integers(0, 3))
    @pinned(split=0)
    def test_node_distributions_are_the_child_by_child_ones(self, case, split):
        # every node above the last is expanded in two families, its first
        # ``split`` support values and then the rest
        program, _, initial = case
        walk = circuit_ir._BranchWalk(program, initial)
        reference = ChildByChildWalk(program, initial)
        for index, path in node_paths(reference):
            expected = reference.distribution(index, path)
            assert np.array_equal(walk.distribution(index, path).probabilities, expected)
            if len(path) + 1 < len(walk.nodes):
                walk.expand(len(path), path, support(expected)[:split])
                walk.expand(len(path), path, support(expected)[split:])

    @pytest.mark.parametrize("observed", [("X",), ("F", "X")])
    @pytest.mark.parametrize("n, r", [(5, 3), (6, 32), (8, 128)])
    def test_deferral_check_programs(self, n, r, observed):
        program = period_circuit(build_periodic(n, r), "measure-F-at-t2")
        for candidate in (program, defer_measurements(program)):
            got = circuit_ir._enumerate(candidate, tuple(sorted(observed)), None)
            _, expected = child_by_child_enumeration(candidate, tuple(sorted(observed)), None)
            assert np.array_equal(got, expected)


class TestFamilyBlocks:
    def test_a_family_advances_all_its_branches_in_one_segment(self, monkeypatch):
        # three levels: F's family runs one Fourier transform for every F
        # branch, and each of its X branches gathers a family of G values
        layout = RegisterLayout.of(X=3, F=2, G=1)
        table = FunctionTable(3, 2, (0, 1, 2, 3, 0, 1, 2, 3))
        program = CircuitProgram(
            layout,
            (
                Prepare("X", "uniform"),
                GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
                Measure("F"),
                Prepare("G", "minus"),
                GateOp("qft", reg="X"),
                Measure("X"),
                GateOp("hadamard", reg="G"),
                Measure("G"),
            ),
        )
        calls = []
        real = gates.qft_in_place
        monkeypatch.setattr(gates, "qft_in_place", lambda work, *a: calls.append(work.size) or real(work, *a))
        got = circuit_ir._enumerate(program, ("G", "X"), None)
        assert calls == [4 * 8 * 2]  # 4 F rows over X and G: the transform writes G's hold out
        _, expected = child_by_child_enumeration(program, ("G", "X"), None)
        assert np.array_equal(got, expected)

    def test_a_branch_outside_the_support_has_zero_probability(self):
        program = period_circuit(build_periodic(4, 4), "measure-F-at-t2")
        walk = circuit_ir._BranchWalk(program, None)
        assert walk.distribution(3, ()).support == (0, 1, 2, 3)
        with pytest.raises(DegenerateStateError):
            walk.distribution(5, (7,))

    def test_the_family_takes_its_parent_state_off_the_chain(self):
        program = period_circuit(build_periodic(6, 8), "measure-F-at-t2")
        walk = circuit_ir._BranchWalk(program, None)
        walk.expand(0, (), walk.distribution(3, ()).support)
        # the start, then F's eight branches as rows at the X measurement
        assert [(at, path) for at, path, _ in walk._chain] == [(0, ()), (5, ())]
        family = walk._chain[-1][2]
        assert family.rows == (("F", tuple(range(8))),) and family.amps.size == 8 * 64
        assert not family.amps.flags.writeable

    def test_a_family_gathers_only_the_branches_not_yet_reduced(self, monkeypatch):
        program = period_circuit(build_periodic(6, 8), "measure-F-at-t2")
        walk = circuit_ir._BranchWalk(program, None)
        walk.distribution(3, ())
        calls = []
        real = circuit_ir._gather
        monkeypatch.setattr(circuit_ir, "_gather", lambda *a: calls.append((a[1], tuple(a[2]))) or real(*a))
        walk.distribution(5, (2,))  # one branch alone is projected on its own
        walk.expand(0, (), (1, 2, 5))
        walk.expand(0, (), (1, 2, 5))
        assert calls == [("F", (2,)), ("F", (1, 5))]
        assert walk._chain[-1][2].rows[0] == ("F", (1, 5))
        # a branch the kept family does not hold is projected again
        walk.state(5, (2,))
        assert calls[-1] == ("F", (2,))


class TestAtTheCeiling:
    @pytest.mark.parametrize("r", [4, 32])
    def test_deferral_check_runs_as_many_transforms_at_any_period(self, monkeypatch, r):
        # one Fourier transform for all F branches of the original, one for
        # the deferred program's state
        calls = []
        real = gates.qft_in_place
        monkeypatch.setattr(gates, "qft_in_place", lambda *a: calls.append(1) or real(*a))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["defer-check", "--fig1", "--n", "6", "--r", str(r), "--json"]) == 0
        assert len(calls) == 2

    def test_deferral_check_at_n10_peaks_under_48_mib(self):
        # the 2^20-amplitude t2 state and its abs-squared reduction, with the
        # 512 F branches of 2^10 amplitudes (8 MiB) gathered as one family
        argv = ["defer-check", "--fig1", "--n", "10", "--r", "512", "--json"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_small_period_deferral_check_at_n10_peaks_under_36_mib(self):
        # r = 3: the deferred program's 1024 X branches each hold F's three
        # rows and memoise one float row of F's marginal (8 MiB together),
        # beside the two 8 MiB joint arrays the distance compares
        argv = ["defer-check", "--fig1", "--n", "10", "--r", "3", "--json"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20
