import copy
import gc
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    DegenerateStateError,
    Dephase,
    FunctionTable,
    GateOp,
    Measure,
    PhasedMixture,
    Prepare,
    ProgramError,
    ProjectionOperator,
    PureState,
    RegisterLayout,
    RewriteNotApplicableError,
    ShapeMismatchError,
    backdate_outcome,
    build_periodic,
    compare_up_to_global_phase,
    defer_measurements,
    equivalent_distributions,
    period_circuit,
    project,
    run,
    sample_phases,
    state_after_oracle,
)
from qdesk import circuit_ir, grover
from qdesk.circuit_ir import (
    apply_instruction,
    enumerate_outcome_distribution,
    instruction_from_json,
    instruction_to_json,
    unitary_prefix,
)
from qdesk.qstate import make_basis_state
from qdesk.shor import PeriodFindingInstance


def parity_program():
    return period_circuit(build_periodic(2, 2), "measure-F-at-t2")


def expected_oracle_state(n, r):
    """Hand-built (1/sqrt(N)) sum |x>|x mod r> on the X,F layout."""
    inst = build_periodic(n, r)
    layout = inst.layout
    amps = np.zeros(layout.dimension, dtype=complex)
    size = 1 << n
    for x in range(size):
        amps[layout.encode({"X": x, "F": x % r})] = 1 / math.sqrt(size)
    return PureState(layout, amps)


class TestRun:
    def test_block_diagram_staging(self):
        program = parity_program()
        trace = run(program, np.random.default_rng(0))
        t2 = trace.state_at_tag("t2")
        assert np.abs(t2.amplitudes - expected_oracle_state(2, 2).amplitudes).max() < 1e-10
        # t3 snapshot is one Born branch: X support restricted to one parity class
        t3 = trace.state_at_tag("t3")
        fbar = trace.records[0].outcome
        for x in range(4):
            weight = sum(
                abs(t3.amplitudes[program.layout.encode({"X": x, "F": f})]) ** 2 for f in range(4)
            )
            if x % 2 != fbar:
                assert weight < 1e-15

    def test_empty_program(self):
        layout = RegisterLayout.of(X=2)
        trace = run(CircuitProgram(layout, ()), np.random.default_rng(1))
        assert trace.final_state.amplitudes[0] == 1.0
        assert trace.records == ()

    def test_prepare_then_measure_is_deterministic(self):
        layout = RegisterLayout.of(X=3)
        program = CircuitProgram(layout, (Prepare("X", 5), Measure("X")))
        for seed in range(4):
            trace = run(program, np.random.default_rng(seed))
            assert trace.records[0].outcome == 5
            assert trace.records[0].probability == pytest.approx(1.0)

    def test_fixed_seed_gives_bit_identical_traces(self):
        # a copy tagged on every boundary keeps every intermediate state
        base = parity_program()
        boundaries = {str(b): b for b in range(len(base.instructions) + 1)}
        program = CircuitProgram(base.layout, base.instructions, boundaries)
        first = run(program, np.random.default_rng(99))
        second = run(program, np.random.default_rng(99))
        assert first.records == second.records
        for tag in boundaries:
            assert np.array_equal(first.state_at_tag(tag).amplitudes, second.state_at_tag(tag).amplitudes)

    def test_trace_keeps_only_tagged_and_final_states(self):
        layout = RegisterLayout.of(X=3, F=1)
        body = (GateOp("hadamard", reg="X"), GateOp("qft", reg="X")) * 99
        program = CircuitProgram(layout, (Prepare("F", "minus"),) + body + (Measure("X"),), {"mid": 100})
        assert len(program.instructions) == 200
        trace = run(program, np.random.default_rng(5))
        assert set(trace.tagged_states) == {"mid"}
        assert not hasattr(trace, "steps")
        assert np.array_equal(
            trace.state_at_tag("mid").amplitudes, unitary_prefix(program, 100).amplitudes
        )
        # the final state is written out of the walk's last slice on first read
        for read_final in (False, True):
            kept = [trace.state_at_tag("mid")] + ([trace.final_state] if read_final else [])
            gc.collect()
            alive = [o for o in gc.get_objects() if isinstance(o, PureState) and o.layout is layout]
            assert len(alive) == len(kept)
            assert all(any(o is state for o in alive) for state in kept)
        with pytest.raises(KeyError):
            trace.state_at_tag("t2")

    def test_tagged_states_and_the_final_projection_are_built_on_first_read(self, monkeypatch):
        # a search whose tags and final state no caller reads: the run
        # writes no full state and gathers no projection until one is read
        layout = RegisterLayout.of(X=2, F=1)
        table = FunctionTable(2, 1, (0, 0, 1, 0))
        body = (GateOp("oracle-xor", in_reg="X", out_reg="F", table=table), GateOp("grover-diffusion", reg="X"))
        program = CircuitProgram(layout, (Prepare("F", "minus"), Prepare("X", "uniform")) + body + (Measure("X"),), {"pre": 4})
        expected_pre = unitary_prefix(program, 4)
        expected_final = project(expected_pre, ProjectionOperator("X", 2))
        written, gathered = [], []
        state, gather = circuit_ir._Slice.state, circuit_ir._gather
        monkeypatch.setattr(circuit_ir._Slice, "state", lambda s, weight=1.0: written.append(weight) or state(s, weight))
        monkeypatch.setattr(circuit_ir, "_gather", lambda s, reg, values: gathered.append(reg) or gather(s, reg, values))
        trace = run(program, np.random.default_rng(3))
        assert trace.records[0].outcome == 2
        assert written == [] and gathered == []
        pre = trace.state_at_tag("pre")
        assert written == [1.0] and gathered == []
        assert trace.state_at_tag("pre") is pre
        assert np.array_equal(pre.amplitudes, expected_pre.amplitudes)
        final = trace.final_state
        assert gathered == ["X"] and len(written) == 2
        assert np.array_equal(final.amplitudes, expected_final.amplitudes)

    def test_a_root_distribution_is_its_marginal_undivided(self):
        # the root's path probability is exactly 1: no division pass, and no copy
        program = CircuitProgram(RegisterLayout.of(X=3), (Prepare("X", "uniform"), Measure("X")))
        walk = circuit_ir._BranchWalk(program, None)
        assert walk.distribution(1, ()).probabilities is walk.marginal(1, ())

    def test_measure_twice_rejected(self):
        layout = RegisterLayout.of(X=1)
        with pytest.raises(ProgramError, match="measured twice"):
            CircuitProgram(layout, (Measure("X"), Measure("X")))

    def test_gate_after_measure_rejected(self):
        layout = RegisterLayout.of(X=1)
        with pytest.raises(ProgramError, match="register 'X' is touched after its measurement at instruction 0"):
            CircuitProgram(layout, (Measure("X"), GateOp("hadamard", reg="X")))


class TestPrepareSemantics:
    def test_integer_value(self):
        layout = RegisterLayout.of(X=3, F=1)
        state = apply_instruction(make_basis_state(layout, {}), Prepare("X", 6))
        assert state.amplitudes[layout.encode({"X": 6})] == 1.0

    def test_uniform(self):
        layout = RegisterLayout.of(X=2)
        state = apply_instruction(make_basis_state(layout, {}), Prepare("X", "uniform"))
        assert np.allclose(state.amplitudes, 0.5)

    def test_minus(self):
        layout = RegisterLayout.of(F=1)
        state = apply_instruction(make_basis_state(layout, {}), Prepare("F", "minus"))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_minus_needs_single_qubit(self):
        layout = RegisterLayout.of(X=2)
        with pytest.raises(ProgramError):
            CircuitProgram(layout, (Prepare("X", "minus"),))

    def test_value_out_of_range(self):
        layout = RegisterLayout.of(X=1)
        with pytest.raises(ProgramError):
            CircuitProgram(layout, (Prepare("X", 2),))


@pytest.mark.parametrize(
    "instr",
    [
        Prepare("X", "minus"),
        Prepare("X", 99),
        Prepare("X", "bogus"),
        GateOp("qft"),
        GateOp("oracle-xor", in_reg="X", out_reg="F"),
        GateOp("oracle-xor", in_reg="X", out_reg="F", table=FunctionTable(2, 2, (0, 1, 2, 3))),
    ],
    ids=["minus-on-two-qubits", "value-out-of-range", "unknown-keyword", "no-register", "no-table", "table-too-wide"],
)
def test_apply_instruction_rejects_what_a_program_rejects(instr):
    layout = RegisterLayout.of(X=2, F=1)
    with pytest.raises(Exception) as built:
        CircuitProgram(layout, (instr,))
    with pytest.raises(Exception) as applied:
        apply_instruction(make_basis_state(layout, {}), instr)
    assert applied.type is built.type


class TestDeferMeasurements:
    def test_moves_early_function_measurement_to_end(self):
        program = parity_program()
        deferred = defer_measurements(program)
        kinds = [type(i).__name__ for i in deferred.instructions]
        assert kinds == ["Prepare", "GateOp", "GateOp", "GateOp", "Measure", "Measure"]
        assert deferred.instructions[-1] == Measure("F")
        assert deferred.instructions[-2] == Measure("X")

    def test_deferred_program_matches_skip_variant(self):
        inst = build_periodic(2, 2)
        deferred = defer_measurements(period_circuit(inst, "measure-F-at-t2"))
        skip = period_circuit(inst, "skip-F")
        assert deferred.instructions == skip.instructions

    def test_no_intermediate_measurements_is_identity(self):
        inst = build_periodic(2, 2)
        program = period_circuit(inst, "skip-F")
        assert defer_measurements(program) is program

    def test_measure_then_gate_is_rejected(self):
        # the frozen-register rule that deferral needs is checked when the
        # program is built, so no program that builds fails to defer
        layout = RegisterLayout.of(X=2)
        with pytest.raises(ProgramError):
            CircuitProgram(layout, (Prepare("X", "uniform"), Measure("X"), GateOp("qft", reg="X")))

    def test_tags_remap_to_surviving_boundaries(self):
        program = parity_program()
        deferred = defer_measurements(program)
        assert deferred.time_tags["t2"] == 3
        # t4 used to sit after [measure, qft]; with the measure moved it
        # lands right after the qft
        assert deferred.time_tags["t4"] == 4


class TestEquivalentDistributions:
    def test_deferred_rewrite_changes_nothing_observable(self):
        program = parity_program()
        tv = equivalent_distributions(program, defer_measurements(program), ["X"])
        assert tv.kind == "distribution"
        assert tv.value < 1e-10

    def test_program_vs_itself_is_exactly_zero(self):
        program = parity_program()
        assert equivalent_distributions(program, program, ["X", "F"]).value == 0.0

    def test_period_two_vs_period_four_separates(self):
        # enumerating both: period 2 puts 1/2 on {0, 2}; period 4 is uniform
        # over all four outcomes; total variation = 1/2
        a = period_circuit(build_periodic(2, 2), "measure-F-at-t2")
        b = period_circuit(build_periodic(2, 4), "measure-F-at-t2")
        tv = equivalent_distributions(a, b, ["X"])
        assert tv.value == pytest.approx(0.5, abs=1e-12)

    def test_layout_mismatch_rejected(self):
        a = period_circuit(build_periodic(2, 2), "skip-F")
        b = period_circuit(build_periodic(3, 2), "skip-F")
        with pytest.raises(Exception):
            equivalent_distributions(a, b, ["X"])

    def test_observed_register_must_be_measured(self):
        layout = RegisterLayout.of(X=1, F=1)
        program = CircuitProgram(layout, (Measure("X"),))
        with pytest.raises(ProgramError):
            enumerate_outcome_distribution(program, ["F"])

    @pytest.mark.parametrize("discipline", ["measure-F-at-t2", "skip-F"])
    def test_observing_no_register_is_a_program_error(self, discipline):
        # the measure-F program and its deferred rewrite: one with a
        # measurement before its last node, one whose measurements all end it
        program = period_circuit(build_periodic(3, 2), discipline)
        for candidate in (program, defer_measurements(program)):
            with pytest.raises(ProgramError, match="no observed registers"):
                enumerate_outcome_distribution(candidate, ())
            with pytest.raises(ProgramError, match="no observed registers"):
                equivalent_distributions(candidate, candidate, ())

    @pytest.mark.parametrize("seed", range(6))
    def test_deferral_sound_on_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        layout = RegisterLayout.of(X=n, F=m)
        table = FunctionTable(n, m, tuple(int(v) for v in rng.integers(0, 1 << m, size=1 << n)))
        extra = GateOp("qft" if seed % 2 else "grover-diffusion", reg="X")
        program = CircuitProgram(
            layout,
            (
                Prepare("X", int(rng.integers(0, 1 << n))),
                GateOp("hadamard", reg="X"),
                GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
                Measure("F"),
                extra,
                Measure("X"),
            ),
        )
        tv = equivalent_distributions(program, defer_measurements(program), ["X", "F"])
        assert tv.value < 1e-10


class TestUnitaryPrefix:
    def test_tag_and_boundary_agree_with_gate_by_gate(self):
        program = period_circuit(build_periodic(3, 2), "measure-F-at-t2")
        state = make_basis_state(program.layout, {})
        for boundary in range(program.time_tags["t2"] + 1):
            assert np.array_equal(unitary_prefix(program, boundary).amplitudes, state.amplitudes)
            if boundary < program.time_tags["t2"]:
                state = apply_instruction(state, program.instructions[boundary])
        assert np.array_equal(unitary_prefix(program, "t2").amplitudes, state.amplitudes)

    @pytest.mark.parametrize("discipline", ["measure-F-at-t2", "annihilate-F"])
    def test_measurement_or_dephasing_before_the_boundary_is_rejected(self, discipline):
        program = period_circuit(build_periodic(2, 2), discipline)
        unitary_prefix(program, "t2")
        with pytest.raises(RewriteNotApplicableError):
            unitary_prefix(program, "t4")

    def test_unknown_tag_is_a_program_error(self):
        with pytest.raises(ProgramError):
            unitary_prefix(parity_program(), "t9")


class TestBackdateOutcome:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_direct_projection_for_every_outcome(self, n):
        from qdesk.measure import outcome_distribution
        from qdesk.shor import divisors

        for r in divisors(1 << n):
            inst = build_periodic(n, r)
            program = period_circuit(inst, "skip-F")
            t2 = state_after_oracle(inst)
            for v in outcome_distribution(t2, "F").support:
                backdated = backdate_outcome(program, ("F", v))
                direct = project(t2, ProjectionOperator("F", v))
                assert compare_up_to_global_phase(backdated, direct).value < 1e-10

    def test_trivial_tail_reduces_to_projection(self):
        inst = build_periodic(2, 2)
        layout = inst.layout
        program = CircuitProgram(
            layout,
            (
                Prepare("X", 0),
                GateOp("hadamard", reg="X"),
                GateOp("oracle-xor", in_reg="X", out_reg="F", table=inst.table),
                Measure("F"),
            ),
            {"t2": 3},
        )
        backdated = backdate_outcome(program, ("F", 1))
        direct = project(state_after_oracle(inst), ProjectionOperator("F", 1))
        assert compare_up_to_global_phase(backdated, direct).value < 1e-12

    def test_backdates_across_every_non_fourier_inverse(self):
        # between t2 and t4: a "minus" prepare, whose inverse is the Hadamard
        # then the bit flip; an XOR oracle kicking back into it; a Hadamard;
        # an oracle that reads F, which commutes with F's projection; and a
        # diffusion.  Each but the prepare is its own inverse.
        period = FunctionTable(3, 2, [x % 3 for x in range(8)])
        kick = FunctionTable(3, 1, (0, 1, 1, 0, 1, 0, 0, 1))
        layout = RegisterLayout.of(X=3, F=2, K=1)
        program = CircuitProgram(
            layout,
            (
                Prepare("X", "uniform"),
                GateOp("oracle-xor", in_reg="X", out_reg="F", table=period),
                Prepare("K", "minus"),
                GateOp("oracle-xor", in_reg="X", out_reg="K", table=kick),
                GateOp("hadamard", reg="X"),
                GateOp("oracle-xor", in_reg="F", out_reg="K", table=FunctionTable(2, 1, (0, 1, 1, 0))),
                GateOp("grover-diffusion", reg="X"),
                Measure("F"),
                Measure("X"),
            ),
            {"t2": 2},
        )
        t2 = unitary_prefix(program, "t2")
        for v in range(3):
            backdated = backdate_outcome(program, ("F", v))
            direct = project(t2, ProjectionOperator("F", v))
            assert compare_up_to_global_phase(backdated, direct).value < 1e-12

    def test_zero_probability_outcome_is_degenerate(self):
        program = period_circuit(build_periodic(2, 2), "skip-F")
        with pytest.raises(DegenerateStateError):
            backdate_outcome(program, ("F", 3))  # parity never reaches 3

    def test_measurement_inside_segment_is_rejected(self):
        inst = build_periodic(2, 2)
        program = CircuitProgram(
            inst.layout,
            (
                Prepare("X", 0),
                GateOp("hadamard", reg="X"),
                GateOp("oracle-xor", in_reg="X", out_reg="F", table=inst.table),
                Measure("X"),
                GateOp("qft", reg="F"),
                Measure("F"),
            ),
            {"t2": 3, "t4": 5},
        )
        with pytest.raises(RewriteNotApplicableError):
            backdate_outcome(program, ("F", 0))

    def test_missing_tag_is_a_program_error(self):
        layout = RegisterLayout.of(X=1)
        program = CircuitProgram(layout, (Measure("X"),))
        with pytest.raises(ProgramError):
            backdate_outcome(program, ("X", 0))


class TestDephase:
    def test_run_draws_the_slot_phases(self):
        inst = build_periodic(3, 3)
        start = state_after_oracle(inst)
        program = CircuitProgram(inst.layout, (Dephase("F"),))
        trace = run(program, np.random.default_rng(4), initial=start)
        expected = sample_phases(PhasedMixture(start, "F"), np.random.default_rng(4))
        assert np.array_equal(trace.final_state.amplitudes, expected.amplitudes)
        assert trace.records == ()

    def test_enumeration_branches_without_recording(self):
        # |+> interferes back to |0> under H; dephased, it is a fair coin
        layout = RegisterLayout.of(X=1, F=1)
        steps = (GateOp("hadamard", reg="X"), Measure("X"))
        coherent = CircuitProgram(layout, (Prepare("X", "uniform"),) + steps)
        dephased = CircuitProgram(layout, (Prepare("X", "uniform"), Dephase("X")) + steps)
        assert enumerate_outcome_distribution(coherent, ["X"]) == pytest.approx({(0,): 1.0})
        assert enumerate_outcome_distribution(dephased, ["X"]) == pytest.approx({(0,): 0.5, (1,): 0.5})
        with pytest.raises(ProgramError):
            enumerate_outcome_distribution(CircuitProgram(layout, (Dephase("F"),)), ["F"])

    def test_not_applicable_as_a_unitary(self):
        state = make_basis_state(RegisterLayout.of(X=1), {})
        with pytest.raises(ProgramError):
            apply_instruction(state, Dephase("X"))

    def test_backdating_across_dephase_is_rejected(self):
        program = period_circuit(build_periodic(2, 2), "annihilate-F")
        with pytest.raises(RewriteNotApplicableError):
            backdate_outcome(program, ("X", 0))

    def test_dephase_after_measure_rejected(self):
        with pytest.raises(ProgramError):
            CircuitProgram(RegisterLayout.of(X=1), (Measure("X"), Dephase("X")))

    def test_initial_state_must_share_the_layout(self):
        program = CircuitProgram(RegisterLayout.of(X=2), (Measure("X"),))
        other = make_basis_state(RegisterLayout.of(X=1), {})
        with pytest.raises(ShapeMismatchError):
            run(program, np.random.default_rng(0), initial=other)
        with pytest.raises(ShapeMismatchError):
            enumerate_outcome_distribution(program, ["X"], initial=other)


@st.composite
def random_table_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    table = tuple(draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1 << n, max_size=1 << n)))
    # the full input range is always a period; the programs never read it
    return PeriodFindingInstance(n, FunctionTable(n, m, table), 1 << n, True)


@settings(max_examples=40, deadline=None)
@given(inst=random_table_instances())
def test_annihilate_and_skip_programs_agree_jointly(inst):
    annihilate = period_circuit(inst, "annihilate-F")
    skip = period_circuit(inst, "skip-F")
    assert equivalent_distributions(annihilate, skip, ["X", "F"]).value < 1e-12


class TestJsonFormat:
    def test_dephase_round_trip(self):
        program = period_circuit(build_periodic(2, 2), "annihilate-F")
        doc = json.loads(json.dumps(program.to_json()))
        assert doc["instructions"][3] == {"op": "dephase", "reg": "F"}
        back = CircuitProgram.from_json(doc)
        assert back.instructions == program.instructions
        assert back.time_tags == program.time_tags

    def test_round_trip(self):
        program = parity_program()
        doc = json.loads(json.dumps(program.to_json()))
        back = CircuitProgram.from_json(doc)
        assert back.instructions == program.instructions
        assert back.layout == program.layout
        assert back.time_tags == program.time_tags

    def test_touched_registers_are_kept_outside_the_fields(self, monkeypatch):
        # computed once per instruction object; equality, hashing, repr and
        # JSON read the fields alone
        table = FunctionTable(1, 1, (0, 1))
        made = [Prepare("X", "uniform"), GateOp("oracle-xor", in_reg="X", out_reg="F", table=table), Measure("F")]
        fresh = [Prepare("X", "uniform"), GateOp("oracle-xor", in_reg="X", out_reg="F", table=table), Measure("F")]
        assert [circuit_ir.touched_registers(i) for i in made] == [{"X"}, {"X", "F"}, {"F"}]
        monkeypatch.setattr(circuit_ir, "frozenset", lambda *args: pytest.fail("recomputed"), raising=False)
        assert [circuit_ir.touched_registers(i) for i in made] == [{"X"}, {"X", "F"}, {"F"}]
        assert made == fresh
        assert [hash(i) for i in made] == [hash(i) for i in fresh]
        assert [repr(i) for i in made] == [repr(i) for i in fresh]
        assert [instruction_to_json(i) for i in made] == [instruction_to_json(i) for i in fresh]

    def test_gate_document_shape(self):
        doc = {"op": "gate", "kind": "qft", "reg": "X"}
        assert instruction_from_json(doc) == GateOp("qft", reg="X")

    def test_unknown_op_rejected(self):
        with pytest.raises(ProgramError):
            instruction_from_json({"op": "teleport", "reg": "X"})

    def test_unknown_gate_kind_rejected(self):
        with pytest.raises(ProgramError):
            GateOp("toffoli", reg="X")

    def test_bad_tag_boundary_rejected(self):
        layout = RegisterLayout.of(X=1)
        with pytest.raises(ProgramError):
            CircuitProgram(layout, (Measure("X"),), {"t9": 7})


def old_order_rule(instrs) -> bool:
    """The order rules as ``CircuitProgram.validate_order`` checked them on
    every use, forwards: a register is measured at most once, and nothing
    but a measurement touches it after that."""
    measured: set[str] = set()
    for instr in instrs:
        if isinstance(instr, Measure):
            if instr.reg in measured:
                return False
            measured.add(instr.reg)
        elif measured & circuit_ir.touched_registers(instr):
            return False
    return True


ORDER_LAYOUTS = (RegisterLayout.of(A=1, B=1), RegisterLayout.of(A=1, B=1, C=2))
BIT_TABLE = FunctionTable(1, 1, (1, 0))


def order_instructions(names):
    reg = st.sampled_from(names)
    return st.one_of(
        reg.map(Measure),
        reg.map(Dephase),
        reg.map(lambda r: Prepare(r, "uniform")),
        reg.map(lambda r: GateOp("hadamard", reg=r)),
        reg.map(lambda r: GateOp("qft", reg=r)),
        st.permutations(("A", "B")).map(lambda p: GateOp("oracle-xor", in_reg=p[0], out_reg=p[1], table=BIT_TABLE)),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_program_builds_exactly_when_the_order_rules_hold(data):
    layout = data.draw(st.sampled_from(ORDER_LAYOUTS))
    instrs = data.draw(st.lists(order_instructions(layout.names), max_size=8))
    if old_order_rule(instrs):
        assert CircuitProgram(layout, instrs).instructions == tuple(instrs)
    else:
        with pytest.raises(ProgramError):
            CircuitProgram(layout, instrs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_program_that_builds_defers(data):
    layout = data.draw(st.sampled_from(ORDER_LAYOUTS))
    instrs = []
    for instr in data.draw(st.lists(order_instructions(layout.names), max_size=9)):
        if old_order_rule(instrs + [instr]):
            instrs.append(instr)
    program = CircuitProgram(layout, instrs)
    deferred = defer_measurements(program)
    if not program.measured_registers():
        assert deferred is program
        return
    assert sorted(deferred.measured_registers()) == sorted(program.measured_registers())
    assert all(isinstance(instr, Measure) for instr in deferred.instructions[-len(program.measured_registers()) :])
    assert equivalent_distributions(program, deferred, program.measured_registers()).value < 1e-10


def document_paths(doc, at=()):
    """Every place in a JSON document, as a path of keys and indices."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from document_paths(value, at + (key,))


PROGRAM_DOCUMENTS = [
    json.loads(json.dumps(program.to_json()))
    for program in (
        *(period_circuit(build_periodic(2, 3), discipline) for discipline in ("measure-F-at-t2", "skip-F", "annihilate-F")),
        grover.standard_circuit(grover.GameInstance(4, 1)),
        CircuitProgram(
            grover.EXTENDED_LAYOUT,
            (grover.KICKBACK, Prepare("K", "uniform"), *grover.EXTENDED_QUERY, Measure("K"), Measure("X")),
        ),
    )
]
MUTANTS = st.one_of(
    # a fresh copy per draw: a mutation inside a placed mutant must not
    # change the next example's strategy
    st.sampled_from([None, True, False, "", "teleport", "measure", "X", [], {}, [["X", 2]], {"registers": []}]).map(copy.deepcopy),
    st.sampled_from([-1, 0, 1, 2.5, 1.7, 2.0, -(2**63), 2**64, 10**30, 1e300, float("nan")]),
    st.integers(),
    st.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_mutated_document_loads_or_is_a_program_error(data):
    # dropped keys, wrong types, unknown ops, floats, booleans, huge and
    # negative integers, anywhere in the document
    doc = copy.deepcopy(data.draw(st.sampled_from(PROGRAM_DOCUMENTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(document_paths(doc))))
        if not path:
            doc = data.draw(MUTANTS)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(MUTANTS)
    try:
        CircuitProgram.from_json(doc)
    except ProgramError:
        pass


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"layout": {"registers": [["X", 2.5]]}, "instructions": []}, "qubit"),
        ({"layout": {"registers": [["X", True]]}, "instructions": []}, "qubit"),
        ({"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "prepare", "reg": "X", "value": 1.7}]}, "1.7"),
        ({"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "prepare", "reg": "X", "value": True}]}, "True"),
        ({"layout": [["X", 2]], "instructions": []}, "program.layout"),
        ({"layout": {"registers": [["X", 2]]}, "instructions": ["measure"]}, "instructions[0]"),
        ({"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "measure"}]}, "'reg'"),
        ({"layout": {"registers": [["X", 2]]}, "instructions": [{"op": "gate", "reg": "X"}]}, "'kind'"),
        (
            {
                "layout": {"registers": [["X", 1], ["F", 1]]},
                "instructions": [
                    {"op": "gate", "kind": "oracle-xor", "in_reg": "X", "out_reg": "F", "table": {"input_bits": 10**9, "output_bits": 1, "table": [0]}}
                ],
            },
            "instructions[0]: instruction.table: table widths",
        ),
    ],
)
def test_a_bad_document_names_what_is_wrong(doc, field):
    with pytest.raises(ProgramError, match=re.escape(field)):
        CircuitProgram.from_json(doc)


def test_a_built_program_carries_its_plan():
    program = period_circuit(build_periodic(3, 2), "measure-F-at-t2")
    plan = program.__dict__["_plan"]
    enumerate_outcome_distribution(program, ["X"])
    assert program._plan is plan
    assert [program.instructions[i].reg for i in plan.measures] == list(program.measured_registers())
    assert plan.tail == plan.measures[-1] and plan.nodes == plan.draws  # F mid-program, X last


def reference_order_error(instrs) -> str | None:
    """The forward order-rule loop ``CircuitProgram`` ran before its plan's
    reverse pass took the rules over: the error of the first instruction
    that breaks a rule, or None."""
    measured: dict[str, int] = {}
    for i, instr in enumerate(instrs):
        if isinstance(instr, Measure):
            if instr.reg in measured:
                return f"register {instr.reg!r} measured twice"
            measured[instr.reg] = i
        elif measured and (frozen := circuit_ir.touched_registers(instr) & measured.keys()):
            reg = min(frozen)
            return f"register {reg!r} is touched after its measurement at instruction {measured[reg]}"
    return None


def reference_plan(instrs) -> circuit_ir._Plan:
    """The plan as the lazily cached pass derived it, on a valid program."""
    later: set[str] = set()
    draws: list[int] = []
    inert: set[int] = set()
    visible, tail = False, 0
    for i in reversed(range(len(instrs))):
        instr = instrs[i]
        if isinstance(instr, Measure):
            draws.append(i)
            continue
        tail = tail or i + 1
        if isinstance(instr, Dephase):
            draws.append(i)
            visible = visible or instr.reg in later
            if not visible:
                inert.add(i)
        later |= circuit_ir.touched_registers(instr)
    draws.reverse()
    measures = [i for i in draws if isinstance(instrs[i], Measure)]
    nodes = [i for i in draws if i not in inert]
    fixed_width = draws == sorted(inert) + measures
    fourier = tuple(i for i, instr in enumerate(instrs) if isinstance(instr, GateOp) and instr.kind in ("qft", "inverse-qft"))
    return circuit_ir._Plan(
        tuple(draws), tuple(measures), frozenset(inert), tuple(nodes), tail, fixed_width, fourier, reference_repeats(instrs)
    )


def reference_repeats(instrs) -> tuple[tuple[int, int, int], ...]:
    """The runs of a repeated body, each grown one instruction at a time:
    where an object comes back after the last run, at distance p from its
    last place outside a run, with only unitary instructions between, the
    run goes on while each instruction is the object p before it."""
    runs, seen, end, i = [], {}, 0, 0
    while i < len(instrs):
        j = seen.get(id(instrs[i]), -1)
        if j >= end and all(isinstance(instr, (Prepare, GateOp)) for instr in instrs[j:i]):
            p, b = i - j, i
            while b < len(instrs) and instrs[b] is instrs[b - p]:
                b += 1
            runs.append((j, p, b))
            i = end = b
            continue
        seen[id(instrs[i])] = i
        i += 1
    return tuple(runs)


def order_violations(instrs) -> int:
    """How many (instruction, register) pairs break an order rule: a second
    measurement, or each measured register another instruction touches."""
    measured: set[str] = set()
    count = 0
    for instr in instrs:
        if isinstance(instr, Measure):
            count += instr.reg in measured
            measured.add(instr.reg)
        else:
            count += len(circuit_ir.touched_registers(instr) & measured)
    return count


def touching(reg, other):
    """Each kind of instruction that can touch ``reg`` after its measurement."""
    return [
        Measure(reg),
        Prepare(reg, "uniform"),
        GateOp("hadamard", reg=reg),
        Dephase(reg),
        GateOp("oracle-xor", in_reg=reg, out_reg=other, table=BIT_TABLE),
        GateOp("oracle-xor", in_reg=other, out_reg=reg, table=BIT_TABLE),
    ]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_plan_pass_checks_the_order_rules_as_the_forward_loop_did(data):
    layout = data.draw(st.sampled_from(ORDER_LAYOUTS))
    instrs = []
    for instr in data.draw(st.lists(order_instructions(layout.names), max_size=9)):
        if old_order_rule(instrs + [instr]):
            instrs.append(instr)
    for _ in range(data.draw(st.integers(0, 2))):
        measures = [i for i, instr in enumerate(instrs) if isinstance(instr, Measure)]
        if not measures:
            instrs.append(Measure(data.draw(st.sampled_from(layout.names))))
            measures = [len(instrs) - 1]
        at = data.draw(st.sampled_from(measures))
        reg = instrs[at].reg
        other = "B" if reg == "A" else "A"
        injected = data.draw(st.sampled_from(touching(reg, other) if reg in ("A", "B") else touching(reg, reg)[:4]))
        instrs.insert(data.draw(st.integers(at + 1, len(instrs))), injected)
    expected = reference_order_error(instrs)
    if expected is None:
        assert CircuitProgram(layout, instrs)._plan == reference_plan(instrs)
        return
    with pytest.raises(ProgramError) as raised:
        CircuitProgram(layout, instrs)
    if order_violations(instrs) == 1:
        assert str(raised.value) == expected


SHARED = (
    Prepare("A", "uniform"),
    GateOp("hadamard", reg="C"),
    GateOp("qft", reg="C"),
    GateOp("oracle-xor", in_reg="A", out_reg="B", table=BIT_TABLE),
    GateOp("grover-diffusion", reg="C"),
    Prepare("B", 1),
    Dephase("C"),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_plan_finds_the_repeated_bodies_and_their_spans_facts(data):
    # programs drawn from a few shared objects, bodies repeated as the same
    # objects among them: the plan's runs are those grown one instruction
    # at a time, and every span's unitary instructions, Fourier fact and
    # repeats are those of a scan over its slice
    layout = ORDER_LAYOUTS[1]
    picks = data.draw(st.lists(st.integers(0, len(SHARED) - 1), max_size=10))
    body = data.draw(st.lists(st.integers(0, len(SHARED) - 2), min_size=1, max_size=3))
    at = data.draw(st.integers(0, len(picks)))
    picks[at:at] = body * data.draw(st.integers(1, 6))
    instrs = [SHARED[k] for k in picks] + [Measure("B")] * data.draw(st.booleans())
    program = CircuitProgram(layout, instrs)
    assert program._plan == reference_plan(instrs)
    for a, p, b in program._plan.repeats:
        assert all(instrs[k] is instrs[k - p] for k in range(a + p, b))
    start = data.draw(st.integers(0, len(instrs)))
    stop = data.draw(st.integers(start, len(instrs)))
    span = program._span(start, stop)
    unitary = tuple(instr for instr in instrs[start:stop] if isinstance(instr, (Prepare, GateOp)))
    assert span.instrs == unitary and all(map(operator.is_, span.instrs, unitary))
    assert span.fourier == any(isinstance(instr, GateOp) and instr.kind in ("qft", "inverse-qft") for instr in unitary)
    clipped = [(max(a, start), p, min(b, stop)) for a, p, b in program._plan.repeats]
    assert len(span.repeats) == sum(b - a > p for a, p, b in clipped)
    for a, p, b in span.repeats:
        assert b - a > p and all(unitary[k] is unitary[k - p] for k in range(a + p, b))


def test_a_search_plan_holds_one_run_of_its_body():
    program = grover.standard_circuit(grover.GameInstance(1024, 5))
    k = grover.iteration_count(1024)
    plan = program._plan
    assert plan.repeats == ((2, 2, 2 + 2 * k),) and plan.fourier == ()
    span = program._span(0, program.time_tags["pre"])
    assert span == circuit_ir._Span(program.instructions[:-1], False, ((2, 2, 2 + 2 * k),))


def test_numpy_integers_are_integers():
    layout = RegisterLayout((("X", np.int64(2)),))
    program = CircuitProgram(layout, (Prepare("X", np.int64(3)), Measure("X")), {"end": np.int64(2)})
    assert enumerate_outcome_distribution(program, ["X"]) == {(3,): 1.0}
