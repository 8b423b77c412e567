"""Linear circuit programs and the rewrites that move measurements around.

A program is an ordered list of prepare / gate / dephase / measure
instructions over one register layout, with optional symbolic time tags on
instruction boundaries (boundary ``b`` means "after the first ``b``
instructions").
Tags are annotations only; instruction order is the semantics.

Three operations make intermediate measurements negotiable:

* ``defer_measurements`` moves them to the end of the program, valid when
  no later instruction touches the measured register;
* ``equivalent_distributions`` proves two programs observationally equal by
  enumerating every measurement branch exactly (no sampling) and comparing
  joint outcome distributions;
* ``backdate_outcome`` reconstructs the early post-measurement state from a
  terminal outcome by projecting the late state and running the intervening
  unitary segment backwards.

Measured registers are frozen: once measured, a register may not be
prepared, gated or dephased again.  This keeps the deferral precondition
honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ProgramError, RewriteNotApplicableError, ShapeMismatchError
from . import gates
from .gates import FunctionTable, ModedFunctionTable
from .measure import (
    MeasurementRecord,
    ProjectionOperator,
    born_sample,
    outcome_distribution,
    phased_mixture_from_state,
    project,
    sample_phases,
)
from .qstate import PureState, RegisterLayout, StateDistance, make_basis_state

GATE_KINDS = ("hadamard", "qft", "inverse-qft", "oracle-xor", "oracle-moded", "grover-diffusion")
PREPARE_KEYWORDS = ("uniform", "minus")


@dataclass(frozen=True)
class Prepare:
    """Set a register from |0...0>: an integer value, the uniform
    superposition, or the 1-qubit (|0>-|1>)/sqrt(2) state.

    Implemented unitarily (bit flips and Hadamards), so prepares stay
    invertible and never reset amplitudes.
    """

    reg: str
    value: int | str = 0


@dataclass(frozen=True)
class GateOp:
    kind: str
    reg: str | None = None
    in_reg: str | None = None
    out_reg: str | None = None
    mode_reg: str | None = None
    table: FunctionTable | ModedFunctionTable | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ProgramError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Measure:
    reg: str


@dataclass(frozen=True)
class Dephase:
    """Replace the state by its random-phase mixture over ``reg``'s values:
    sampled slot phases in ``run``, one Born-weighted branch per value that
    records no outcome in enumeration.  Not invertible."""

    reg: str


Instruction = Prepare | GateOp | Dephase | Measure


def touched_registers(instr: Instruction) -> frozenset[str]:
    if isinstance(instr, (Prepare, Dephase, Measure)):
        return frozenset({instr.reg})
    return frozenset(r for r in (instr.reg, instr.in_reg, instr.out_reg, instr.mode_reg) if r)


@dataclass(frozen=True)
class CircuitProgram:
    layout: RegisterLayout
    instructions: tuple[Instruction, ...]
    time_tags: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "time_tags", dict(self.time_tags))
        for instr in self.instructions:
            for reg in touched_registers(instr):
                self.layout.qubits(reg)  # raises UnknownRegisterError
            self._check_args(instr)
        for tag, boundary in self.time_tags.items():
            if not 0 <= boundary <= len(self.instructions):
                raise ProgramError(f"time tag {tag!r} points at boundary {boundary}, out of range")

    def _check_args(self, instr: Instruction) -> None:
        if isinstance(instr, Prepare):
            if isinstance(instr.value, str):
                if instr.value not in PREPARE_KEYWORDS:
                    raise ProgramError(f"unknown prepare keyword {instr.value!r}")
                if instr.value == "minus" and self.layout.qubits(instr.reg) != 1:
                    raise ProgramError("minus preparation needs a 1-qubit register")
            elif not 0 <= int(instr.value) < self.layout.dim(instr.reg):
                raise ProgramError(f"prepare value {instr.value} out of range for {instr.reg!r}")
        elif isinstance(instr, GateOp):
            if instr.kind in ("hadamard", "qft", "inverse-qft", "grover-diffusion"):
                if instr.reg is None:
                    raise ProgramError(f"gate {instr.kind!r} needs a target register")
            elif instr.kind == "oracle-xor":
                if not isinstance(instr.table, FunctionTable) or not instr.in_reg or not instr.out_reg:
                    raise ProgramError("oracle-xor needs in_reg, out_reg, and a function table")
            elif instr.kind == "oracle-moded":
                if (
                    not isinstance(instr.table, ModedFunctionTable)
                    or not instr.mode_reg
                    or not instr.in_reg
                    or not instr.out_reg
                ):
                    raise ProgramError("oracle-moded needs mode_reg, in_reg, out_reg, and a table")

    def measured_registers(self) -> tuple[str, ...]:
        return tuple(i.reg for i in self.instructions if isinstance(i, Measure))

    def validate_order(self) -> None:
        """Enforce measure-once and frozen-after-measure; raises ProgramError."""
        measured: set[str] = set()
        for instr in self.instructions:
            if isinstance(instr, Measure):
                if instr.reg in measured:
                    raise ProgramError(f"register {instr.reg!r} measured twice")
                measured.add(instr.reg)
            elif measured & touched_registers(instr):
                bad = sorted(measured & touched_registers(instr))
                raise ProgramError(f"instruction touches already-measured register(s) {bad}")

    def to_json(self) -> dict:
        return {
            "layout": self.layout.to_json(),
            "instructions": [instruction_to_json(i) for i in self.instructions],
            "time_tags": dict(self.time_tags),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "CircuitProgram":
        return cls(
            RegisterLayout.from_json(doc["layout"]),
            tuple(instruction_from_json(d) for d in doc["instructions"]),
            dict(doc.get("time_tags", {})),
        )


def instruction_to_json(instr: Instruction) -> dict:
    if isinstance(instr, Prepare):
        return {"op": "prepare", "reg": instr.reg, "value": instr.value}
    if isinstance(instr, Measure):
        return {"op": "measure", "reg": instr.reg}
    if isinstance(instr, Dephase):
        return {"op": "dephase", "reg": instr.reg}
    doc: dict = {"op": "gate", "kind": instr.kind}
    for key in ("reg", "in_reg", "out_reg", "mode_reg"):
        if getattr(instr, key) is not None:
            doc[key] = getattr(instr, key)
    if instr.table is not None:
        doc["table"] = instr.table.to_json()
    return doc


def instruction_from_json(doc: Mapping) -> Instruction:
    op = doc.get("op")
    if op == "prepare":
        return Prepare(doc["reg"], doc.get("value", 0))
    if op == "measure":
        return Measure(doc["reg"])
    if op == "dephase":
        return Dephase(doc["reg"])
    if op == "gate":
        table = None
        if "table" in doc:
            raw = doc["table"]
            table = (
                ModedFunctionTable.from_json(raw) if "mode_bits" in raw else FunctionTable.from_json(raw)
            )
        return GateOp(
            doc["kind"],
            reg=doc.get("reg"),
            in_reg=doc.get("in_reg"),
            out_reg=doc.get("out_reg"),
            mode_reg=doc.get("mode_reg"),
            table=table,
        )
    raise ProgramError(f"unknown instruction op {op!r}")


def _xor_register(state: PureState, reg: str, value: int) -> PureState:
    if value == 0:
        return state
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    partner = np.arange(block.shape[1]) ^ value
    return state.with_amplitudes(block[:, partner, :].reshape(-1))


def apply_instruction(state: PureState, instr: Prepare | GateOp) -> PureState:
    """Apply one unitary instruction (Prepare or GateOp) to a state."""
    if isinstance(instr, Prepare):
        if instr.value == "uniform":
            return gates.hadamard_all(state, instr.reg)
        if instr.value == "minus":
            return gates.hadamard_all(_xor_register(state, instr.reg, 1), instr.reg)
        return _xor_register(state, instr.reg, int(instr.value))
    if not isinstance(instr, GateOp):
        raise ProgramError(f"cannot apply non-unitary instruction {instr!r}")
    if instr.kind == "hadamard":
        return gates.hadamard_all(state, instr.reg)
    if instr.kind == "qft":
        return gates.qft(state, instr.reg)
    if instr.kind == "inverse-qft":
        return gates.qft(state, instr.reg, inverse=True)
    if instr.kind == "oracle-xor":
        return gates.oracle_xor(state, instr.table, instr.in_reg, instr.out_reg)
    if instr.kind == "oracle-moded":
        return gates.oracle_moded(state, instr.table, instr.mode_reg, instr.in_reg, instr.out_reg)
    if instr.kind == "grover-diffusion":
        return gates.grover_diffusion(state, instr.reg)
    raise ProgramError(f"cannot apply instruction {instr!r}")


def invert_instruction(state: PureState, instr: Prepare | GateOp) -> PureState:
    """Apply the inverse of one unitary instruction."""
    if isinstance(instr, Prepare):
        if instr.value == "uniform":
            return gates.hadamard_all(state, instr.reg)
        if instr.value == "minus":
            return _xor_register(gates.hadamard_all(state, instr.reg), instr.reg, 1)
        return _xor_register(state, instr.reg, int(instr.value))
    if not isinstance(instr, GateOp):
        raise ProgramError(f"cannot invert non-unitary instruction {instr!r}")
    if instr.kind == "qft":
        return gates.qft(state, instr.reg, inverse=True)
    if instr.kind == "inverse-qft":
        return gates.qft(state, instr.reg)
    # hadamard, both oracles, and the diffusion reflection are involutions
    return apply_instruction(state, instr)


@dataclass(frozen=True)
class RunTrace:
    """What a run leaves: its records, its final state, and the state at
    each of the program's time tags.  Untagged intermediate states are not
    kept, so tag every boundary you want to read back."""

    program: CircuitProgram
    final_state: PureState
    records: tuple[MeasurementRecord, ...]
    tagged_states: Mapping[str, PureState]

    def state_at_tag(self, tag: str) -> PureState:
        if tag not in self.tagged_states:
            raise KeyError(f"program has no time tag {tag!r}")
        return self.tagged_states[tag]


def _start_state(program: CircuitProgram, initial: PureState | None) -> PureState:
    state = make_basis_state(program.layout, {}) if initial is None else initial
    if state.layout != program.layout:
        raise ShapeMismatchError("initial state and program must share a register layout")
    return state


def unitary_prefix(program: CircuitProgram, stop: int | str) -> PureState:
    """The state at boundary ``stop`` (an index or a time tag), reached by
    applying the program's instructions before it to |0...0>.  A measurement
    or dephasing before the boundary makes the prefix non-unitary and is
    rejected."""
    if isinstance(stop, str):
        if stop not in program.time_tags:
            raise ProgramError(f"program has no time tag {stop!r}")
        stop = program.time_tags[stop]
    prefix = program.instructions[:stop]
    for instr in prefix:
        if isinstance(instr, (Measure, Dephase)):
            raise RewriteNotApplicableError(f"{instr!r} before boundary {stop}; not unitary")
    state = make_basis_state(program.layout, {})
    for instr in prefix:
        state = apply_instruction(state, instr)
    return state


def run(
    program: CircuitProgram, rng: np.random.Generator, initial: PureState | None = None
) -> RunTrace:
    """Execute the program from ``initial`` (default |0...0>), keeping the
    records, the final state and the states at the program's time tags."""
    program.validate_order()
    state = _start_state(program, initial)
    tags = program.time_tags
    tagged = {tag: state for tag, b in tags.items() if b == 0}
    records: list[MeasurementRecord] = []
    for boundary, instr in enumerate(program.instructions, start=1):
        if isinstance(instr, Measure):
            dist = outcome_distribution(state, instr.reg)
            outcome = born_sample(dist, rng)
            state = project(state, ProjectionOperator(instr.reg, outcome))
            records.append(MeasurementRecord(instr.reg, outcome, float(dist.probabilities[outcome])))
        elif isinstance(instr, Dephase):
            state = sample_phases(phased_mixture_from_state(state, instr.reg), rng)
        else:
            state = apply_instruction(state, instr)
        tagged.update((tag, state) for tag, b in tags.items() if b == boundary)
    return RunTrace(program, state, tuple(records), tagged)


def defer_measurements(program: CircuitProgram) -> CircuitProgram:
    """Move intermediate measurements to the end of the program.

    Valid only when nothing after an intermediate measurement touches the
    measured register; order among the moved measurements is preserved and
    time tags are remapped to the surviving boundaries.
    """
    instrs = list(program.instructions)
    split = len(instrs)
    while split > 0 and isinstance(instrs[split - 1], Measure):
        split -= 1
    moved = [i for i in range(split) if isinstance(instrs[i], Measure)]
    if not moved:
        return program
    for i in moved:
        reg = instrs[i].reg
        for later in instrs[i + 1 :]:
            if not isinstance(later, Measure) and reg in touched_registers(later):
                raise RewriteNotApplicableError(
                    f"cannot defer measurement of {reg!r}: a later instruction touches it"
                )
    kept = [ins for i, ins in enumerate(instrs) if i not in moved]
    reordered = kept + [instrs[i] for i in moved]
    tags = {
        tag: b - sum(1 for i in moved if i < b) for tag, b in program.time_tags.items()
    }
    return CircuitProgram(program.layout, tuple(reordered), tags)


def enumerate_outcome_distribution(
    program: CircuitProgram, observed: Sequence[str], initial: PureState | None = None
) -> dict[tuple[int, ...], float]:
    """Exact joint distribution of the observed registers' measured values,
    starting from ``initial`` (default |0...0>).

    Walks every measurement and dephasing branch with its Born weight;
    nothing is sampled.  A dephasing branch records no outcome.
    """
    program.validate_order()
    observed = tuple(observed)
    missing = set(observed) - set(program.measured_registers())
    if missing:
        raise ProgramError(f"observed registers {sorted(missing)} are never measured")
    acc: dict[tuple[int, ...], float] = {}
    start = _start_state(program, initial)
    stack: list[tuple[PureState, int, dict[str, int], float]] = [(start, 0, {}, 1.0)]
    while stack:
        state, pos, outcomes, weight = stack.pop()
        advanced = False
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            if isinstance(instr, (Measure, Dephase)):
                dist = outcome_distribution(state, instr.reg)
                for v in dist.support():
                    post = project(state, ProjectionOperator(instr.reg, v))
                    branch_outcomes = dict(outcomes)
                    if isinstance(instr, Measure):
                        branch_outcomes[instr.reg] = v
                    stack.append((post, i + 1, branch_outcomes, weight * float(dist.probabilities[v])))
                advanced = True
                break
            state = apply_instruction(state, instr)
        if not advanced:
            key = tuple(outcomes[r] for r in observed)
            acc[key] = acc.get(key, 0.0) + weight
    return acc


def equivalent_distributions(
    p1: CircuitProgram, p2: CircuitProgram, observed: Sequence[str]
) -> StateDistance:
    """Total-variation distance between the exact observed-outcome
    distributions of two programs."""
    if p1.layout != p2.layout:
        raise ShapeMismatchError("programs must share a register layout")
    observed = tuple(sorted(observed))
    d1 = enumerate_outcome_distribution(p1, observed)
    d2 = enumerate_outcome_distribution(p2, observed)
    keys = set(d1) | set(d2)
    tv = 0.5 * sum(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) for k in keys)
    return StateDistance(tv, kind="distribution")


def backdate_outcome(
    program: CircuitProgram,
    final_outcome: tuple[str, int],
    from_tag: str = "t2",
    to_tag: str = "t4",
) -> PureState:
    """Reconstruct the ``from_tag``-time post-measurement state from a
    terminal outcome: the ``unitary_prefix`` up to ``to_tag`` (default: the
    boundary before the first measurement after ``from_tag``), projected on
    the outcome, with the ``from_tag``..``to_tag`` segment run backwards.
    A measurement or dephasing before ``to_tag`` is rejected.
    """
    reg, value = final_outcome
    program.layout.qubits(reg)
    if from_tag not in program.time_tags:
        raise ProgramError(f"program has no time tag {from_tag!r}")
    from_b = program.time_tags[from_tag]
    if to_tag in program.time_tags:
        to_b = program.time_tags[to_tag]
    else:
        to_b = len(program.instructions)
        for i in range(from_b, len(program.instructions)):
            if isinstance(program.instructions[i], Measure):
                to_b = i
                break
    if to_b < from_b:
        raise ProgramError(f"tag {to_tag!r} precedes {from_tag!r}")
    state = project(unitary_prefix(program, to_b), ProjectionOperator(reg, value))
    for instr in reversed(program.instructions[from_b:to_b]):
        state = invert_instruction(state, instr)
    return state
