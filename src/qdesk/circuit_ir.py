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

``run``, ``sample`` and ``enumerate_outcome_distribution`` walk the same
branch tree.  Up to the first visible dephasing, the state at a boundary is
a function of the outcomes drawn before it, so it is computed on demand from
the deepest state kept on that path, and each measurement's outcome
distribution is computed once per walk: sampled trials draw from it, by a
lookup in its cumulative sums, instead of replaying the unitary part.  A
dephasing whose register no later instruction but a measurement touches is
inert: no later distribution can see its phases, so the walk draws them and
applies nothing, and only ``run``'s tagged and final states carry them.
The phases themselves are applied by ``measure``'s random-phase kernel.

Unitary segments run in place.  Wherever the walk computes a state, the
gates between two projections (or a projection and the boundary asked for)
run on one work buffer, copied once from the state the segment starts at
and mutated by ``gates``' in-place kernels; the buffer is adopted as a
``PureState`` once, where the segment ends.  A kept, tagged or returned
state is never written, and ``apply_instruction`` is the same route for one
instruction.
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
    OutcomeDistribution,
    ProjectionOperator,
    _dephase,
    born_sample,
    outcome_distribution,
    project,
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
    one sampled phase per support value in a run, one Born-weighted branch
    per value that records no outcome in enumeration.  Not invertible.

    When no later instruction but a measurement touches ``reg`` the
    dephasing is inert: sampled trials still draw its phases, but draw
    their outcomes as if it were absent, and enumeration does not branch
    on it; ``run``'s tagged and final states carry the phases.  They are
    applied by ``measure``'s kernel, the one ``PhasedMixture`` uses."""

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


def _xor_register(work: np.ndarray, layout: RegisterLayout, reg: str, value: int) -> None:
    """XOR ``value`` into one register of a work buffer, in place."""
    if value == 0:
        return
    block = np.reshape(work, layout.axis_shape(reg), copy=False)
    block[...] = block[:, np.arange(block.shape[1]) ^ value, :]


def apply_instruction_in_place(
    work: np.ndarray, layout: RegisterLayout, instr: Prepare | GateOp, inverse: bool = False
) -> None:
    """Apply one unitary instruction (Prepare or GateOp), or with ``inverse``
    its inverse, to a work buffer in place, through ``gates``' kernels.

    Hadamards, both oracles, the diffusion reflection and value prepares
    are involutions, so ``inverse`` changes only the order of a "minus"
    prepare's two steps and the sign of a Fourier transform."""
    if isinstance(instr, Prepare):
        if instr.value == "uniform":
            gates.hadamard_all_in_place(work, layout, instr.reg)
        elif instr.value == "minus":
            if not inverse:
                _xor_register(work, layout, instr.reg, 1)
            gates.hadamard_all_in_place(work, layout, instr.reg)
            if inverse:
                _xor_register(work, layout, instr.reg, 1)
        else:
            _xor_register(work, layout, instr.reg, int(instr.value))
    elif not isinstance(instr, GateOp):
        raise ProgramError(f"cannot apply non-unitary instruction {instr!r}")
    elif instr.kind == "hadamard":
        gates.hadamard_all_in_place(work, layout, instr.reg)
    elif instr.kind in ("qft", "inverse-qft"):
        gates.qft_in_place(work, layout, instr.reg, inverse=inverse != (instr.kind == "inverse-qft"))
    elif instr.kind == "oracle-xor":
        gates.oracle_xor_in_place(work, layout, instr.table, instr.in_reg, instr.out_reg)
    elif instr.kind == "oracle-moded":
        gates.oracle_moded_in_place(work, layout, instr.table, instr.mode_reg, instr.in_reg, instr.out_reg)
    elif instr.kind == "grover-diffusion":
        gates.grover_diffusion_in_place(work, layout, instr.reg)


def _run_unitaries(state: PureState, instrs: Sequence[Instruction], inverse: bool = False) -> PureState:
    """``state`` with the unitary instructions among ``instrs`` applied in
    order (or their inverses, given ``inverse``), skipping measurements and
    dephasings: one copy into a work buffer, every instruction in place on
    it, and one adoption.  With no unitary among them, ``state`` itself."""
    unitary = [instr for instr in instrs if not isinstance(instr, (Measure, Dephase))]
    if not unitary:
        return state
    work = state.amplitudes.copy()
    for instr in unitary:
        apply_instruction_in_place(work, state.layout, instr, inverse)
    return PureState._adopt(state.layout, work)


def apply_instruction(state: PureState, instr: Prepare | GateOp) -> PureState:
    """Apply one unitary instruction (Prepare or GateOp) to a state."""
    if not isinstance(instr, (Prepare, GateOp)):
        raise ProgramError(f"cannot apply non-unitary instruction {instr!r}")
    return _run_unitaries(state, (instr,))


def invert_instruction(state: PureState, instr: Prepare | GateOp) -> PureState:
    """Apply the inverse of one unitary instruction."""
    if not isinstance(instr, (Prepare, GateOp)):
        raise ProgramError(f"cannot invert non-unitary instruction {instr!r}")
    return _run_unitaries(state, (instr,), inverse=True)


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


class _BranchWalk:
    """A program's branch tree, walked from one start state.

    A node is the index of a ``Measure`` or a visible ``Dephase``
    instruction together with its path: the branch values taken at the
    nodes before it (a ``Dephase`` branch is one value of its register, as
    in enumeration).  A dephasing is *inert* when no later instruction but a
    measurement touches its register: its phases are diagonal in that
    register and commute with everything after it, so no later outcome
    distribution can see them.  An inert dephasing is no node; the walk's
    states and distributions skip it.

    The state at any boundary is a function of (boundary, path), so
    ``state`` computes it on demand from the deepest state it has kept on
    that path, and ``distribution`` memoises each node's outcome
    distribution.  Kept states form one chain from the start: one per
    visited node of one path, never one per branch.
    """

    def __init__(self, program: CircuitProgram, initial: PureState | None):
        self.instructions = program.instructions
        later: set[str] = set()
        self.inert: set[int] = set()
        for i in reversed(range(len(self.instructions))):
            instr = self.instructions[i]
            if isinstance(instr, Dephase) and instr.reg not in later:
                self.inert.add(i)
            if not isinstance(instr, Measure):
                later |= touched_registers(instr)
        self.nodes = [
            i
            for i, instr in enumerate(self.instructions)
            if isinstance(instr, (Measure, Dephase)) and i not in self.inert
        ]
        self._last_draw = max(
            (i for i, instr in enumerate(self.instructions) if isinstance(instr, (Measure, Dephase))),
            default=-1,
        )
        self._chain = [(0, (), _start_state(program, initial))]
        self._distributions: dict[tuple[int, tuple[int, ...]], OutcomeDistribution] = {}

    def state(self, boundary: int, path: tuple[int, ...]) -> PureState:
        """The state after the first ``boundary`` instructions on ``path``,
        without the phases of inert dephasings.

        Each unitary segment between the kept state and the boundary runs
        in one work buffer, adopted at the node's projection that ends it
        or at the boundary; no kept state is ever written."""
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
                state = _run_unitaries(state, self.instructions[start:i])
                state = project(state, ProjectionOperator(instr.reg, path[k]))
                k, start = k + 1, i + 1
        state = _run_unitaries(state, self.instructions[start:boundary])
        chain.append((boundary, path, state))
        return state

    def distribution(self, index: int, path: tuple[int, ...]) -> OutcomeDistribution:
        """The outcome distribution of instruction ``index`` on ``path``, memoised."""
        key = (index, path)
        if key not in self._distributions:
            reg = self.instructions[index].reg
            self._distributions[key] = outcome_distribution(self.state(index, path), reg)
        return self._distributions[key]

    def trial(
        self, rng: np.random.Generator, tags: Mapping[str, int] | None = None
    ) -> tuple[tuple[MeasurementRecord, ...], dict[str, PureState], PureState | None]:
        """One sampled run: its records and, given ``tags`` (tag -> boundary),
        the states at those boundaries and the final state.

        Until a visible ``Dephase`` the trial carries only its path, and a
        state is computed only where a node's distribution is not yet
        memoised or a tag asks for it.  Every ``Dephase`` draws one uniform
        phase per support value.  An inert one applies nothing to the state
        the draws come from; past a visible one the trial carries its own
        state.  Given ``tags``, the trial also carries the state with every
        drawn phase applied, past the first inert dephasing, and reads the
        tagged and final states from it; the draws never read it.  Without
        ``tags`` nothing after the last draw is computed.  A carried state
        runs the gates since it was last read as one segment, when it is
        next read.
        """
        instrs = self.instructions
        keep = tags is not None
        stop = len(instrs) if keep else self._last_draw + 1
        records: list[MeasurementRecord] = []
        tagged: dict[str, PureState] = {}
        path: tuple[int, ...] = ()
        # carried states, as (boundary, state): brought forward through the
        # unitaries since their boundary, in one work buffer, when read
        own: tuple[int, PureState] | None = None
        phased: tuple[int, PureState] | None = None

        def forward(carried: tuple[int, PureState], i: int) -> tuple[int, PureState]:
            at, state = carried
            return i, _run_unitaries(state, instrs[at:i])

        def here(i: int) -> PureState:
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
                tagged.update((tag, here(i)) for tag, b in tags.items() if b == i)
            if not isinstance(instr, (Measure, Dephase)):
                continue
            if own is not None:
                own = forward(own, i)
            if phased is not None:
                phased = forward(phased, i)
            dist = self.distribution(i, path) if own is None else outcome_distribution(own[1], instr.reg)
            last = not keep and i == self._last_draw
            if isinstance(instr, Measure):
                outcome = born_sample(dist, rng)
                records.append(MeasurementRecord(instr.reg, outcome, float(dist.probabilities[outcome])))
                if own is None:
                    path += (outcome,)
                elif not last:
                    own = (i + 1, project(own[1], ProjectionOperator(instr.reg, outcome)))
                if phased is not None:
                    phased = (i + 1, project(phased[1], ProjectionOperator(instr.reg, outcome)))
                continue
            values = dist.support
            phases = rng.uniform(0.0, 2.0 * np.pi, size=len(values))

            def dephase(state: PureState) -> tuple[int, PureState]:
                phased_amps = _dephase(state, instr.reg, values, phases).reshape(-1)
                return i + 1, PureState._adopt(state.layout, phased_amps)

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
        final = here(len(instrs))
        tagged.update((tag, final) for tag, b in tags.items() if b == len(instrs))
        return tuple(records), tagged, final


def unitary_prefix(program: CircuitProgram, stop: int | str) -> PureState:
    """The state at boundary ``stop`` (an index or a time tag), reached by
    applying the program's instructions before it to |0...0>.  A measurement
    or dephasing before the boundary makes the prefix non-unitary and is
    rejected."""
    if isinstance(stop, str):
        if stop not in program.time_tags:
            raise ProgramError(f"program has no time tag {stop!r}")
        stop = program.time_tags[stop]
    for instr in program.instructions[:stop]:
        if isinstance(instr, (Measure, Dephase)):
            raise RewriteNotApplicableError(f"{instr!r} before boundary {stop}; not unitary")
    return _BranchWalk(program, None).state(stop, ())


def run(
    program: CircuitProgram, rng: np.random.Generator, initial: PureState | None = None
) -> RunTrace:
    """Execute the program from ``initial`` (default |0...0>), keeping the
    records, the final state and the states at the program's time tags."""
    program.validate_order()
    records, tagged, final = _BranchWalk(program, initial).trial(rng, program.time_tags)
    return RunTrace(program, final, records, tagged)


def sample(
    program: CircuitProgram,
    rng: np.random.Generator,
    trials: int,
    initial: PureState | None = None,
) -> list[tuple[MeasurementRecord, ...]]:
    """The records of ``trials`` sampled runs of the program, one tuple per
    trial: the same draws and records as ``trials`` successive ``run`` calls
    with ``rng``.

    The trials share one branch walk, so the outcome distribution of a node
    reached without a visible dephasing is computed once per call, with its
    cumulative sums, and each later draw from it is a lookup.  A trial
    computes states only past a visible ``Dephase`` or at a node no earlier
    trial reached; an inert one costs the trial its phase draw alone.
    Nothing after a trial's last draw is computed.
    """
    program.validate_order()
    walk = _BranchWalk(program, initial)
    return [walk.trial(rng)[0] for _ in range(trials)]


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

    Walks every measurement and visible dephasing branch with its Born
    weight; nothing is sampled, a dephasing branch records no outcome, and
    an inert dephasing is not branched on (its branches' weights sum to 1).
    The measurements that end the program commute, so the unobserved ones
    among them are summed out (the principle of implicit measurement).  A branch's
    state is computed only where a later node needs its distribution, so
    the last measurement is read off its distribution without a projection.
    """
    program.validate_order()
    observed = tuple(observed)
    missing = set(observed) - set(program.measured_registers())
    if missing:
        raise ProgramError(f"observed registers {sorted(missing)} are never measured")
    instrs = program.instructions
    tail = len(instrs)
    while tail > 0 and isinstance(instrs[tail - 1], Measure):
        tail -= 1
    kept = instrs[:tail] + tuple(m for m in instrs[tail:] if m.reg in observed)
    walk = _BranchWalk(CircuitProgram(program.layout, kept), initial)
    nodes = walk.nodes
    where = {kept[i].reg: k for k, i in enumerate(nodes) if isinstance(kept[i], Measure)}
    acc: dict[tuple[int, ...], float] = {}
    stack: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    while stack:
        path, weight = stack.pop()
        if len(path) < len(nodes):
            dist = walk.distribution(nodes[len(path)], path)
            stack.extend((path + (v,), weight * float(dist.probabilities[v])) for v in dist.support)
            continue
        key = tuple(path[where[reg]] for reg in observed)
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
    return _run_unitaries(state, program.instructions[from_b:to_b][::-1], inverse=True)
