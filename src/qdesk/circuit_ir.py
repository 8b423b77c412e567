"""Linear circuit programs and the rewrites that move measurements around.

A program is an ordered list of prepare / gate / dephase / measure
instructions over one register layout, with optional symbolic time tags on
instruction boundaries (boundary ``b`` means "after the first ``b``
instructions").
Tags are annotations only; instruction order is the semantics.

Three operations make intermediate measurements negotiable:

* ``defer_measurements`` moves them to the end of the program, which
  every program that builds allows;
* ``equivalent_distributions`` proves two programs observationally equal by
  enumerating every measurement branch exactly (no sampling) and comparing
  joint outcome distributions;
* ``backdate_outcome`` reconstructs the early post-measurement state from a
  terminal outcome by projecting the late state and running the intervening
  unitary segment's inverse, written as instructions, forwards.

Every rule of a program is checked in one place, when its
``CircuitProgram`` is built: its registers exist, its arguments are well
formed, an oracle's table fits its registers, and the order rules hold.
The order rules freeze a measured register: it is measured at most once,
and once measured it may not be prepared, gated or dephased again.  That
rule makes every deferral sound and every measured register a batch axis
of the walk.  The order rules are checked by the one reverse pass that
plans the program, so a program is planned when it is built: its draws,
its nodes, its inert dephasings, the block of measurements that ends it,
its Fourier transforms and the runs in which it repeats a body, which the
walk and the rewrites read.  A body repeated as the same instruction
objects is checked and planned once, however often it repeats.  The walk and the kernels
check nothing as they run, so ``apply_instruction``, ``project`` and
``measure_register``, the forms that act on a ``PureState``, run as
one-instruction programs.

``run``, ``sample`` and ``enumerate_outcome_distribution`` walk the same
branch tree.  Up to the first visible dephasing, the state at a boundary is
a function of the outcomes drawn before it, so it is computed on demand from
the deepest state kept on that path, and each measurement's outcome
distribution is computed once per walk: sampled trials draw from it, by a
lookup in its cumulative sums, instead of replaying the unitary part.  A
dephasing is inert when no later instruction but a measurement touches its
register and no visible dephasing follows it: no later distribution can see
its phases, so the walk draws them and applies nothing to the states its
draws come from.  A trial carries at most one state of its own: from the
first visible dephasing on, its draws come from that state, which every
later dephasing phases.  The phases themselves are applied by
``measure``'s random-phase kernel.  When no dephasing is visible and every
one comes before the first measurement, every trial draws the same number
of doubles, so ``sample`` draws a block of trials as one array of uniforms
and looks each measurement's outcomes up in its memoised cumulative sums,
one vectorised lookup per branch.

Branches are undivided rows.  A walk state is a register slice: fixed
registers -> basis value, and the amplitudes over the free registers.  The
start |0...0> fixes every register, a value prepare changes a fixed value
and touches no amplitude, an XOR oracle whose input is fixed XORs the
constant f(input) into its output, and one whose output is fixed at v
moves each input amplitude to v XOR f(x); any other gate on a fixed
register expands it into a one-hot axis first.  This is implicit
measurement (Nielsen & Chuang 4.4) applied to the walk: no later gate
touches a measured register, so no later gate mixes the branches of its
values, and the walk holds it as rows, one row of the other registers'
amplitudes per value, a batch axis that every kernel runs on at once.  The
same holds for an oracle's fixed output until a gate touches it again, so
the walk holds it as rows from that oracle on, one row per value it takes,
leaving out the values f never takes.  A measurement's branches are the
rows of its register, gathered by one routine: a selection of the rows of
a register already held, one slice of the axis of a free one; a
projection is the one-row case.  No amplitude is divided: a branch's
squared norm is its path probability, read off the undivided marginal of
the node before it, and a node's distribution is its register's marginal,
reduced in the written-out order with the zero terms of the rows left out,
divided by that probability.  A register held as rows is written out into
its axis, zero at the values its rows miss, by one routine: for a full
state (a tagged or final one, ``unitary_prefix``'s), for a dephasing of
it, and before a later gate that touches it, in the oracle's own segment
or a later one.  Within a segment, a Hadamard (or a
"uniform" or "minus" prepare) on a fixed register holds it in the Hadamard
basis: the register stays out of the buffer until another gate touches it,
so an XOR oracle into it is a sign flip on the inputs (phase kickback,
Cleve et al. 1998) and a drawer search's diffusion runs on the search
register alone.  A full ``PureState`` is built only where one is handed
out, divided by the square root of its path probability then: ``run``'s
tagged states and its final state when first read, ``unitary_prefix``,
``backdate_outcome``, ``apply_instruction`` and ``project``.  ``run`` also
returns the distribution each record was drawn from, so a caller that wants
an outcome's probability reads the walk's own instead of a second marginal.

Unitary segments on the free registers run in place, and every unitary
route is a segment.  Wherever a state is computed, the gates between two
projections (or a projection and the boundary asked for) run on one work
buffer, copied once from the slice the segment starts at (a fresh gather
is not copied) and mutated by ``gates``' in-place kernels.  A kept,
tagged or returned state is never written.  Every gate but a Fourier
transform maps real amplitudes to real ones, so a segment with no
Fourier transform (all of a drawer search) whose start has every
imaginary part +0 runs on a float64 buffer of the real parts and writes
complex128 out at its end, but for a lone one-qubit register held in the
Hadamard basis: the slice keeps it held, as a sign on the float64 buffer,
and a reduction reads the buffer's squares doubled (|a|^2 + |-a|^2), so a
drawer search never writes its kickback register out unless a full state
is read.  Every other slice and every handed-out state is complex128.

A segment pays per distinct instruction, not per iteration.  It reads the
plan's facts for its slice of the program by bisection, where it would scan
its instructions: which of them are unitary, and whether one is a Fourier
transform.  It replays a repeated body: an instruction that leaves the
buffer, the fixed values and the held registers as it found them (a kick
into a held register, a kernel on free registers) keeps its resolved step,
the kernel bound to its views of the buffer.  In one of the plan's runs,
once a whole body has been dispatched since that configuration last
changed, the rest of the run replays the body's steps with no dispatch, no
check and no look at the configuration, so a drawer search dispatches its
first two passes and replays the rest.  Equal objects that are not the
same object, such as those of a program loaded from a file, form no run
and are dispatched each time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial
from itertools import chain, compress, count
from math import prod
from operator import is_not
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateStateError, ProgramError, RewriteNotApplicableError, ShapeMismatchError, UnknownRegisterError
from . import gates
from .gates import FunctionTable, ModedFunctionTable
from .measure import (
    PROB_EPS,
    MeasurementRecord,
    OutcomeDistribution,
    ProjectionOperator,
    _dephase,
    _summed_squares,
    born_sample,
)
from .qstate import PureState, RegisterLayout, StateDistance, _is_integer, _json_field

# The most doubles one block of sampled trials draws at once (512 KiB),
# unless a single trial draws more.
SAMPLE_BLOCK_DOUBLES = 1 << 16

GATE_KINDS = ("hadamard", "qft", "inverse-qft", "oracle-xor", "oracle-moded", "grover-diffusion")
FOURIER = ("qft", "inverse-qft")
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

    When no later instruction but a measurement touches ``reg``, and no
    visible dephasing follows, the dephasing is inert: sampled trials still
    draw its phases, but draw their outcomes as if it were absent, and
    enumeration does not branch on it; ``run``'s tagged and final states
    carry the phases.  They are applied by ``measure``'s kernel, the one
    ``PhasedMixture`` uses."""

    reg: str


Instruction = Prepare | GateOp | Dephase | Measure


def touched_registers(instr: Instruction) -> frozenset[str]:
    """The registers an instruction touches, computed once per instruction
    object and kept in its ``__dict__``, which the dataclass fields that
    equality, hashing and JSON read leave out."""
    touched = instr.__dict__.get("_touched")
    if touched is None:
        if isinstance(instr, (Prepare, Dephase, Measure)):
            touched = frozenset({instr.reg})
        else:
            touched = frozenset(r for r in (instr.reg, instr.in_reg, instr.out_reg, instr.mode_reg) if r is not None)
        instr.__dict__["_touched"] = touched
    return touched


Runs = tuple[tuple[int, int, int], ...]


class _Plan(NamedTuple):
    """A program's branch structure and the facts its segments read,
    derived when the program is built, by the pass that checks its order
    rules, and kept with the program.

    ``draws`` are the indices of its measurements and dephasings, and
    ``measures`` those of its measurements, in program order.  ``tail`` is
    where the block of measurements that ends the program starts.  A
    dephasing is *inert* when no later instruction but a measurement
    touches its register and no visible dephasing follows it; ``nodes``
    are the draws that are not inert.  ``fixed_width`` says that every
    dephasing is inert and comes before the first measurement, so every
    sampled trial draws the same number of doubles.  ``fourier`` are the
    indices of its Fourier transforms, ascending.  ``repeats`` are the runs
    in which a body of unitary instruction objects repeats (``_repeats``):
    (a, p, b) says that instruction i is the object instruction i - p is,
    for a + p <= i < b."""

    draws: tuple[int, ...]
    measures: tuple[int, ...]
    inert: frozenset[int]
    nodes: tuple[int, ...]
    tail: int
    fixed_width: bool
    fourier: tuple[int, ...]
    repeats: Runs


class _Span(NamedTuple):
    """A segment of a program as ``_Segment.run`` runs it: its unitary
    instructions in order, whether one of them is a Fourier transform, and
    the plan's ``repeats`` that fall in it, counted among these
    instructions."""

    instrs: tuple[Prepare | GateOp, ...]
    fourier: bool
    repeats: Runs


def _repeats(instrs: tuple[Instruction, ...]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The runs (a, p, b) in which a program repeats a body of unitary
    instruction objects: instruction i is the object instruction i - p is,
    for a + p <= i < b, and b is as far as that holds; then the places
    outside the runs' repeats, ascending.  A run starts where an object
    comes back after the last run ended, p after its last place outside a
    run, with no measurement or dephasing from there on; where it ends is
    found in one pass of ``operator.is_not`` over the objects."""
    runs, singles, seen, i = [], [], {}, 0  # seen: id -> last place outside a run
    while i < len(instrs):
        j = seen.get(id(instrs[i]), -1)
        if j >= (runs[-1][2] if runs else 0) and all(isinstance(instr, (Prepare, GateOp)) for instr in instrs[j:i]):
            runs.append((j, i - j, next(compress(count(i), map(is_not, instrs[i:], instrs[j:])), len(instrs))))
            i = runs[-1][2]
        else:
            seen[id(instrs[i])] = i
            singles.append(i)
            i += 1
    return runs, singles


@dataclass(frozen=True)
class CircuitProgram:
    """Instructions over one layout, checked once when the program is built
    (``ProgramError``, ``UnknownRegisterError``, or ``ShapeMismatchError``
    for an oracle whose table does not fit its registers): each distinct
    instruction object once, then the order rules, in the reverse pass that
    derives the program's plan, which the walk and the rewrites read."""

    layout: RegisterLayout
    instructions: tuple[Instruction, ...]
    time_tags: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        instrs = tuple(self.instructions)
        object.__setattr__(self, "instructions", instrs)
        object.__setattr__(self, "time_tags", dict(self.time_tags))
        repeats, singles = _repeats(instrs)
        # a body repeated as the same objects is checked once
        for instr in {id(instrs[i]): instrs[i] for i in singles}.values():
            for reg in touched_registers(instr):
                self.layout.qubits(reg)  # raises UnknownRegisterError
            self._check_args(instr)
        for tag, boundary in self.time_tags.items():
            if not (_is_integer(boundary) and 0 <= boundary <= len(instrs)):
                raise ProgramError(f"time tag {tag!r} points at boundary {boundary!r:.60}, out of range")
        object.__setattr__(self, "_plan", self._checked_plan(repeats, singles))

    def _checked_plan(self, repeats: list[tuple[int, int, int]], singles: list[int]) -> _Plan:
        """One reverse pass keeps ``later``, the registers that an
        instruction other than a measurement touches after the current one.
        It checks the order rules, a register measured at most once and
        touched by nothing but a measurement after that, says whether a
        dephasing is inert, and notes where the Fourier transforms lie.  It
        passes over the repeats of each run: they draw nothing and touch
        what their body touches, so a repeated body's objects are read once,
        and its Fourier transforms are noted at every repeat."""
        instrs = self.instructions
        later: set[str] = set()
        measured: set[str] = set()
        draws: list[int] = []
        inert: set[int] = set()
        fourier: list[int] = []
        visible, tail = False, 0
        for i in reversed(singles):
            instr = instrs[i]
            if isinstance(instr, Measure):
                if instr.reg in later:
                    raise ProgramError(f"register {instr.reg!r} is touched after its measurement at instruction {i}")
                if instr.reg in measured:
                    raise ProgramError(f"register {instr.reg!r} measured twice")
                measured.add(instr.reg)
                draws.append(i)
                continue
            tail = tail or i + 1  # the last instruction other than a measurement
            if isinstance(instr, Dephase):
                draws.append(i)
                visible = visible or instr.reg in later
                if not visible:
                    inert.add(i)
            elif getattr(instr, "kind", None) in FOURIER:
                fourier.append(i)
            later |= touched_registers(instr)
        for a, p, b in repeats:
            tail = max(tail, b)
            fourier += [k for i in range(a, a + p) if getattr(instrs[i], "kind", None) in FOURIER for k in range(i + p, b, p)]
        draws.reverse()
        measures = [i for i in draws if isinstance(instrs[i], Measure)]
        nodes = [i for i in draws if i not in inert]
        # a fixed width: the draws are the inert dephasings, then the measurements
        fixed_width = draws == sorted(inert) + measures
        return _Plan(tuple(draws), tuple(measures), frozenset(inert), tuple(nodes), tail, fixed_width, tuple(sorted(fourier)), tuple(repeats))

    def _span(self, start: int, stop: int) -> _Span:
        """Instructions ``start`` to ``stop - 1`` as a segment runs them: the
        unitary ones, with the plan's facts about them, found by bisection
        instead of a scan."""
        plan, instrs = self._plan, self.instructions
        cuts = plan.draws[bisect_left(plan.draws, start) : bisect_left(plan.draws, stop)]
        edges = (start - 1,) + cuts + (stop,)
        unitary = tuple(chain.from_iterable(instrs[a + 1 : b] for a, b in zip(edges, edges[1:])))
        # a run draws nothing: the draws before it in the span shift it whole
        clipped = ((max(a, start), p, min(b, stop)) for a, p, b in plan.repeats)
        repeats = tuple((a - (shift := start + bisect_left(cuts, a)), p, b - shift) for a, p, b in clipped if b - a > p)
        return _Span(unitary, bisect_left(plan.fourier, start) < bisect_left(plan.fourier, stop), repeats)

    def _check_args(self, instr: Instruction) -> None:
        if isinstance(instr, Prepare):
            if isinstance(instr.value, str):
                if instr.value not in PREPARE_KEYWORDS:
                    raise ProgramError(f"unknown prepare keyword {instr.value!r}")
                if instr.value == "minus" and self.layout.qubits(instr.reg) != 1:
                    raise ProgramError("minus preparation needs a 1-qubit register")
            elif not (_is_integer(instr.value) and 0 <= instr.value < self.layout.dim(instr.reg)):
                raise ProgramError(f"prepare value {instr.value!r:.60} is not a value of {instr.reg!r}")
        elif isinstance(instr, GateOp):
            if instr.kind in ("hadamard", "qft", "inverse-qft", "grover-diffusion"):
                if instr.reg is None:
                    raise ProgramError(f"gate {instr.kind!r} needs a target register")
            else:  # an oracle: its table maps the widths of its registers, in order
                xor = instr.kind == "oracle-xor"
                regs = (instr.in_reg, instr.out_reg) if xor else (instr.mode_reg, instr.in_reg, instr.out_reg)
                if not isinstance(instr.table, FunctionTable if xor else ModedFunctionTable) or not all(regs):
                    raise ProgramError(f"{instr.kind} needs {'' if xor else 'mode_reg, '}in_reg, out_reg, and a table")
                f = instr.table
                bits = (f.input_bits, f.output_bits) if xor else (f.mode_bits, f.input_bits, f.output_bits)
                widths = tuple(map(self.layout.qubits, regs))
                if widths != bits:
                    raise ShapeMismatchError(f"{instr.kind} table of {bits} bits does not fit {regs} of {widths}")
                if len(set(regs)) != len(regs):
                    raise ShapeMismatchError(f"{instr.kind} registers {regs} must be distinct")

    def measured_registers(self) -> tuple[str, ...]:
        return tuple(self.instructions[i].reg for i in self._plan.measures)

    def to_json(self) -> dict:
        return {
            "layout": self.layout.to_json(),
            "instructions": [instruction_to_json(i) for i in self.instructions],
            "time_tags": dict(self.time_tags),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "CircuitProgram":
        """The program of a ``to_json`` document.  One that is not a program
        (a missing or mistyped field, an unknown op, or a layout,
        instruction or order the constructor rejects) is a ``ProgramError``
        that names what is wrong."""
        try:
            layout = RegisterLayout.from_json(_json_field(doc, "layout", Mapping, "program"))
            instructions = []
            for k, item in enumerate(_json_field(doc, "instructions", list, "program")):
                try:
                    instructions.append(instruction_from_json(item))
                except ProgramError as exc:
                    raise ProgramError(f"program.instructions[{k}]: {exc}") from None
            return cls(layout, tuple(instructions), _json_field(doc, "time_tags", Mapping, "program", {}))
        except (ShapeMismatchError, UnknownRegisterError) as exc:  # a bad layout, an unknown register, an oracle that does not fit
            raise ProgramError(str(exc)) from None


_OPS = {"prepare": Prepare, "gate": GateOp, "dephase": Dephase, "measure": Measure}


def instruction_to_json(instr: Instruction) -> dict:
    """The instruction's op and each of its fields that is set, in field
    order; a table as its own document."""
    doc = {"op": next(op for op, kind in _OPS.items() if isinstance(instr, kind))}
    for f in fields(instr):
        value = getattr(instr, f.name)
        if value is not None:
            doc[f.name] = value.to_json() if f.name == "table" else value
    return doc


def instruction_from_json(doc: Mapping) -> Instruction:
    """The instruction of an ``instruction_to_json`` document; one that is
    not an instruction is a ``ProgramError`` that names the bad field.
    Register names and a gate's kind are strings; a prepare value is
    checked where the program checks it."""
    op = _json_field(doc, "op", str, "instruction")
    if op not in _OPS:
        raise ProgramError(f"unknown instruction op {op!r}")
    args = {
        f.name: _json_field(doc, f.name, {"table": Mapping, "value": object}.get(f.name, str), "instruction", f.default)
        for f in fields(_OPS[op])
    }
    if args.get("table") is not None:
        table_cls = ModedFunctionTable if "mode_bits" in args["table"] else FunctionTable
        try:
            args["table"] = table_cls.from_json(args["table"])
        except ShapeMismatchError as exc:
            raise ProgramError(f"instruction.table: {exc}") from None
    return _OPS[op](**args)


def _xor_register(work: np.ndarray, layout: RegisterLayout, reg: str, value: int) -> None:
    """XOR ``value`` into one register of a work buffer, in place; the
    buffer may hold several states of the layout back to back."""
    if value == 0:
        return
    block = gates._axis_view(work, layout, reg)
    block[...] = block[:, np.arange(block.shape[1]) ^ value, :]


Step = Callable[[], None]


def _nothing() -> None:
    """The step of an instruction that leaves the amplitudes as they are."""


def _bound_kernel(work: np.ndarray, layout: RegisterLayout, instr: Prepare | GateOp) -> Step:
    """One unitary instruction's kernel from ``gates``, bound to a work
    buffer: each call of the returned step applies it in place."""
    if isinstance(instr, Prepare):
        if instr.value not in PREPARE_KEYWORDS:
            return partial(_xor_register, work, layout, instr.reg, int(instr.value))
        xor = partial(_xor_register, work, layout, instr.reg, int(instr.value == "minus"))
        hadamard = partial(gates.hadamard_all_in_place, work, layout, instr.reg)

        def prepare() -> None:
            xor()
            hadamard()

        return prepare
    if instr.kind == "hadamard":
        return partial(gates.hadamard_all_in_place, work, layout, instr.reg)
    if instr.kind in FOURIER:
        return partial(gates.qft_in_place, work, layout, instr.reg, instr.kind == "inverse-qft")
    if instr.kind == "oracle-xor":
        return partial(gates.oracle_xor_in_place, work, layout, instr.table, instr.in_reg, instr.out_reg)
    if instr.kind == "oracle-moded":
        regs = (instr.mode_reg, instr.in_reg, instr.out_reg)
        return partial(gates.oracle_moded_in_place, work, layout, instr.table, *regs)
    return gates.bound_grover_diffusion(work, layout, instr.reg)


def _inverse(instr: Prepare | GateOp) -> tuple[Prepare | GateOp, ...]:
    """The inverse of one unitary instruction, as instructions: a Fourier
    transform's is the other direction, and a "minus" prepare's is the
    Hadamard then the bit flip.  Hadamards, both oracles, the diffusion
    reflection and the other prepares are their own inverses."""
    if isinstance(instr, Prepare) and instr.value == "minus":
        return GateOp("hadamard", reg=instr.reg), Prepare(instr.reg, 1)
    if isinstance(instr, GateOp) and instr.kind in FOURIER:
        return (GateOp("inverse-qft" if instr.kind == "qft" else "qft", reg=instr.reg),)
    return (instr,)


def apply_instruction(state: PureState, instr: Prepare | GateOp) -> PureState:
    """Apply one unitary instruction (Prepare or GateOp) to a state: the
    instruction is checked as a one-instruction program, then run as a
    segment on a slice with nothing fixed."""
    if not isinstance(instr, (Prepare, GateOp)):
        raise ProgramError(f"cannot apply non-unitary instruction {instr!r}")
    return _advance(_start_slice(state.layout, state), (instr,)).state()


@dataclass(frozen=True)
class RunTrace:
    """What a run leaves: its records, its final state, the state at each
    of the program's time tags, and the outcome distribution each record
    was drawn from.  Untagged intermediate states are not kept, so tag
    every boundary you want to read back.  The tagged states are written
    out of the walk's slices ``tagged`` holds, each divided by the square
    root of its path probability, when first read; the final state is
    computed from the walk's last slice, its projection included, and
    divided by the square root of ``weight``, when first read: a caller may
    never look at either."""

    program: CircuitProgram
    final: Callable[[], _Slice] = field(repr=False, compare=False)
    records: tuple[MeasurementRecord, ...]
    tagged: Mapping[str, tuple[_Slice, float]] = field(repr=False, compare=False)
    distributions: tuple[OutcomeDistribution, ...]
    weight: float = field(default=1.0, repr=False, compare=False)

    @cached_property
    def final_state(self) -> PureState:
        return self.final().state(self.weight)

    @cached_property
    def tagged_states(self) -> Mapping[str, PureState]:
        return {tag: state.state(weight) for tag, (state, weight) in self.tagged.items()}

    def state_at_tag(self, tag: str) -> PureState:
        if tag not in self.tagged:
            raise KeyError(f"program has no time tag {tag!r}")
        return self.tagged_states[tag]


@lru_cache(maxsize=256)
def _sublayout(layout: RegisterLayout, names: frozenset[str]) -> RegisterLayout | None:
    """The registers of ``layout`` among ``names``, in layout order: the
    layout itself when that is all of them, None when it is none.  Layouts
    are immutable, and a walk asks for the same few again and again."""
    regs = tuple(r for r in layout.registers if r[0] in names)
    return layout if len(regs) == len(layout.registers) else RegisterLayout(regs) if regs else None


def _widened(layout: RegisterLayout, free: RegisterLayout | None, reg: str) -> RegisterLayout:
    """The free registers with ``reg`` added, in layout order."""
    return _sublayout(layout, frozenset(free.names if free else ()) | {reg})


Rows = tuple[tuple[str, tuple[int, ...]], ...]


def _write_rows(
    layout: RegisterLayout, free: RegisterLayout | None, rows: Rows, reg: str, amps: np.ndarray
) -> tuple[RegisterLayout, Rows, np.ndarray]:
    """One register held as rows written out into its axis: the free layout
    with it added, the other rows, and a fresh buffer that holds each row at
    its value and zero at every other value.  The batch axes of the other
    rows stay in front, in their order."""
    at = [name for name, _ in rows].index(reg)
    values = list(rows[at][1])
    wide = _widened(layout, free, reg)
    left, d, right = wide.axis_shape(reg)
    outer = prod(len(v) for _, v in rows[:at])
    out = np.zeros(amps.size // len(values) * d, dtype=amps.dtype)
    source = amps.reshape(outer, len(values), -1, left, right)
    out.reshape(outer, -1, left, d, right)[:, :, :, values, :] = source.transpose(0, 2, 3, 1, 4)
    return wide, rows[:at] + rows[at + 1 :], out


@dataclass(frozen=True)
class _Slice:
    """A walk state as a product: every fixed register holds the basis value
    ``fixed`` gives it, and ``amps`` is the flat, read-only amplitude vector
    over the ``free`` registers, in layout order (one amplitude when every
    register is fixed and ``free`` is None).

    Registers may be held as rows instead: ``rows`` names each, outermost
    first, with its ascending values, and ``amps`` holds one vector over the
    ``free`` registers per joint value of them, back to back: the
    amplitudes where they hold those values, never divided.  A held
    register is neither fixed nor free; its rows are a batch axis that
    every kernel on the other registers runs on at once.  A measurement
    holds its register this way, one row per branch, and an oracle its
    output, one row per value it takes.

    A segment may leave one one-qubit register ``held`` in the Hadamard
    basis at its value w, as a sign: it is neither fixed nor free, and
    stands for the buffer at y = 0 and (-1)^w times it at y = 1.  Only such a
    slice may hold float64 amplitudes.  ``_written_out`` writes it out into
    complex128 where anything but a reduction reads it."""

    layout: RegisterLayout
    fixed: Mapping[str, int]
    free: RegisterLayout | None
    amps: np.ndarray
    rows: Rows = field(default=(), kw_only=True)
    held: Mapping[str, int] = field(default_factory=dict, kw_only=True)

    def state(self, weight: float = 1.0) -> PureState:
        """The full state divided by the square root of ``weight``, the
        branch's path probability: a held register written out, the
        amplitudes divided once, then each register held as rows and each
        fixed one, as one row at its value, written out into its axis, every
        other amplitude zero.  With nothing fixed or held and a weight of 1,
        the same buffer."""
        s = _written_out(self)
        free, amps = s.free, s.amps if weight == 1.0 else s.amps / np.sqrt(weight)
        rows = s.rows + tuple((reg, (v,)) for reg, v in s.fixed.items())
        while rows:
            free, rows, amps = _write_rows(s.layout, free, rows, rows[-1][0], amps)
        return PureState._adopt(s.layout, amps)


def _written_out(s: _Slice) -> _Slice:
    """``s`` with its held register written out into complex128 by the
    broadcast a segment's end writes it with, so the bits are those of a
    segment that never kept it held."""
    return _Segment(s, holds=False).finish() if s.held else s


def _branch_index(values: tuple[int, ...], reg: str, value: int) -> int:
    """The position of ``value`` among a register's ascending row values; a
    value outside them has zero probability."""
    j = bisect_left(values, value)
    if j == len(values) or values[j] != value:
        raise DegenerateStateError(f"projection on {reg}={value} has zero probability")
    return j


def _gather(s: _Slice, reg: str, values: Sequence[int]) -> _Slice:
    """The branches where ``reg`` holds each of ``values`` (ascending), as
    a fresh copy with ``reg`` held as their rows, outermost, and nothing
    divided: a fixed register has one row, the slice's own amplitudes, or
    zero probability; a register held as rows gives a selection of its
    rows; a free register gives one slice of its axis.  A measurement's
    branches, and a projection, the one-row case, are this gather; the
    copy is what a segment from them writes in place.  A held register
    stays held, unless it is ``reg``, which is written out first."""
    s = _written_out(s) if reg in s.held else s
    values = tuple(values)
    fixed, free, rows = dict(s.fixed), s.free, s.rows
    if reg in fixed:
        value = fixed.pop(reg)
        at, block = [_branch_index((value,), reg, v) for v in values], s.amps.reshape(1, 1, -1)
    elif reg in dict(rows):
        k = [name for name, _ in rows].index(reg)
        at = [_branch_index(rows[k][1], reg, v) for v in values]
        block = s.amps.reshape(prod(len(v) for _, v in rows[:k]), len(rows[k][1]), -1)
        rows = rows[:k] + rows[k + 1 :]
    else:
        _, d, right = free.axis_shape(reg)
        if not all(0 <= v < d for v in values):
            raise ValueError(f"outcomes {values} out of range for register {reg!r}")
        at, block = list(values), s.amps.reshape(-1, d, right)
        free = _sublayout(s.layout, frozenset(free.names) - {reg})
    amps = np.ascontiguousarray(block.transpose(1, 0, 2)[at]).reshape(-1)
    return _Slice(s.layout, fixed, free, amps, rows=((reg, values),) + rows, held=s.held)


def _marginals(s: _Slice, reg: str, weights: Sequence[float]) -> np.ndarray:
    """``reg``'s undivided outcome probabilities in each branch a slice
    holds, one row each, by ``measure``'s in-order reduction: the branches
    are the rows of the outermost register held as rows when ``weights``,
    their path probabilities, are several, and the whole slice otherwise.
    A fixed register is certain: its value carries the branch's weight.
    Every other register held as rows is reduced in the written-out order,
    its axis holding only the values of its rows: the terms left out are
    exact zeros, so every probability is the written-out state's to the
    bit.

    Where a register is held as a sign and ``reg`` is the only free
    register, with no other held as rows, each written-out probability adds
    exactly two nonzero terms, |a|^2 and |-a|^2 = a^2: it is the buffer's
    own probability doubled, to the bit.  Any other slice with a register
    held as a sign is written out first."""
    if reg in s.fixed:
        probs = np.zeros((len(weights), s.layout.dim(reg)))
        probs[:, s.fixed[reg]] = weights
        return probs
    held = dict(s.rows[1:] if len(weights) > 1 else s.rows)
    if s.held and (held or getattr(s.free, "names", ()) != (reg,)):
        s = _written_out(s)
    if not held:
        probs = _summed_squares(s.amps.reshape(len(weights), *s.free.axis_shape(reg)), 2)
        return np.add(probs, probs, out=probs) if s.held else probs
    free = s.free.names if s.free else ()
    names = [name for name in s.layout.names if name in held or name in free]
    shape = [len(values) for values in held.values()] + [s.layout.dim(name) for name in free]
    block = s.amps.reshape([len(weights)] + shape)
    block = np.moveaxis(block, range(1, 1 + len(held)), [1 + names.index(name) for name in held])
    probs = _summed_squares(block, 1 + names.index(reg))
    if reg not in held:
        return probs
    out = np.zeros((len(weights), s.layout.dim(reg)))
    out[:, list(held[reg])] = probs
    return out


def _start_slice(layout: RegisterLayout, initial: PureState | None) -> _Slice:
    """|0...0> with every register fixed, or ``initial`` with none fixed."""
    if initial is None:
        one = np.ones(1, dtype=np.complex128)
        one.setflags(write=False)
        return _Slice(layout, dict.fromkeys(layout.names, 0), None, one)
    if initial.layout != layout:
        raise ShapeMismatchError("initial state and program must share a register layout")
    return _Slice(layout, {}, layout, initial.amplitudes)


def _has_negative_zero(work: np.ndarray) -> bool:
    """Whether any real or imaginary part of the amplitudes is -0."""
    parts = work.view(np.float64)
    return bool(np.signbit(parts[parts == 0.0]).any())


class _Segment:
    """One unitary segment run on a slice.  Gates on free registers run
    through ``gates``' in-place kernels on one work buffer, copied from the
    slice's amplitudes the first time a kernel writes; gates on fixed
    registers change a value, hold the register in the Hadamard basis, or
    free it into a new buffer:

    * a value prepare XORs the value, and an XOR oracle whose input and
      output are both fixed XORs f(input) into the output's value;
    * an XOR oracle with a fixed input XORs the constant f(input) into its
      free output register;
    * an XOR oracle from a free input into a fixed output v moves each
      amplitude of input x to the value v XOR f(x), held as rows: one row
      per value f takes XOR v, ascending, the innermost batch axis, and the
      slice the segment ends at holds them.  An instruction that touches a
      register held as rows, in this segment or a later one, writes its
      rows out first;
    * a Hadamard (or a "uniform" or "minus" prepare) holds the register at
      its value w: the register stays out of the buffer, which is scaled by
      2^(-q/2), and stands for the signs (-1)^popcount(w & y) times the
      buffer along the register's values y;
    * an XOR oracle whose output is held at w negates the amplitudes of the
      inputs x where popcount(w & f(x)) is odd, the phase kickback; a fixed
      input negates all of them or none, and a held input is written out
      first;
    * any other gate on a held register writes it out first, as the
      broadcast of its signs times the buffer, bit for bit the butterflies'
      result; a Fourier transform writes out every held register, and so
      does the segment's end, but for a lone one-qubit one;
    * any other gate frees the fixed registers it touches as one-hot axes
      first.

    A real segment, one with no Fourier transform whose start has every
    imaginary part bitwise +0, runs on a float64 copy of the real parts, and
    every buffer it allocates takes that dtype; at its end the held
    registers are written out straight into complex128 (``finish``), but for
    a lone one-qubit one, and a segment that holds none ends with one
    ``astype``.  The real parts are then those of the same kernels on float64
    full states, and every imaginary part is +0.  A start with a -0 imaginary
    part runs on complex128: that sign would be lost in float64, and complex
    products carry it into real parts: times a real scale's +0 imaginary
    part it makes -0, and subtracting that from a -0 real product makes +0.

    A held buffer is bit for bit the y = 0 row that the full-state kernels
    leave, and every other row is its exact negation or copy.  Two facts
    make that so.  First, the kernels that run while a register is held
    keep every zero +0: permutations, Hadamard butterflies, the diffusion,
    scaling, and the kickback, written 0 - a.  Second, their arithmetic is
    odd, so a row's nonzero parts differ from the buffer's only in sign.
    Three cases break this, and none is held:

    * a Hadamard from w = 0 with a -0 in the buffer: the butterflies leave
      that -0 in the row y = d - 1, so the register is written out at once;
    * a Fourier transform, which makes -0 of its own;
    * a product that underflows to zero, where the complex product takes
      the sign of the zero from the other part.  A segment that may hold
      runs with numpy's underflow raising, and reruns without holding if
      one does.
    """

    def __init__(self, start: _Slice, holds: bool):
        self.layout = start.layout
        self.fixed = {**start.fixed, **start.held}
        self.free = start.free
        self.work = start.amps
        self.owned = False
        self.holds = holds
        self.held = set(start.held)  # the fixed registers held in the Hadamard basis
        self.rows = start.rows  # the registers held as rows, and their values

    def writable(self) -> np.ndarray:
        if not self.owned:
            self.work, self.owned = self.work.copy(), True
        return self.work

    def expand(self, reg: str) -> None:
        """Write a fixed register out as the one row at its value."""
        rows = self.rows + ((reg, (self.fixed.pop(reg),)),)
        self.free, _, self.work = _write_rows(self.layout, self.free, rows, reg, self.work)
        self.owned = True

    def broadcast(self, reg: str, dtype: type | None = None) -> None:
        """Write a fixed or held register at w out as the signs
        (-1)^popcount(w & y) times the buffer, unscaled, into a new buffer
        of the old one's dtype unless ``dtype`` is given; from w = 0 every
        sign is +1.  The butterflies add and subtract exact zeros, which
        leaves each nonzero part as it is and turns a signed zero into +0,
        except along y = d - 1 from w = 0, where every step subtracts a
        zero.  A one-qubit register, such as the kickback qubit, is written
        one multiply per column: a broadcast over its two columns runs
        numpy's inner loop only two amplitudes long when it is the last
        register."""
        self.held.discard(reg)
        value = self.fixed.pop(reg)
        self.free = _widened(self.layout, self.free, reg)
        _, d, right = self.free.axis_shape(reg)
        old = self.work.reshape(-1, right)  # the rows join the left axis
        self.work, self.owned = np.zeros(old.size * d, dtype=dtype or old.dtype), True
        new = self.work.reshape(-1, d, right)
        if value:
            signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(d) & value) & 1)
            if d == 2:
                for y in range(d):
                    np.multiply(old, signs[y], out=new[:, y, :])
            else:
                np.multiply(signs[None, :, None], old[:, None, :], out=new)
            new += 0.0
        else:
            np.add(old[:, None, :], 0.0, out=new)
            new[:, d - 1, :] = old

    def hadamard(self, reg: str) -> None:
        """H on every qubit of a fixed register: hold it, the buffer's zeros
        made +0 and the buffer scaled by the kernel's 2^(-q/2); or, where it
        is not held, broadcast it and scale."""
        scale = 2.0 ** (-self.layout.qubits(reg) / 2)
        if self.holds and not (self.fixed[reg] == 0 and _has_negative_zero(self.work)):
            work = self.writable()
            work += 0.0
            work *= scale
            self.held.add(reg)
            return
        self.broadcast(reg)
        self.work *= scale

    def kick(self, instr: GateOp) -> Step:
        """An XOR oracle into a held output at w: the amplitudes of the
        inputs x whose f(x) shares an odd number of set bits with w change
        sign, written 0 - a so that a zero stays +0."""
        f, in_reg, out_reg = instr.table, instr.in_reg, instr.out_reg
        held = self.fixed[out_reg]
        if in_reg in self.fixed:
            if not (held & f.table[self.fixed[in_reg]]).bit_count() & 1:
                return _nothing
            work = self.writable()
            step = partial(np.subtract, 0.0, work, out=work)
        else:
            inputs = f.kicked(held)
            if not inputs.size:
                return _nothing
            if self.work.size == self.layout.dim(in_reg):  # one state over the input alone: flat indexing is fastest
                block, at = self.writable(), int(inputs[0]) if inputs.size == 1 else inputs
            else:
                block, at = gates._axis_view(self.writable(), self.free, in_reg), (slice(None), inputs)

            def step() -> None:
                block[at] = 0.0 - block[at]

        step()
        return step

    def oracle_xor(self, instr: GateOp) -> Step:
        f, in_reg, out_reg = instr.table, instr.in_reg, instr.out_reg
        if in_reg in self.fixed and out_reg in self.fixed:
            self.fixed[out_reg] ^= f.table[self.fixed[in_reg]]
        elif in_reg in self.fixed:
            flip = f.table[self.fixed[in_reg]]
            if flip:
                step = partial(_xor_register, self.writable(), self.free, out_reg, flip)
                step()
                return step
        else:
            values, column = np.unique(f.values ^ self.fixed.pop(out_reg), return_inverse=True)
            left, d, right = self.free.axis_shape(in_reg)
            source = self.work.reshape(-1, left, d, right)
            target = np.zeros((source.shape[0], values.size, left, d, right), dtype=source.dtype)
            target.transpose(1, 3, 0, 2, 4)[column, np.arange(d)] = source.transpose(2, 0, 1, 3)
            self.rows += ((out_reg, tuple(values.tolist())),)
            self.work, self.owned = target.reshape(-1), True
        return _nothing

    def apply(self, instr: Prepare | GateOp) -> Step:
        """Apply one instruction and return the step that repeats its work
        on the buffer; ``run`` keeps the step only where the instruction
        left the configuration as it found it."""
        for reg, _ in self.rows:
            if reg in touched_registers(instr):
                self.free, self.rows, self.work = _write_rows(self.layout, self.free, self.rows, reg, self.work)
                self.owned = True
        fixed, held = self.fixed, self.held
        if isinstance(instr, GateOp) and instr.kind == "oracle-xor" and instr.out_reg in held:
            if instr.in_reg in held:
                self.broadcast(instr.in_reg)
            return self.kick(instr)
        if held:
            fourier = getattr(instr, "kind", None) in FOURIER
            for reg in sorted(held if fourier else held & touched_registers(instr)):
                self.broadcast(reg)
        if isinstance(instr, Prepare) and instr.reg in fixed:
            if instr.value in PREPARE_KEYWORDS:
                fixed[instr.reg] ^= int(instr.value == "minus")
                self.hadamard(instr.reg)
            else:
                fixed[instr.reg] ^= int(instr.value)
            return _nothing
        if isinstance(instr, GateOp) and instr.kind == "hadamard" and instr.reg in fixed:
            self.hadamard(instr.reg)
            return _nothing
        if isinstance(instr, GateOp) and instr.kind == "oracle-xor" and {instr.in_reg, instr.out_reg} & fixed.keys():
            return self.oracle_xor(instr)
        for reg in sorted(touched_registers(instr) & fixed.keys()):
            self.expand(reg)
        step = _bound_kernel(self.writable(), self.free, instr)
        step()
        return step

    def run(self, instrs: Sequence[Prepare | GateOp], repeats: Runs, fourier: bool, lock: bool = True) -> _Slice:
        """Apply ``instrs`` in order, on a float64 copy of the real parts
        where the segment is real (``fourier`` says whether one of them is
        a Fourier transform); the slice it ends at is ``finish``'s.

        The configuration is the buffer, the fixed values and the held
        registers.  Each instruction is dispatched (``apply``), and its step
        kept where it left the configuration as it found it.  In a run of
        ``repeats``, (a, p, b), once a whole body of p instructions has been
        dispatched since the configuration last changed, the same objects
        come back under the same configuration, so they would resolve to
        the same steps: the rest of the run replays the body's kept steps,
        with no dispatch and no look at the configuration."""
        if not fourier and not self.work.imag.view(np.uint64).any():
            self.work, self.owned = self.work.real.copy(), True
        kept: list[Step | None] = []  # each instruction's step, None where it changed the configuration
        changed = -1  # the last instruction that changed it
        for a, p, b in repeats + ((len(instrs), 1, len(instrs)),):  # then the instructions after the last run
            for i in range(len(kept), b):
                if i >= a + p and changed < i - p:  # a whole body since the last change
                    steps = (kept[i - p : i] * (1 + (b - i) // p))[: b - i]
                    for step in steps:
                        step()
                    kept += steps
                    break
                work, fixed, held = self.work, dict(self.fixed), set(self.held)
                kept.append(self.apply(instrs[i]))
                if not (self.work is work and self.fixed == fixed and self.held == held):
                    kept[i], changed = None, i
        return self.finish(lock)

    def finish(self, lock: bool = True) -> _Slice:
        """The slice the segment ends at.  Where the segment holds and the
        one register held is one qubit, it stays held, on the buffer as it
        is; every other held register is written out into complex128, and a
        float64 buffer that holds none is made complex128.  The buffer is
        made read-only, unless it is the segment's own and ``lock`` is
        false."""
        lone = self.holds and len(self.held) == 1 and self.layout.qubits(min(self.held)) == 1
        held = {reg: self.fixed.pop(reg) for reg in self.held} if lone else {}
        self.held -= held.keys()
        for reg in sorted(self.held):
            self.broadcast(reg, np.complex128)
        if not held and self.work.dtype != np.complex128:
            self.work, self.owned = self.work.astype(np.complex128), True
        self.work.setflags(write=not lock and self.owned)
        return _Slice(self.layout, self.fixed, self.free, self.work, rows=self.rows, held=held)


def _advance(start: _Slice, instrs: _Span | Sequence[Instruction], lock: bool = True) -> _Slice:
    """``start`` with the unitary instructions of a program's span
    (``CircuitProgram._span``) applied in order as one segment: one that
    holds registers where it can, unless an underflow makes it rerun
    without holding.  Instructions given as a sequence are checked and
    planned as a program of their own first; its measurements and
    dephasings are skipped.  A segment that holds nothing writes
    ``start``'s amplitudes in place when they are writeable, a fresh
    gather's that nothing else holds, or a segment's left writeable without
    ``lock``: every other slice returned here is read-only.  One that may
    hold copies them first, since an underflow reruns it from ``start``."""
    if not isinstance(instrs, _Span):
        instrs = CircuitProgram(start.layout, tuple(instrs))._span(0, len(instrs))
    unitary, fourier, repeats = instrs
    if not unitary:
        start.amps.setflags(write=False)
        return start
    start = _written_out(start) if start.held else start
    if start.fixed:  # only a fixed register can be held
        try:
            with np.errstate(under="raise"):
                return _Segment(start, holds=True).run(unitary, repeats, fourier, lock)
        except FloatingPointError:
            pass
    segment = _Segment(start, holds=False)
    segment.owned = start.amps.flags.writeable
    return segment.run(unitary, repeats, fourier, lock)


def _projection_weight(s: _Slice, reg: str, outcome: int) -> float:
    """The probability of ``outcome`` on a normalised slice, the squared
    norm of its projection there; one below ``PROB_EPS`` is zero."""
    weight = float(_marginals(s, reg, (1.0,))[0, outcome])
    if weight < PROB_EPS:
        raise DegenerateStateError(f"projection on {reg}={outcome} has zero probability")
    return weight


def project(state: PureState, p: ProjectionOperator) -> PureState:
    """Keep only the amplitudes with ``p.reg == p.outcome`` and renormalise
    (the Born filter): the walk's one-row gather on the state's start
    slice, divided by the square root of its probability when it is written
    out."""
    start = _start_slice(state.layout, state)
    branch = _gather(start, p.reg, (p.outcome,))
    return branch.state(_projection_weight(start, p.reg, p.outcome))


def _dephase_slice(s: _Slice, reg: str, values: Sequence[int], phases: np.ndarray) -> _Slice:
    """The slice with one phase on each listed value of ``reg``, through
    ``measure``'s kernel, which multiplies every amplitude of a fixed
    register's one value by its phase factor.  A register held as rows is
    written out first; the other rows join the kernel's left axis."""
    s = _written_out(s)
    free, rows, amps = s.free, s.rows, s.amps
    if reg in dict(rows):
        free, rows, amps = _write_rows(s.layout, free, rows, reg, amps)
    if reg in s.fixed:  # its one value is the middle axis's only entry
        block, values = amps.reshape(-1, 1, 1), [0]
    else:
        block = amps.reshape(-1, *free.axis_shape(reg)[1:])
    amps = _dephase(block, values, phases).reshape(-1)
    amps.setflags(write=False)
    return _Slice(s.layout, s.fixed, free, amps, rows=rows)


class _BranchWalk:
    """A program's branch tree, walked from one start state.

    A node is one of the plan's nodes, the index of a ``Measure`` or a
    visible ``Dephase`` instruction, together with its path: the branch
    values taken at the nodes before it (a ``Dephase`` branch is one value
    of its register, as in enumeration).  An inert dephasing's phases are
    diagonal in its register and commute with everything after it, so no
    later outcome distribution can see them, and no trial has a state of
    its own when it comes.  It is no node; the walk's states and
    distributions skip it.  Given ``observed``, a measurement of another
    register in the block that ends the program is no node either: a
    walk reaches it summed out.

    The state at any boundary is a function of (boundary, path), so
    ``state`` computes it on demand from the deepest state it has kept on
    that path.  Every state is a ``_Slice``, and no amplitude is ever
    divided: a branch is the one row of its measured register (Nielsen &
    Chuang 4.4: the register is frozen, so nothing later mixes its
    branches), and its squared norm is its path probability, which
    ``weight`` reads off the undivided marginal of the node before it.
    ``marginal`` memoises each node's undivided marginal, a float row, and
    ``distribution`` divides it by the path probability, once, where a draw
    or the API reads one.  A full state is built only for a tagged or final
    state, and divided by the square root of its path probability then.

    A measurement's branches advance as one slice.  ``expand`` gathers the
    values of a measurement that its caller will walk as rows of its
    register, runs the segment up to the next node once on the whole block,
    and memoises that node's marginal on each of those branches, rows of
    one array: enumeration asks for every support value, a block of sampled
    trials for the values it drew.  The gathered slice takes its parent
    state's place on the chain, where a deeper node, a tag or a trial reads
    its branch as a copy of its row.  A branch no kept slice holds (a
    single trial's, one of a visible dephasing, whose register later gates
    touch, or one read past the last node) is gathered on its own.  Kept
    states form one chain from the start, one per visited node of one path,
    never one per branch.
    """

    def __init__(self, program: CircuitProgram, initial: PureState | None, observed: Sequence[str] | None = None):
        self.program = program
        plan = self.plan = program._plan
        instrs = self.instructions = program.instructions
        self.inert, self.fixed_width = plan.inert, plan.fixed_width
        self.nodes = tuple(i for i in plan.nodes if observed is None or i < plan.tail or instrs[i].reg in observed)
        # (boundary, path, state); an entry whose path stops short of a node
        # before its boundary holds that node's branches as rows
        self._chain: list[tuple[int, tuple[int, ...], _Slice]] = [
            (0, (), _start_slice(program.layout, initial))
        ]
        self._marginals: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._distributions: dict[tuple[int, tuple[int, ...]], OutcomeDistribution] = {}

    def state(self, boundary: int, path: tuple[int, ...], stops: Sequence[int] = ()) -> _Slice:
        """The state after the first ``boundary`` instructions on ``path``,
        without the phases of inert dephasings, kept on the chain.

        The deepest kept state on the path may be a row of a gathered
        slice: an entry whose path stops short of a node before its
        boundary holds that node's branches as rows, and lies on the paths
        that take one of their values.  Each unitary segment between it and
        the boundary runs as one ``_Segment``, ended by a node's gather of
        the one branch or by the boundary; no kept state is ever written.
        A segment also ends at each of the inert dephasings ``stops`` whose
        marginal is not yet memoised, which is memoised there; its state is
        not kept, and the next segment writes its buffer in place."""
        chain = self._chain
        while True:
            start, taken, state = chain[-1]
            k = len(taken)
            if start <= boundary and path[:k] == taken:
                if k == len(self.nodes) or self.nodes[k] >= start:
                    break
                if len(path) > k and path[k] in state.rows[0][1]:
                    state, k = _gather(state, state.rows[0][0], (path[k],)), k + 1
                    break
            chain.pop()
        if start == boundary:
            return state
        for i in sorted(stops):  # each on the root path, before the first node
            if start <= i < boundary and (i, ()) not in self._marginals:
                state = _advance(state, self.program._span(start, i), lock=False)
                self._marginals[i, ()] = _marginals(state, self.instructions[i].reg, (1.0,))[0]
                start = i
        for i in self.nodes[k:]:
            if i >= boundary:
                break
            state = _gather(_advance(state, self.program._span(start, i)), self.instructions[i].reg, (path[k],))
            k, start = k + 1, i + 1
        state = _advance(state, self.program._span(start, boundary))
        chain.append((boundary, path, state))
        return state

    def weight(self, path: tuple[int, ...]) -> float:
        """A branch's path probability, its squared norm: the undivided
        marginal of the node before it, on the path before, at its value;
        exactly 1 at the start."""
        if not path:
            return 1.0
        return float(self.marginal(self.nodes[len(path) - 1], path[:-1])[path[-1]])

    def marginal(self, index: int, path: tuple[int, ...]) -> np.ndarray:
        """The undivided outcome probabilities of instruction ``index`` on
        ``path``, memoised; those ``expand`` has not reduced are reduced
        from the branch's state."""
        key = (index, path)
        if key not in self._marginals:
            state = self.state(index, path)
            self._marginals[key] = _marginals(state, self.instructions[index].reg, (self.weight(path),))[0]
        return self._marginals[key]

    def distribution(self, index: int, path: tuple[int, ...]) -> OutcomeDistribution:
        """The outcome distribution of instruction ``index`` on ``path``:
        its marginal divided by the path probability, memoised."""
        key = (index, path)
        if key not in self._distributions:
            # the root's path probability is exactly 1
            probabilities = self.marginal(index, path) / self.weight(path) if path else self.marginal(index, path)
            self._distributions[key] = OutcomeDistribution(self.instructions[index].reg, probabilities)
        return self._distributions[key]

    def expand(self, k: int, path: tuple[int, ...], values: Sequence[int], free: bool = True) -> None:
        """Memoise node ``k + 1``'s marginal on the branches of node ``k``
        on ``path`` that take ``values`` (ascending), when node ``k`` is a
        measurement: those not yet memoised are gathered as rows, run to
        node ``k + 1`` as one segment and reduced row by row, and the
        gathered slice is kept on the chain, in the place of the state it
        was gathered from where ``free`` says so: a block of drawn values
        keeps that state for the values no trial drew, which an enumeration
        expands from it.  A visible dephasing's branches are left to
        ``marginal``, one at a time, and so are those of a block whose rows
        differ in realness before a segment with gates but no Fourier
        transform: each branch runs in float64 or complex128 as it does
        alone."""
        i, j = self.nodes[k], self.nodes[k + 1]
        values = [v for v in values if (j, path + (v,)) not in self._marginals]
        if isinstance(self.instructions[i], Dephase) or not values:
            return
        weights = self.marginal(i, path)[values]
        gathered, span = _gather(self.state(i, path), self.instructions[i].reg, values), self.program._span(i + 1, j)
        if span.instrs and not span.fourier:
            real = ~gathered.amps.imag.reshape(len(values), -1).view(np.uint64).any(axis=1)
            if real.any() != real.all():
                return
        gathered = _advance(gathered, span)
        if free and len(self._chain) > 1 and self._chain[-1][:2] == (i, path):
            self._chain.pop()  # the state the rows were gathered from, freed before they are reduced
        self._chain.append((j, path, gathered))
        for v, probs in zip(values, _marginals(gathered, self.instructions[j].reg, weights)):
            self._marginals[j, path + (v,)] = probs

    def trial(self, rng: np.random.Generator, tags: Mapping[str, int] | None = None) -> tuple[
        tuple[MeasurementRecord, ...], dict[str, tuple[_Slice, float]], Callable[[], _Slice] | None, float, tuple[OutcomeDistribution, ...]
    ]:
        """One sampled run: its records and, given ``tags`` (tag -> boundary),
        the slice at each of those boundaries with its path probability,
        and the final slice, computed when it is called; then the path
        probability of the trial's branch, and last the distribution each
        measurement was drawn from.

        This is ``run``'s route, and ``sample``'s for a program that
        ``draws`` cannot draw as arrays: one with a visible dephasing, or an
        inert one after a measurement.  The trial carries its path and at
        most one state of its own, as (boundary, slice), which runs the
        gates since its boundary as one segment where it is next read.  Every ``Dephase`` draws one uniform
        phase per support value.  Until the first visible one, the draws
        come from the walk's memoised distributions, and a state is computed
        only where a node's distribution is not yet memoised or a tag asks
        for it; given ``tags``, an inert dephasing phases the walk's state
        into the carried one, which the tags then read.  From the first
        visible dephasing on, the draws come from the carried state, and
        every dephasing phases it, inert or not.  Each measurement's
        outcome takes the path probability to its undivided marginal there.
        Without ``tags`` nothing after the last draw is computed.
        """
        instrs = self.instructions
        keep = tags is not None
        records: list[MeasurementRecord] = []
        drawn: list[OutcomeDistribution] = []
        tagged: dict[str, tuple[_Slice, float]] = {}
        path: tuple[int, ...] = ()
        weight = 1.0
        carried: tuple[int, _Slice] | None = None
        own = False  # the draws come from the carried state
        marks = set(tags.values()) if keep else set()
        for i in sorted(marks.union(self.plan.draws)):  # every other instruction runs in a segment
            draw = i in self.plan.draws
            if carried is not None:
                carried = i, _advance(carried[1], self.program._span(carried[0], i))
            if i in marks:
                state = self.state(i, path) if carried is None else carried[1]
                tagged.update((tag, (state, weight)) for tag, b in tags.items() if b == i)
            if not draw:
                continue
            instr = instrs[i]
            if own:
                marginal = _marginals(carried[1], instr.reg, (weight,))[0]
                dist = OutcomeDistribution(instr.reg, marginal / weight)
            else:
                marginal, dist = self.marginal(i, path), self.distribution(i, path)
            last = not keep and i == self.plan.draws[-1]
            if isinstance(instr, Measure):
                outcome = born_sample(dist, rng)
                records.append(MeasurementRecord(instr.reg, outcome, float(dist.probabilities[outcome])))
                drawn.append(dist)
                weight = float(marginal[outcome])
                if not own:
                    path += (outcome,)
                if carried is not None and not last:
                    carried = i + 1, _gather(carried[1], instr.reg, (outcome,))
                continue
            phases = rng.uniform(0.0, 2.0 * np.pi, size=len(dist.support))
            own = own or i not in self.inert
            if last or not (keep or own):
                continue
            start = self.state(i, path) if carried is None else carried[1]
            carried = i + 1, _dephase_slice(start, instr.reg, dist.support, phases)
        if not keep:
            return tuple(records), tagged, None, weight, tuple(drawn)
        final = partial(_advance, carried[1], self.program._span(carried[0], len(instrs))) if carried else partial(self.state, len(instrs), path)
        return tuple(records), tagged, final, weight, tuple(drawn)

    def draws(self, rng: np.random.Generator, trials: int) -> tuple[np.ndarray, np.ndarray]:
        """The outcomes and their probabilities in ``trials`` sampled runs:
        one row per trial and one column per measurement, in program order.
        They, and the generator's state after them, are those of ``trials``
        successive ``trial`` calls.

        With ``fixed_width``, every trial draws the phases of each inert
        dephasing (one double per support value of its root distribution,
        memoised where the pass to the first measurement ends a segment at
        it), then one double per measurement.  A block of trials, at most
        ``SAMPLE_BLOCK_DOUBLES`` doubles unless one trial draws more, takes
        its doubles in one ``rng.random`` call, in trial order; the phase
        columns are dropped, and ``_look_up`` draws the measurements.
        Other programs run ``trial`` once per trial.
        """
        outcomes = np.zeros((trials, len(self.plan.measures)), dtype=np.int64)
        probabilities = np.zeros(outcomes.shape)
        if not (self.fixed_width and trials):
            for row in range(trials):
                records = self.trial(rng)[0]
                outcomes[row] = [record.outcome for record in records]
                probabilities[row] = [record.probability for record in records]
            return outcomes, probabilities
        if self.plan.measures:  # one pass to the first measurement memoises every inert dephasing
            self.state(self.plan.measures[0], (), stops=self.inert)
        phases = sum(len(self.distribution(i, ()).support) for i in sorted(self.inert))
        width = phases + len(self.plan.measures)
        if not width:
            return outcomes, probabilities
        per_block = max(1, SAMPLE_BLOCK_DOUBLES // width)
        for start in range(0, trials, per_block):
            block = slice(start, min(start + per_block, trials))
            size = block.stop - block.start
            uniforms = rng.random(size * width).reshape(size, width)[:, phases:]
            if self.plan.measures:
                self._look_up(uniforms, outcomes[block], probabilities[block], np.arange(size), ())
        return outcomes, probabilities

    def _look_up(
        self,
        uniforms: np.ndarray,
        outcomes: np.ndarray,
        probabilities: np.ndarray,
        rows: np.ndarray,
        path: tuple[int, ...],
    ) -> None:
        """Draw measurement ``len(path)`` of the block's trials ``rows``, which
        all took ``path``: their uniforms in that column are looked up in the
        node's memoised cumulative sums at once, as ``born_sample`` looks one
        up.  The trials are then split by outcome, and each group draws the
        next measurement on its own path, depth first in ascending outcome
        order, so each kept state serves every group below it; the next
        measurement's marginal on every drawn branch comes from one block of
        the drawn values' rows (``expand``).  Nothing after the last
        measurement is computed."""
        k = len(path)
        dist = self.distribution(self.plan.measures[k], path)
        drawn = dist.cdf.searchsorted(uniforms[rows, k], side="right")
        outcomes[rows, k] = drawn
        probabilities[rows, k] = dist.probabilities[drawn]
        if k + 1 == len(self.plan.measures):
            return
        order = np.argsort(drawn, kind="stable")
        values, starts = np.unique(drawn[order], return_index=True)
        self.expand(k, path, values.tolist(), free=False)
        for value, group in zip(values.tolist(), np.split(rows[order], starts[1:])):
            self._look_up(uniforms, outcomes, probabilities, group, path + (value,))

    def enumerate(self, observed: tuple[str, ...]) -> np.ndarray:
        """The exact joint distribution of the observed registers, every one
        of them measured at a node, as an array with one axis per observed
        register, in ``observed`` order; an entry no branch reaches is 0.
        Above the last node, every branch of a measurement is expanded as
        one block before its children are pushed, and the stack pops them
        in ascending order.  Each branch that reaches the last node adds its
        undivided marginal there, its joint probabilities, with no path
        weight, and ``PROB_EPS`` is applied once, to the sum.  Every
        distribution a draw could read is memoised then, so only the start
        state is kept."""
        nodes, instrs = self.nodes, self.instructions
        leaf = len(nodes) - 1
        where = {instrs[i].reg: k for k, i in enumerate(nodes) if isinstance(instrs[i], Measure)}
        acc = np.zeros(tuple(self.program.layout.dim(reg) for reg in observed))
        at_leaf = tuple(slice(None) if where[reg] == leaf else None for reg in observed)
        leaf_observed = any(where[reg] == leaf for reg in observed)
        stack: list[tuple[int, ...]] = [()]
        while stack:
            path = stack.pop()
            leaves = [path]
            if len(path) < leaf:
                probs = self.marginal(nodes[len(path)], path) / self.weight(path)
                support = np.flatnonzero(probs > PROB_EPS).tolist()
                self.expand(len(path), path, support)
                leaves = [path + (v,) for v in support]
                if len(path) + 1 < leaf:
                    stack.extend(reversed(leaves))
                    continue
            for branch in leaves:
                probs = self.marginal(nodes[leaf], branch)
                at = tuple(branch[where[reg]] if at is None else at for reg, at in zip(observed, at_leaf))
                acc[at] += probs if leaf_observed else probs.sum()
        acc[acc <= PROB_EPS] = 0.0
        del self._chain[1:]
        return acc


def _prefix(program: CircuitProgram, stop: int) -> _Slice:
    """The slice at boundary ``stop``, reached by one segment from |0...0>;
    a measurement or dephasing before it is rejected."""
    draws = program._plan.draws
    if draws and draws[0] < stop:
        raise RewriteNotApplicableError(f"{program.instructions[draws[0]]!r} before boundary {stop}; not unitary")
    return _advance(_start_slice(program.layout, None), program._span(0, stop))


def unitary_prefix(program: CircuitProgram, stop: int | str) -> PureState:
    """The state at boundary ``stop`` (an index or a time tag), reached by
    applying the program's instructions before it to |0...0>.  A measurement
    or dephasing before the boundary makes the prefix non-unitary and is
    rejected."""
    return _prefix(program, _boundary(program, stop)).state()


def _boundary(program: CircuitProgram, at: int | str) -> int:
    """A boundary given as an index or as one of the program's time tags."""
    if not isinstance(at, str):
        return at
    if at not in program.time_tags:
        raise ProgramError(f"program has no time tag {at!r}")
    return program.time_tags[at]


def run(
    program: CircuitProgram, rng: np.random.Generator, initial: PureState | None = None
) -> RunTrace:
    """Execute the program from ``initial`` (default |0...0>), keeping the
    records, the final state, the states at the program's time tags and
    the distributions the records were drawn from."""
    records, tagged, final, weight, drawn = _BranchWalk(program, initial).trial(rng, program.time_tags)
    return RunTrace(program, final, records, tagged, drawn, weight)


def measure_register(state: PureState, reg: str, rng: np.random.Generator) -> tuple[int, PureState]:
    """Sample an outcome and return it with the post-measurement state: a
    run of the one-instruction program ``(Measure(reg),)`` from ``state``."""
    trace = run(CircuitProgram(state.layout, (Measure(reg),)), rng, initial=state)
    return trace.records[0].outcome, trace.final_state


def sample_outcomes(
    program: CircuitProgram,
    rng: np.random.Generator,
    trials: int,
    initial: PureState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of ``trials`` sampled runs of the program and their
    probabilities, as two arrays with one row per trial and one column per
    measurement, in ``program.measured_registers()`` order: the outcomes,
    probabilities and generator state of ``trials`` successive ``run``
    calls with ``rng``.

    The trials share one branch walk, so the outcome distribution of a node
    reached without a visible dephasing is computed once per call, with its
    cumulative sums.  When no dephasing is visible and every one comes
    before the first measurement (all three period disciplines), the trials
    draw in blocks: one array of uniforms per block, and one vectorised
    lookup per node and path.  Other programs run trial by trial; a trial
    computes states only past a visible ``Dephase`` or at a node no earlier
    trial reached.  Nothing after a trial's last draw is computed.
    """
    return _BranchWalk(program, initial).draws(rng, trials)


def sample(
    program: CircuitProgram,
    rng: np.random.Generator,
    trials: int,
    initial: PureState | None = None,
) -> list[tuple[MeasurementRecord, ...]]:
    """The records of ``trials`` sampled runs of the program, one tuple per
    trial: bit for bit the records, and the generator state, of ``trials``
    successive ``run`` calls with ``rng``.  The draws are
    ``sample_outcomes``': as arrays, a block of trials at a time, when no
    dephasing is visible and every one comes before the first measurement,
    and trial by trial otherwise."""
    outcomes, probabilities = sample_outcomes(program, rng, trials, initial)
    registers = program.measured_registers()
    return [tuple(map(MeasurementRecord, registers, *row)) for row in zip(outcomes.tolist(), probabilities.tolist())]


def defer_measurements(program: CircuitProgram) -> CircuitProgram:
    """Move intermediate measurements to the end of the program, after the
    measurements that end it, in their order; time tags are remapped to the
    surviving boundaries.

    Every valid program can be deferred: its order rules leave a measured
    register frozen, so no later instruction but a measurement touches it,
    and a measurement commutes with everything after it.
    """
    instrs, plan = program.instructions, program._plan
    moved = [i for i in plan.measures if i < plan.tail]
    if not moved:
        return program
    kept = [instr for i, instr in enumerate(instrs) if i not in moved]
    tags = {tag: b - bisect_left(moved, b) for tag, b in program.time_tags.items()}
    return CircuitProgram(program.layout, tuple(kept + [instrs[i] for i in moved]), tags)


def _enumerate(program: CircuitProgram, observed: tuple[str, ...], initial: PureState | None) -> np.ndarray:
    """The exact joint distribution of the observed registers as an array
    with one axis per observed register, in ``observed`` order: the
    enumeration of a walk that leaves the unobserved terminal measurements
    out."""
    if not observed:
        raise ProgramError("no observed registers")
    missing = set(observed) - set(program.measured_registers())
    if missing:
        raise ProgramError(f"observed registers {sorted(missing)} are never measured")
    return _BranchWalk(program, initial, observed).enumerate(observed)


def enumerate_outcome_distribution(
    program: CircuitProgram, observed: Sequence[str], initial: PureState | None = None
) -> dict[tuple[int, ...], float]:
    """Exact joint distribution of the observed registers' measured values,
    starting from ``initial`` (default |0...0>).

    Walks every measurement and visible dephasing branch; nothing is
    sampled, a dephasing branch records no outcome, and an inert dephasing
    is not branched on (its branches' weights sum to 1).  The measurements
    that end the program commute, so the unobserved ones among them are
    summed out (the principle of implicit measurement).  The branches of a
    measurement that a later node follows advance as one block of rows:
    one unitary segment up to that node, and that node's marginal on every
    branch reduced at once.  The last node is read off its marginals
    without a projection: no branch is divided, so each branch that reaches
    it adds its undivided marginal, its joint probabilities, into an array
    over the observed registers' joint values, in ascending order, and
    values at or below ``PROB_EPS`` are dropped from the sum.  The keys are
    the values some branch reaches.  Observing no register is a
    ``ProgramError``.
    """
    acc = _enumerate(program, tuple(observed), initial)
    return {tuple(int(v) for v in key): float(acc[key]) for key in zip(*np.nonzero(acc))}


def equivalent_distributions(
    p1: CircuitProgram, p2: CircuitProgram, observed: Sequence[str]
) -> StateDistance:
    """Total-variation distance between the exact observed-outcome
    distributions of two programs, taken over their arrays."""
    if p1.layout != p2.layout:
        raise ShapeMismatchError("programs must share a register layout")
    observed = tuple(sorted(observed))
    diff = _enumerate(p1, observed, None)
    diff -= _enumerate(p2, observed, None)
    return StateDistance(0.5 * float(np.abs(diff, out=diff).sum()), kind="distribution")


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
    A measurement or dephasing before ``to_tag`` is rejected.  All three
    steps run on a slice: the projection fixes the register instead of
    zero-filling a full state, and the inverse runs as one segment.
    """
    reg, value = final_outcome
    program.layout.qubits(reg)
    from_b = _boundary(program, from_tag)
    first_measure = next((i for i in program._plan.measures if i >= from_b), len(program.instructions))
    to_b = program.time_tags.get(to_tag, first_measure)
    if to_b < from_b:
        raise ProgramError(f"tag {to_tag!r} precedes {from_tag!r}")
    prefix = _prefix(program, to_b)
    projected = _gather(prefix, reg, (value,))
    weight = _projection_weight(prefix, reg, value)
    inverses = [step for instr in program.instructions[from_b:to_b][::-1] for step in _inverse(instr)]
    return _advance(projected, inverses).state(weight)
