"""Outcome statistics of register contents, and the random-phase picture.

A register's outcome distribution is |amplitude|^2 summed over every other
register's values, one in-order reduction (``_summed_squares``) shared by
``outcome_distribution`` and ``circuit_ir``'s walk, and a Born sample is
one uniform looked up in its cumulative sums.  The state change of a
measurement is ``circuit_ir``'s: the walk keeps the amplitudes in the
observed eigenspace undivided, their squared norm the outcome's
probability, and divides a state by its square root only where it hands
one out.  ``project`` and ``measure_register`` run it as one-instruction
walks, and projecting onto a zero-probability outcome raises
``DegenerateStateError`` instead of silently returning a zero vector.

The module also carries the random-phase picture of a mixed state: a pure
state and a register whose values carry independent uniform phases, so the
phase-averaged outer product is the density matrix.  One kernel phases the
register's block, for ``PhasedMixture`` and ``circuit_ir``'s ``Dephase``.
The average is exact in closed form (cross terms between values vanish) and
sampled as a Monte Carlo over drawn phases.  The phases act diagonally on
the traced register, so the Monte Carlo reduces the state once and then
draws only phases: each entry of the reduction is scaled by the average
correlation of its two slots' phase factors.  The closed form is its oracle
for large sample counts, and the literal route (one phased state reduced
per draw) is its oracle in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .qstate import PureState, RegisterLayout

# Outcomes below this probability are treated as unreachable.
PROB_EPS = 1e-15

# Dense density matrices are capped at this many qubits.
MAX_DENSITY_QUBITS = 10


@dataclass(frozen=True)
class ProjectionOperator:
    """Projector onto the subspace where ``reg`` holds ``outcome``."""

    reg: str
    outcome: int


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born-rule probabilities for every value a register can take."""

    reg: str
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """The values above ``PROB_EPS``, ascending."""
        return tuple(int(v) for v in np.nonzero(self.probabilities > PROB_EPS)[0])

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only cumulative distribution, built with the steps
        ``Generator.choice`` takes on ``p``: clip at 0, divide by the sum,
        ``cumsum``, divide by the last entry."""
        probs = np.clip(self.probabilities, 0.0, None)
        cdf = np.cumsum(np.divide(probs, probs.sum(), out=probs), out=probs)  # in place: one array
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix over the listed registers (layout order)."""

    matrix: np.ndarray
    registers: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatchError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] > (1 << MAX_DENSITY_QUBITS):
            raise ShapeMismatchError(f"dense density matrices are capped at {MAX_DENSITY_QUBITS} qubits")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace is {np.trace(m).real}, not 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def frobenius_distance(self, other: "DensityMatrix | np.ndarray") -> float:
        other_m = other.matrix if isinstance(other, DensityMatrix) else np.asarray(other)
        return float(np.linalg.norm(self.matrix - other_m))

    def to_json(self) -> dict:
        return {
            "registers": list(self.registers),
            "dimension": self.dimension,
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class MeasurementRecord:
    """One Born sample: which register, what came out, how likely it was."""

    register: str
    outcome: int
    probability: float
    seed: int | None = None

    def to_json(self) -> dict:
        return {"register": self.register, "outcome": self.outcome, "probability": self.probability, "seed": self.seed}


def record_lines(
    registers: Sequence[str], outcomes: np.ndarray, probabilities: np.ndarray, seed: int | None
) -> str:
    """The records of ``circuit_ir.sample_outcomes``' arrays as JSON lines,
    trial-major and in register order, written from the arrays without a
    record object: each line has the bytes of
    ``json.dumps(MeasurementRecord(register, outcome, probability, seed).to_json(), sort_keys=True)``
    (keys sorted, a probability written by ``float.__repr__`` as ``json``
    writes a finite float)."""
    tails = [f', "register": {json.dumps(reg)}, "seed": {json.dumps(seed)}}}\n' for reg in registers]
    return "".join(
        f'{{"outcome": {outcome}, "probability": {probability!r}{tail}'
        for row, probs in zip(outcomes.tolist(), probabilities.tolist())
        for outcome, probability, tail in zip(row, probs, tails)
    )


def _summed_squares(block: np.ndarray, axis: int) -> np.ndarray:
    """|amplitude|^2 of a ``(rows, ...)`` block of any strides summed over
    every axis but the first and ``axis``: over the axes after ``axis``,
    then over those before it, each sum in index order, one term after
    another.  An exact zero adds nothing in such a sum, wherever it stands,
    so leaving zero terms out keeps every bit: the walk's rows, which leave
    out the values their register does not take, sum as the written-out
    state does.  numpy adds the leading axis of a reduction one slice at a
    time, so the squares are laid out with the axes after ``axis`` first
    (numpy adds eight or more terms along the innermost axis pairwise).  An
    axis of one value, a register held as one row, would leave the summed
    axes innermost, so its squares are accumulated one term after another."""
    rows, d = block.shape[0], block.shape[axis]
    left, right = prod(block.shape[1:axis]), prod(block.shape[axis + 1 :])
    if right > 1:
        block = block.transpose([*range(axis + 1, block.ndim), *range(axis + 1)])
    squares = np.abs(block, order="C")
    squares **= 2
    squares = squares.reshape(right, rows, left, d)
    if d == 1:
        return np.add.accumulate(np.add.accumulate(squares, axis=0)[-1], axis=1)[:, -1]
    squares = np.add.reduce(squares, axis=0) if right > 1 else squares[0]
    return squares[:, 0] if left == 1 else squares.sum(axis=1)


def outcome_distribution(state: PureState, reg: str) -> OutcomeDistribution:
    """Exact measurement statistics for one register."""
    return OutcomeDistribution(reg, _summed_squares(state.amplitudes.reshape(1, *state.layout.axis_shape(reg)), 2)[0])


def born_sample(dist: OutcomeDistribution, rng: np.random.Generator) -> int:
    """Draw one outcome according to the distribution: one ``rng.random()``
    looked up in ``dist.cdf``.  That is the double ``rng.choice`` draws and
    the index it returns for the same probabilities, so the outcome and the
    generator state match it bit for bit; the CDF is built once per
    distribution instead of once per draw."""
    return int(dist.cdf.searchsorted(rng.random(), side="right"))


def _keep_axes(layout: RegisterLayout, keep: Iterable[str] | None) -> list[int]:
    """Layout positions of the kept registers; ``None`` keeps them all.  The
    density cap is checked here, before any product is formed."""
    keep_set = set(layout.names if keep is None else keep)
    if not keep_set:
        raise ValueError("keep set must not be empty")
    if sum(layout.qubits(reg) for reg in keep_set) > MAX_DENSITY_QUBITS:  # raises on unknown names
        raise ShapeMismatchError(f"dense density matrices are capped at {MAX_DENSITY_QUBITS} qubits")
    return [i for i, name in enumerate(layout.names) if name in keep_set]


def partial_trace(state: PureState, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over the kept registers (in layout order): the
    amplitudes arranged as a (kept dimension, rest) matrix times its
    adjoint."""
    layout = state.layout
    keep_axes = _keep_axes(layout, keep)
    shape = [layout.dim(name) for name in layout.names]
    rest = [i for i in range(len(shape)) if i not in keep_axes]
    kept_dim = int(np.prod([shape[i] for i in keep_axes]))
    rows = state.amplitudes.reshape(shape).transpose(keep_axes + rest).reshape(kept_dim, -1)
    return DensityMatrix(rows @ rows.conj().T, tuple(layout.names[i] for i in keep_axes))


def _dephase(block: np.ndarray, values: Sequence[int], phases: np.ndarray) -> np.ndarray:
    """A ``(left, d, right)`` block with one phase factor on each listed
    value of its middle axis and every other value zeroed."""
    factors = np.zeros(block.shape[1], dtype=np.complex128)
    factors[list(values)] = np.exp(1j * np.asarray(phases, dtype=float))
    # factor first, as in the random-phase picture's ``phase factor * slot``
    # (numpy's complex product fuses one of its multiply-adds, so the order
    # shows in the last bit); adding 0.0 turns the -0.0 a zero factor can
    # leave into the +0.0 of an empty slot
    out = factors[:, None] * block
    out += 0.0
    return out


@dataclass(frozen=True)
class PhasedMixture:
    """A mixed state written as one pure state with random phases: the
    components of ``state`` that share a value of ``traced_reg`` (a slot)
    take one independent uniform phase.  The slot values are the support of
    the register's marginal, so slots are disjoint by construction and are
    never stored: every route phases the register's block of ``state``."""

    state: PureState
    traced_reg: str

    def __post_init__(self):
        self.state.layout.qubits(self.traced_reg)  # raises UnknownRegisterError

    @property
    def layout(self) -> RegisterLayout:
        return self.state.layout

    @cached_property
    def slot_values(self) -> tuple[int, ...]:
        """The traced register's values above ``PROB_EPS``, ascending."""
        return outcome_distribution(self.state, self.traced_reg).support

    @property
    def slot_count(self) -> int:
        return len(self.slot_values)

    def flatten(self, phases: Sequence[float] | None = None) -> PureState:
        """The state with the given slot phases applied (all zero by default)."""
        if phases is None:
            phases = np.zeros(self.slot_count)
        if len(phases) != self.slot_count:
            raise ShapeMismatchError(f"need {self.slot_count} phases, got {len(phases)}")
        block = self.state.amplitudes.reshape(self.layout.axis_shape(self.traced_reg))
        phased = _dephase(block, self.slot_values, phases)
        return PureState._adopt(self.layout, phased.reshape(-1))


def sample_phases(m: PhasedMixture, rng: np.random.Generator) -> PureState:
    """Draw each slot phase uniformly from [0, 2*pi) and flatten."""
    return m.flatten(rng.uniform(0.0, 2.0 * np.pi, size=m.slot_count))


def average_density(
    m: PhasedMixture,
    samples: int,
    rng: np.random.Generator,
    keep: Iterable[str] | None = None,
) -> DensityMatrix:
    """Monte Carlo average of |psi><psi| over sampled phases, reduced to the
    kept registers.

    Straight averaging intentionally; the exact counterpart is
    ``analytic_average_density``, against which this converges at the
    usual 1/sqrt(samples) rate.  The phases act diagonally on the traced
    register, so one draw's reduction is the zero-phase reduction rho with
    entry (i, j) times e^(i phi_a) e^(-i phi_b), a and b the slots of the
    rows' traced values.  The state is reduced once; each batch of 2048
    draws only adds its phase correlations, sum over draws of that
    product, to one slot-by-slot matrix, and the average is rho times each
    entry's correlation over the sample count.  With the traced register
    traced out, every draw's reduction is rho itself.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    layout, reg = m.layout, m.traced_reg
    reduced = partial_trace(m.flatten(), layout.names if keep is None else keep)
    rho, kept = reduced.matrix, reduced.registers
    correlations = np.zeros((m.slot_count, m.slot_count), dtype=np.complex128)
    for done in range(0, samples, 2048):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(min(2048, samples - done), m.slot_count))
        factors = np.exp(1j * phases)
        correlations += factors.T @ factors.conj()
    if reg in kept:
        slot = np.zeros(layout.dim(reg), dtype=np.intp)
        slot[list(m.slot_values)] = np.arange(m.slot_count)
        row_slot = slot[_row_values(layout, kept, reg)]
        rho = rho * correlations[row_slot[:, None], row_slot] / samples
    # Tame sampling noise that would trip the strict constructor checks.
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho, kept)


def _row_values(layout: RegisterLayout, kept: Sequence[str], reg: str) -> np.ndarray:
    """The value of ``reg`` on each row of a density over ``kept`` (layout
    order, ``reg`` among them)."""
    shift = sum(layout.qubits(name) for name in kept[kept.index(reg) + 1 :])
    return (np.arange(1 << sum(layout.qubits(name) for name in kept)) >> shift) % layout.dim(reg)


def analytic_average_density(
    m: PhasedMixture,
    keep: Iterable[str] | None = None,
    phase_groups: Sequence[Sequence[int]] | None = None,
) -> DensityMatrix:
    """Exact expectation of |psi><psi| over the slot phases.

    With independent phases (the default) every cross-slot term averages to
    zero.  Passing ``phase_groups`` forces the slots inside one group to
    share a single phase variable, so their mutual cross terms survive;
    groups must partition the slot indices.  With the traced register traced
    out, no cross-slot term is left, and the average is the partial trace;
    with it kept, it is the partial trace with every entry between traced
    values in different groups (or outside the support) zeroed.
    """
    if phase_groups is None:
        phase_groups = [[h] for h in range(m.slot_count)]
    seen = sorted(h for group in phase_groups for h in group)
    if seen != list(range(m.slot_count)):
        raise ValueError("phase_groups must partition the slot indices")
    layout, reg = m.layout, m.traced_reg
    reduced = partial_trace(m.state, layout.names if keep is None else keep)
    kept = reduced.registers
    if reg not in kept:
        return reduced
    group = np.full(layout.dim(reg), -1)
    for g, members in enumerate(phase_groups):
        group[[m.slot_values[h] for h in members]] = g
    row_group = group[_row_values(layout, kept, reg)]
    same = (row_group[:, None] == row_group) & (row_group[:, None] >= 0)
    return DensityMatrix(np.where(same, reduced.matrix, 0.0), kept)
