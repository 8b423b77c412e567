"""Projective measurement of register contents.

Measurement is modelled in two detachable halves: the outcome statistics
(squared amplitudes summed over a register's basis values) and the state
change (zero out every amplitude outside the observed eigenspace, then
renormalize).  Projecting onto a zero-probability outcome raises
``DegenerateStateError`` instead of silently returning a zero vector.

The module also carries the random-phase picture of a mixed state: a pure
state whose components are tagged with independent uniform phases, whose
phase-averaged outer product reproduces the density matrix.  The average is
available both in closed form (cross terms between phase slots vanish
exactly) and as a literal Monte Carlo over sampled phases; the closed form
is the oracle for the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateStateError, ShapeMismatchError
from .qstate import NORM_ATOL, PureState, RegisterLayout

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
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    def total_variation(self, other: "OutcomeDistribution") -> float:
        return 0.5 * float(np.abs(self.probabilities - other.probabilities).sum())


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
        doc = {"register": self.register, "outcome": self.outcome, "probability": self.probability}
        doc["seed"] = self.seed
        return doc


def _register_marginal(block: np.ndarray) -> np.ndarray:
    """Sum |amplitude|^2 of a ``(left, d, right)`` view over all but the register axis."""
    return (np.abs(block) ** 2).sum(axis=(0, 2))


def outcome_distribution(state: PureState, reg: str) -> OutcomeDistribution:
    """Exact measurement statistics for one register."""
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    return OutcomeDistribution(reg, _register_marginal(block))


def project(state: PureState, p: ProjectionOperator) -> PureState:
    """Keep only amplitudes with ``reg == outcome`` and renormalize (Born filter)."""
    block = state.amplitudes.reshape(state.layout.axis_shape(p.reg))
    if not 0 <= p.outcome < block.shape[1]:
        raise ValueError(f"outcome {p.outcome} out of range for register {p.reg!r}")
    kept = block[:, p.outcome, :]
    weight = float(np.vdot(kept, kept).real)
    if weight < PROB_EPS:
        raise DegenerateStateError(
            f"projection on {p.reg}={p.outcome} has zero probability"
        )
    out = np.zeros_like(block)
    out[:, p.outcome, :] = kept / np.sqrt(weight)
    return PureState._adopt(state.layout, out.reshape(-1))


def born_sample(dist: OutcomeDistribution, rng: np.random.Generator) -> int:
    """Draw one outcome according to the distribution: one ``rng.random()``
    looked up in ``dist.cdf``.  That is the double ``rng.choice`` draws and
    the index it returns for the same probabilities, so the outcome and the
    generator state match it bit for bit; the CDF is built once per
    distribution instead of once per draw."""
    return int(dist.cdf.searchsorted(rng.random(), side="right"))


def measure_register(
    state: PureState, reg: str, rng: np.random.Generator
) -> tuple[int, PureState]:
    """Sample an outcome and return it with the post-measurement state."""
    dist = outcome_distribution(state, reg)
    outcome = born_sample(dist, rng)
    return outcome, project(state, ProjectionOperator(reg, outcome))


def _register_dims(layout: RegisterLayout) -> list[int]:
    return [layout.dim(name) for name in layout.names]


def _keep_axes(layout: RegisterLayout, keep: Iterable[str] | None) -> list[int]:
    """Layout positions of the kept registers; ``None`` keeps them all."""
    if keep is None:
        return list(range(len(layout.names)))
    keep_set = set(keep)
    for reg in keep_set:
        layout.qubits(reg)
    if not keep_set:
        raise ValueError("keep set must not be empty")
    return [i for i, name in enumerate(layout.names) if name in keep_set]


def _kept_rows(amplitudes: np.ndarray, layout: RegisterLayout, keep_axes: list[int]) -> np.ndarray:
    """Arrange amplitude vectors as a (kept dimension, rest) matrix.

    ``amplitudes`` is one vector or a stack of them along leading axes; the
    stack axes join the traced registers as columns, so ``rows @ rows^H`` is
    the sum of the vectors' reduced outer products over the kept registers.
    """
    shape = _register_dims(layout)
    stack = amplitudes.shape[:-1]
    tensor = amplitudes.reshape(stack + tuple(shape))
    kept = [len(stack) + i for i in keep_axes]
    rest = [i for i in range(tensor.ndim) if i not in kept]
    kept_dim = int(np.prod([shape[i] for i in keep_axes]))
    return tensor.transpose(kept + rest).reshape(kept_dim, -1)


def partial_trace(state: PureState, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over the kept registers (in layout order)."""
    layout = state.layout
    keep_axes = _keep_axes(layout, keep)
    rows = _kept_rows(state.amplitudes, layout, keep_axes)
    return DensityMatrix(rows @ rows.conj().T, tuple(layout.names[i] for i in keep_axes))


@dataclass(frozen=True)
class PhasedMixture:
    """A mixed state written as one pure state with random phases.

    ``slots`` are full-dimension amplitude vectors with pairwise disjoint
    support; slot ``h`` collects the components that share the traced
    register's value ``slot_values[h]``.  Setting every phase to zero and
    summing the slots recovers the original pure state.
    """

    layout: RegisterLayout
    slots: tuple[np.ndarray, ...]
    slot_values: tuple[int, ...] = ()
    traced_reg: str | None = None

    def __post_init__(self):
        frozen = []
        for s in self.slots:
            arr = np.array(s, dtype=np.complex128)
            if arr.shape != (self.layout.dimension,):
                raise ShapeMismatchError("every slot must span the full layout dimension")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "slots", tuple(frozen))
        object.__setattr__(self, "slot_values", tuple(int(v) for v in self.slot_values))

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def flatten(self, phases: Sequence[float] | None = None) -> PureState:
        """Sum the slots with the given phases (all zero by default)."""
        if phases is None:
            phases = np.zeros(self.slot_count)
        if len(phases) != self.slot_count:
            raise ShapeMismatchError(f"need {self.slot_count} phases, got {len(phases)}")
        total = np.zeros(self.layout.dimension, dtype=np.complex128)
        for phase, slot in zip(phases, self.slots):
            total += np.exp(1j * phase) * slot
        return PureState(self.layout, total)


def phased_mixture_from_state(state: PureState, traced_reg: str) -> PhasedMixture:
    """Group a state's components by the traced register's value, one phase slot each."""
    block = state.amplitudes.reshape(state.layout.axis_shape(traced_reg))
    values = OutcomeDistribution(traced_reg, _register_marginal(block)).support
    slots = []
    for v in values:
        slot = np.zeros_like(block)
        slot[:, v, :] = block[:, v, :]
        slots.append(slot.reshape(-1))
    return PhasedMixture(state.layout, tuple(slots), tuple(values), traced_reg)


def sample_phases(m: PhasedMixture, rng: np.random.Generator) -> PureState:
    """Draw each slot phase uniformly from [0, 2*pi) and flatten."""
    return m.flatten(rng.uniform(0.0, 2.0 * np.pi, size=m.slot_count))


def average_density(
    m: PhasedMixture,
    samples: int,
    rng: np.random.Generator,
    keep: Iterable[str] | None = None,
) -> DensityMatrix:
    """Monte Carlo average of |psi><psi| over sampled phases.

    Straight averaging intentionally; the exact counterpart is
    ``analytic_average_density``, against which this converges at the
    usual 1/sqrt(samples) rate.  With ``keep``, each batch of sampled
    states is reduced to the kept registers before it is accumulated, so
    the full-layout matrix is never formed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    layout = m.layout
    keep_axes = _keep_axes(layout, keep)
    slot_matrix = np.stack(m.slots)  # (H, dim)
    rho = 0.0
    done = 0
    batch = 2048
    while done < samples:
        count = min(batch, samples - done)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, m.slot_count))
        rows = _kept_rows(np.exp(1j * phases) @ slot_matrix, layout, keep_axes)
        rho = rho + rows @ rows.conj().T
        done += count
    rho /= samples
    # Tame sampling noise that would trip the strict constructor checks.
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho, tuple(layout.names[i] for i in keep_axes))


def analytic_average_density(
    m: PhasedMixture,
    keep: Iterable[str] | None = None,
    phase_groups: Sequence[Sequence[int]] | None = None,
) -> DensityMatrix:
    """Exact expectation of |psi><psi| over the slot phases.

    With independent phases (the default) every cross-slot term averages to
    zero, leaving the block sum of the slots' outer products.  Passing
    ``phase_groups`` forces the slots inside one group to share a single
    phase variable, so their mutual cross terms survive; groups must
    partition the slot indices.  With ``keep``, each group's vector is
    reduced to the kept registers directly, so the full-layout matrix is
    never formed and only the kept registers count against the density cap.
    """
    if phase_groups is None:
        phase_groups = [[h] for h in range(m.slot_count)]
    seen = sorted(h for group in phase_groups for h in group)
    if seen != list(range(m.slot_count)):
        raise ValueError("phase_groups must partition the slot indices")
    layout = m.layout
    keep_axes = _keep_axes(layout, keep)
    zero = np.zeros(layout.dimension, dtype=np.complex128)
    groups = np.stack([sum((m.slots[h] for h in group), zero) for group in phase_groups])
    rows = _kept_rows(groups, layout, keep_axes)
    return DensityMatrix(rows @ rows.conj().T, tuple(layout.names[i] for i in keep_axes))
