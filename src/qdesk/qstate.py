"""Multi-register state vectors with exact complex amplitudes.

A layout packs named qubit registers into a single basis index.  The first
register in the list is the most significant block of bits, and within a
register the usual binary convention (MSB first) applies.  Every module in
the package shares this one convention.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import DegenerateStateError, ProgramError, ShapeMismatchError, UnknownRegisterError

# Equality / normalization tolerances used throughout the package.
STATE_ATOL = 1e-10
NORM_ATOL = 1e-12

# The widest layout a dense state may have: 2^20 amplitudes, 16 MiB.
MAX_QUBITS = 20


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and restore its previous state on
    exit: lists of amplitude pairs hold only floats, yet each allocation
    burst of them would have it walk them all again."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a Python or a numpy one, and not a bool."""
    return type(value) is int or isinstance(value, np.integer)


def _json_field(doc, key: str, kind, at: str, default=MISSING, error: type[Exception] = ProgramError):
    """``doc[key]`` from the JSON object at ``at`` in a document, or
    ``default`` when the key is absent.  An ``error`` that names the field
    is raised when ``doc`` is not an object, when a key without a default is
    absent, or when the value is not of type ``kind`` (for ``int``, a
    Python or numpy integer and never a bool)."""
    if not isinstance(doc, Mapping):
        raise error(f"{at} must be an object, not {doc!r:.60}")
    if key not in doc:
        if default is MISSING:
            raise error(f"{at} has no {key!r}")
        return default
    value = doc[key]
    if not (_is_integer(value) if kind is int else isinstance(value, kind)):
        raise error(f"{at}.{key} must be {'an object' if kind is Mapping else kind.__name__}, not {value!r:.60}")
    return value


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; first entry holds the most significant bits.

    Sizes, offsets and the total width are computed once, on construction,
    so ``qubits``, ``offset`` and ``total_qubits`` are lookups.  A layout
    wider than ``MAX_QUBITS``, or one whose qubit count is not an integer
    of at least 1, is rejected here, before any state of it is allocated.
    """

    registers: tuple[tuple[str, int], ...]
    total_qubits: int = field(init=False, repr=False, compare=False)
    _fields: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, q in self.registers:
            if not (_is_integer(q) and q > 0):
                raise ShapeMismatchError(f"register {name!r} must have >= 1 qubit, got {q!r:.60}")
        regs = tuple((str(name), int(q)) for name, q in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ShapeMismatchError(f"duplicate register names in {names}")
        if not regs:
            raise ShapeMismatchError("layout needs at least one register")
        fields, off = {}, 0
        for name, q in reversed(regs):
            fields[name] = (q, off)
            off += q
        if off > MAX_QUBITS:
            raise ShapeMismatchError(f"layout has {off} qubits, more than the {MAX_QUBITS}-qubit ceiling")
        object.__setattr__(self, "total_qubits", off)
        object.__setattr__(self, "_fields", fields)

    @classmethod
    def of(cls, **sizes: int) -> "RegisterLayout":
        """Build a layout from keyword order, e.g. ``RegisterLayout.of(X=2, F=2)``."""
        return cls(tuple(sizes.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def dimension(self) -> int:
        return 1 << self.total_qubits

    def _field(self, reg: str) -> tuple[int, int]:
        try:
            return self._fields[reg]
        except KeyError:
            raise UnknownRegisterError(reg) from None

    def qubits(self, reg: str) -> int:
        return self._field(reg)[0]

    def dim(self, reg: str) -> int:
        return 1 << self.qubits(reg)

    def offset(self, reg: str) -> int:
        """Bit offset of the register's least significant bit."""
        return self._field(reg)[1]

    def axis_shape(self, reg: str) -> tuple[int, int, int]:
        """Shape ``(left, d, right)`` that puts one register on the middle axis.

        Reshaping an amplitude vector to it is a view: ``left`` runs over the
        more significant registers, ``right`` over the less significant ones.
        Every register-wise gate and measurement works on this view.
        """
        d = self.dim(reg)
        right = 1 << self.offset(reg)
        return self.dimension // (d * right), d, right

    def encode(self, assignments: Mapping[str, int]) -> int:
        """Pack per-register values into a basis index; omitted registers are 0."""
        for reg in assignments:
            self.qubits(reg)  # raises UnknownRegisterError
        index = 0
        for name, q in self.registers:
            value = int(assignments.get(name, 0))
            if not 0 <= value < (1 << q):
                raise ValueError(f"value {value} out of range for register {name!r} ({q} qubits)")
            index = (index << q) | value
        return index

    def extract(self, index: int, reg: str) -> int:
        return (index >> self.offset(reg)) & (self.dim(reg) - 1)

    def decode(self, index: int) -> dict[str, int]:
        return {name: self.extract(index, name) for name, _ in self.registers}

    def to_json(self) -> dict:
        return {"registers": [[name, q] for name, q in self.registers]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "RegisterLayout":
        """The layout of a ``{"registers": [[name, qubits], ...]}`` document;
        one that is not a layout, or that the constructor rejects, is a
        ``ShapeMismatchError`` that names what is wrong."""
        pairs = _json_field(doc, "registers", list, "layout", error=ShapeMismatchError)
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)):
                raise ShapeMismatchError(f"layout.registers[{k}] must be a [name, qubits] pair, got {pair!r:.60}")
        return cls(tuple(map(tuple, pairs)))


@dataclass(frozen=True)
class PureState:
    """Dense complex amplitude vector over ``layout.dimension`` basis states.

    Instances are immutable: the amplitude buffer is copied on construction
    and marked read-only, so states are safe to share and every operation on
    them returns a fresh value.  Kernels that have just built a fresh buffer
    hand it over with ``_adopt``, which freezes it without a second copy.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.dimension,):
            raise ShapeMismatchError(
                f"amplitude vector has shape {amps.shape}, layout needs ({self.layout.dimension},)"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, layout: RegisterLayout, amps: np.ndarray) -> "PureState":
        """A state over a fresh complex128 buffer that nothing else holds:
        the buffer is frozen and kept, not copied."""
        if amps.dtype != np.complex128 or amps.shape != (layout.dimension,):
            raise ShapeMismatchError(
                f"adopted buffer is {amps.dtype} {amps.shape}, layout needs complex128 ({layout.dimension},)"
            )
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "amplitudes", amps)
        return state

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def with_amplitudes(self, amps: np.ndarray) -> "PureState":
        return PureState(self.layout, amps)

    def to_json(self) -> dict:
        """Amplitudes as ``[re, im]`` pairs, built from the float64 view of the
        buffer in one ``tolist`` (signed zeros and subnormals kept), with the
        cyclic garbage collector paused."""
        with collector_paused():
            pairs = self.amplitudes.view(np.float64).reshape(-1, 2).tolist()
        return {"layout": self.layout.to_json(), "amplitudes": pairs}

    @classmethod
    def from_json(cls, doc: Mapping) -> "PureState":
        layout = RegisterLayout.from_json(doc["layout"])
        pairs = np.array(doc["amplitudes"], dtype=np.float64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ShapeMismatchError(f"amplitudes must be [re, im] pairs, got shape {pairs.shape}")
        return cls._adopt(layout, pairs.view(np.complex128).reshape(-1))


@dataclass(frozen=True)
class StateDistance:
    """Non-negative distance with a label saying which metric produced it."""

    value: float
    kind: str  # "pure" | "distribution" | "frobenius"

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError(f"distance must be non-negative, got {self.value}")
        object.__setattr__(self, "value", max(0.0, float(self.value)))


def make_basis_state(layout: RegisterLayout, assignments: Mapping[str, int]) -> PureState:
    """Computational basis state with the given per-register values."""
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    amps[layout.encode(assignments)] = 1.0
    return PureState._adopt(layout, amps)


def normalize(state: PureState) -> PureState:
    """Scale to unit norm; a (numerically) zero vector is an error.

    A state whose norm is already 1 up to rounding is returned unchanged,
    which makes the operation exactly idempotent.
    """
    n = state.norm()
    if n < NORM_ATOL:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    if abs(n - 1.0) < 5e-13:
        return state
    return PureState._adopt(state.layout, state.amplitudes / n)


def compare_up_to_global_phase(a: PureState, b: PureState) -> StateDistance:
    """Return 1 - |<a|b>|, which is zero iff the states differ only by a phase."""
    if a.layout != b.layout:
        raise ShapeMismatchError(f"layout mismatch: {a.layout} vs {b.layout}")
    na, nb = a.norm(), b.norm()
    if na < NORM_ATOL or nb < NORM_ATOL:
        raise DegenerateStateError("cannot compare zero-norm states")
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) / (na * nb)
    return StateDistance(1.0 - min(overlap, 1.0), kind="pure")
