"""Unitaries applied register-wise: Hadamard layers, Fourier transforms,
XOR table oracles, and the inversion-about-mean step.

Every register-wise operation works on the ``(left, d, right)`` view of
the amplitude vector (``RegisterLayout.axis_shape``).  The Hadamard layer
runs in-place butterflies over one work copy of that vector, one bit at a
time, and scales once at the end; the diffusion step sums the middle axis
pairwise over a copy that makes it the contiguous last axis.  Oracles are
basis-index permutations of the amplitude vector, never dense matrices:
cost O(2^total) per application instead of O(4^total).  A table holds its
entries as a read-only int64 array and builds its oracle permutation over
the joint (input, output) value once, on first use; an oracle moves its
registers to the trailing axes and gathers along that permutation, every
other register a batch axis.  The Fourier transform runs as an FFT along
the register axis by default; the dense matrix form (``method="dense"``,
``fourier_matrix``) is kept only as the oracle that tests and the self-test
compare the FFT against, within 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import ShapeMismatchError
from .qstate import PureState


class _XorTable:
    """What both tables share: ``values``, the entries as a read-only int64
    array built once on construction, and ``permutation``, the oracle's
    basis map built on first use and kept for the life of the table."""

    def _store(self, entries: int) -> None:
        """Check the entries for length and range, then keep them as
        ``values`` and as the ``table`` tuple."""
        out_of_range = f"table entry out of range for {self.output_bits} output bits"
        try:
            values = np.array(self.table, dtype=np.int64)
        except OverflowError:
            raise ShapeMismatchError(out_of_range) from None
        if values.shape != (entries,):
            raise ShapeMismatchError(f"table has {values.size} entries, expected {entries}")
        if values.min() < 0 or values.max() >= 1 << self.output_bits:
            raise ShapeMismatchError(out_of_range)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "table", tuple(values.tolist()))

    @cached_property
    def permutation(self) -> np.ndarray:
        return _xor_permutation(self.values, self.output_bits)


def _xor_permutation(values: np.ndarray, output_bits: int) -> np.ndarray:
    """Flat read-only index map (key, y) -> (key, y XOR values[key]) over the
    key-major pairs; a self-inverse permutation."""
    outputs = np.arange(1 << output_bits)
    keys = np.arange(values.size)[:, None] << output_bits
    perm = (keys | (outputs ^ values[:, None])).reshape(-1)
    perm.setflags(write=False)
    return perm


@dataclass(frozen=True)
class FunctionTable(_XorTable):
    """Explicit lookup table for f: {0,1}^input_bits -> {0,1}^output_bits.

    ``table`` may be any sequence or array of integers; it is stored as a
    tuple, which equality, hashing and JSON use.
    """

    input_bits: int
    output_bits: int
    table: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store(1 << self.input_bits)

    @classmethod
    def from_callable(cls, fn: Callable[[int], int], input_bits: int, output_bits: int) -> "FunctionTable":
        return cls(input_bits, output_bits, tuple(fn(x) for x in range(1 << input_bits)))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def to_json(self) -> dict:
        return {"input_bits": self.input_bits, "output_bits": self.output_bits, "table": list(self.table)}

    @classmethod
    def from_json(cls, doc: Mapping) -> "FunctionTable":
        return cls(doc["input_bits"], doc["output_bits"], tuple(doc["table"]))


@dataclass(frozen=True)
class ModedFunctionTable(_XorTable):
    """Lookup table for F(mode, x), stored row-major over (mode, x)."""

    mode_bits: int
    input_bits: int
    output_bits: int
    table: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store(1 << (self.mode_bits + self.input_bits))

    def __call__(self, mode: int, x: int) -> int:
        return self.table[(mode << self.input_bits) | x]

    @classmethod
    def equality_test(cls, bits: int) -> "ModedFunctionTable":
        """The drawer oracle: output 1 exactly when mode == x."""
        return cls(bits, bits, 1, np.eye(1 << bits, dtype=np.int64).reshape(-1))

    def to_json(self) -> dict:
        return {
            "mode_bits": self.mode_bits,
            "input_bits": self.input_bits,
            "output_bits": self.output_bits,
            "table": list(self.table),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "ModedFunctionTable":
        return cls(doc["mode_bits"], doc["input_bits"], doc["output_bits"], tuple(doc["table"]))


def modexp_output_bits(modulus: int) -> int:
    """Width of the register that holds a residue mod ``modulus``."""
    return max(1, (modulus - 1).bit_length())


def modexp_table(base: int, modulus: int, input_bits: int) -> FunctionTable:
    """Table for f(x) = base**x mod modulus; requires gcd(base, modulus) = 1."""
    if modulus < 2 or math.gcd(base, modulus) != 1:
        raise ValueError(f"need gcd(base, modulus) = 1 and modulus >= 2, got {base}, {modulus}")
    output_bits = modexp_output_bits(modulus)
    values = []
    acc = 1 % modulus
    for _ in range(1 << input_bits):
        values.append(acc)
        acc = (acc * base) % modulus
    return FunctionTable(input_bits, output_bits, tuple(values))


def hadamard_all(state: PureState, reg: str) -> PureState:
    """Apply H to every qubit of the register.

    Copies the amplitudes once into a work buffer, then runs one unscaled
    butterfly (a0, a1) -> (a0 + a1, a0 - a1) per register bit over the
    buffer's ``(left * 2^k, 2, rest)`` view, in place, and multiplies by
    2^(-q/2) once at the end.  A half-length scratch holds each difference,
    so a layer allocates 1.5 times the state and no array per bit.
    """
    left = state.layout.axis_shape(reg)[0]
    q = state.layout.qubits(reg)
    work = state.amplitudes.copy()
    scratch = np.empty(work.size // 2, dtype=work.dtype)
    for k in range(q):
        pairs = work.reshape(left << k, 2, -1)
        a0, a1 = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(a0.shape)
        np.subtract(a0, a1, out=diff)
        a0 += a1
        a1[...] = diff
    work *= 2.0 ** (-q / 2)
    return PureState._adopt(state.layout, work)


@lru_cache(maxsize=None)
def fourier_matrix(qubits: int, inverse: bool = False) -> np.ndarray:
    """Dense transform matrix M[c, x] = exp(+-2*pi*i*c*x/D) / sqrt(D)."""
    d = 1 << qubits
    sign = -1.0 if inverse else 1.0
    grid = np.outer(np.arange(d), np.arange(d))
    m = np.exp(sign * 2j * np.pi * grid / d) / math.sqrt(d)
    m.setflags(write=False)
    return m


def fourier_axis(amplitudes: np.ndarray, axis: int, inverse: bool = False) -> np.ndarray:
    """The register Fourier transform along one axis of an amplitude array.

    Orthonormal FFT with the sign of ``fourier_matrix``: forward is
    exp(+2*pi*i*c*x/D), so it runs as numpy's inverse FFT.  Every other axis
    is a batch axis.
    """
    transform = np.fft.fft if inverse else np.fft.ifft
    return transform(amplitudes, axis=axis, norm="ortho")


def qft(state: PureState, reg: str, inverse: bool = False, method: str = "fast") -> PureState:
    """Digital Fourier transform of one register.

    The default ``method="fast"`` runs the FFT along the register axis,
    O(D log d) for a d-dimensional register in a D-dimensional state.
    ``method="dense"`` multiplies by the reference matrix, O(D d); it is the
    correctness oracle for the FFT and no production route uses it.
    """
    block = state.amplitudes.reshape(state.layout.axis_shape(reg))
    if method == "fast":
        out = fourier_axis(block, 1, inverse)
    elif method == "dense":
        out = np.einsum("cd,ldr->lcr", fourier_matrix(state.layout.qubits(reg), inverse), block)
    else:
        raise ValueError(f"unknown qft method {method!r}")
    return PureState._adopt(state.layout, out.reshape(-1))


def _permute_registers(state: PureState, regs: tuple[str, ...], permutation: np.ndarray) -> PureState:
    """Gather the amplitudes along ``permutation`` over the joint value of
    ``regs`` (first most significant), every other register a batch axis."""
    layout = state.layout
    names = layout.names
    axes = [names.index(reg) for reg in regs]
    trailing = list(range(len(names) - len(regs), len(names)))
    tensor = state.amplitudes.reshape([layout.dim(name) for name in names])
    block = np.moveaxis(tensor, axes, trailing)
    batch = block.shape[: trailing[0]]
    gathered = np.take(block.reshape(batch + (-1,)), permutation, axis=-1)
    restored = np.moveaxis(gathered.reshape(block.shape), trailing, axes)
    return PureState._adopt(layout, restored.reshape(-1))


def oracle_xor(state: PureState, f: FunctionTable, in_reg: str, out_reg: str) -> PureState:
    """Basis map |x>|y> -> |x>|y XOR f(x)>; self-inverse."""
    layout = state.layout
    if layout.qubits(in_reg) != f.input_bits or layout.qubits(out_reg) != f.output_bits:
        raise ShapeMismatchError(
            f"table ({f.input_bits}->{f.output_bits} bits) does not fit registers "
            f"{in_reg!r} ({layout.qubits(in_reg)}) and {out_reg!r} ({layout.qubits(out_reg)})"
        )
    if in_reg == out_reg:
        raise ShapeMismatchError("input and output registers must differ")
    return _permute_registers(state, (in_reg, out_reg), f.permutation)


def oracle_moded(
    state: PureState, f: ModedFunctionTable, mode_reg: str, in_reg: str, out_reg: str
) -> PureState:
    """Basis map |k>|x>|y> -> |k>|x>|y XOR F(k, x)>."""
    layout = state.layout
    if (
        layout.qubits(mode_reg) != f.mode_bits
        or layout.qubits(in_reg) != f.input_bits
        or layout.qubits(out_reg) != f.output_bits
    ):
        raise ShapeMismatchError("moded table dimensions do not fit the three registers")
    if len({mode_reg, in_reg, out_reg}) != 3:
        raise ShapeMismatchError("mode, input, and output registers must be distinct")
    return _permute_registers(state, (mode_reg, in_reg, out_reg), f.permutation)


def grover_diffusion(state: PureState, reg: str) -> PureState:
    """Inversion about the mean on one register: 2|u><u| - I.

    The register axis is copied to the contiguous last axis, where numpy
    sums it pairwise (a strided in-order sum drifts the norm coherently,
    since Grover's unmarked amplitudes are all equal), and the reflection
    2 * mean - a runs over that copy with the register as the inner loop.
    """
    left, d, right = state.layout.axis_shape(reg)
    block = state.amplitudes.reshape(left, d, right)
    register_last = np.ascontiguousarray(block.swapaxes(1, 2))
    twice_mean = register_last.sum(axis=-1) * (2.0 / d)
    out = np.empty_like(block)
    np.subtract(twice_mean[..., None], register_last, out=out.swapaxes(1, 2))
    return PureState._adopt(state.layout, out.reshape(-1))
