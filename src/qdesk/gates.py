"""Unitaries applied register-wise: Hadamard layers, Fourier transforms,
XOR table oracles, and the inversion-about-mean step.

Each gate has one kernel that mutates a writable work buffer (the flat
amplitude vector of a layout) and allocates no output: ``<gate>_in_place``,
or for the diffusion ``bound_grover_diffusion``, which binds the buffer
once and returns the step that reflects it.  The buffer is complex128, or
float64 in a segment with no Fourier transform from a real start, whose
gates map real amplitudes to real ones; every kernel but the Fourier
transform runs on either, and a scratch buffer takes the work buffer's
dtype.  ``circuit_ir`` runs every gate through these kernels on one work
buffer; ``circuit_ir.apply_instruction`` is the way to apply one gate to a
``PureState``.  A kernel checks nothing: ``CircuitProgram`` checks that an
instruction's registers and table fit its layout once, when the program is
built.

Every register-wise kernel works on the ``(left, d, right)`` view of the
buffer (``RegisterLayout.axis_shape``).  A buffer may hold several states
of the layout back to back; they join ``left``, so a kernel runs on all of
them at once, each with the arithmetic it gets alone.  The Hadamard layer
runs one butterfly per bit over that view and scales once at the end;
the Fourier transform is an FFT along the register axis written back into
the view (the self-test compares it with the dense Fourier matrix, within
1e-10); the diffusion step sums the register as the contiguous last axis,
pairwise (from a copy, unless no register lies to its right), and writes
the reflection back.  Oracles are basis-index permutations, never dense
matrices: a table holds its entries as a read-only int64 array and builds,
once, the index pairs over its joint (input, output) value that its XOR map
exchanges, and an oracle swaps those pairs and moves nothing else, every
other register a batch axis.  A function table also keeps, per value, the
inputs that kick a sign back into an output register ``circuit_ir`` holds
in the Hadamard basis at that value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ShapeMismatchError
from .qstate import MAX_QUBITS, RegisterLayout, _is_integer, _json_field


def check_table_widths(widths: Sequence[int]) -> None:
    """Refuse a table's widths, output last, unless each is an integer in
    0..``MAX_QUBITS`` and the others, which key its entries, are at most
    ``MAX_QUBITS`` together: a ``ShapeMismatchError``, raised by every table
    builder before it allocates an entry or calls a function."""
    if not all(_is_integer(bits) and 0 <= bits <= MAX_QUBITS for bits in widths):
        raise ShapeMismatchError(f"table widths {widths!r:.60} must be integers in 0..{MAX_QUBITS}")
    if sum(widths[:-1]) > MAX_QUBITS:
        raise ShapeMismatchError(f"table widths {widths!r:.60} key more than 2^{MAX_QUBITS} entries")


class _XorTable:
    """What both tables share: ``values``, the entries as a read-only int64
    array built once on construction; ``table``, the entries as a tuple of
    ints, which equality, hashing and JSON read, built on first read (an
    oracle's route reads only ``values``, so a table built per run never
    makes it); and ``swaps``, the pairs of basis indices the oracle
    exchanges, built on first use and kept for the life of the table.
    ``_WIDTHS`` names the width fields in the constructor's order, the
    output's last; the entries are keyed by the others, most significant
    first."""

    _WIDTHS: tuple[str, ...]

    def __post_init__(self):
        """Check the widths (``check_table_widths``) and the entries for
        length and range, then keep the entries as ``values`` in place of
        the ``table`` they were given as."""
        widths = [getattr(self, name) for name in self._WIDTHS]
        check_table_widths(widths)
        entries = 1 << sum(widths[:-1])
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
        del self.__dict__["table"]

    def __getattr__(self, name: str):
        """``table`` on its first read: only then is the tuple built."""
        if name != "table":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        table = self.__dict__["table"] = tuple(self.values.tolist())
        return table

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._WIDTHS} | {"table": list(self.table)}

    @classmethod
    def from_json(cls, doc: Mapping) -> "_XorTable":
        """The table of a ``to_json`` document.  A missing field, or an
        entry that is not an integer, is a ``ShapeMismatchError``, as is
        any table the constructor rejects."""
        widths = [_json_field(doc, name, object, "table", error=ShapeMismatchError) for name in cls._WIDTHS]
        entries = _json_field(doc, "table", list, "table", error=ShapeMismatchError)
        if not all(map(_is_integer, entries)):
            raise ShapeMismatchError(f"table entries must be integers, got {entries!r:.60}")
        return cls(*widths, tuple(entries))

    @cached_property
    def swaps(self) -> tuple[np.ndarray, np.ndarray]:
        return _xor_swaps(self.values, self.output_bits)


def _xor_swaps(values: np.ndarray, output_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of key-major indices (key, y) and (key, y XOR values[key])
    that the XOR map exchanges, each pair once with its lower index first,
    as two read-only arrays ascending by the first; a zero entry moves
    nothing.

    y is the lower of a pair exactly when the highest set bit of the entry
    is clear in y, so each key's lower outputs are the half of all outputs
    with that bit clear, built by spreading 0..2^(m-1) - 1 around it.
    """
    keys = np.flatnonzero(values)
    flips = values[keys]
    high = (np.frexp(flips.astype(np.float64))[1] - 1)[:, None]  # exact below 2^53
    half = np.arange((1 << output_bits) >> 1)
    lo = half >> high
    lo <<= high + 1
    lo |= half & ((1 << high) - 1)
    lo |= (keys << output_bits)[:, None]
    hi = lo ^ flips[:, None]
    lo, hi = lo.reshape(-1), hi.reshape(-1)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


@dataclass(frozen=True)
class FunctionTable(_XorTable):
    """Explicit lookup table for f: {0,1}^input_bits -> {0,1}^output_bits.

    ``table`` may be any sequence or array of integers; it is kept as
    ``values``, and read back as a tuple, which equality, hashing and JSON
    use.
    """

    input_bits: int
    output_bits: int
    table: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False, compare=False)
    _WIDTHS = ("input_bits", "output_bits")

    @classmethod
    def from_callable(cls, fn: Callable[[int], int], input_bits: int, output_bits: int) -> "FunctionTable":
        check_table_widths([input_bits, output_bits])
        return cls(input_bits, output_bits, tuple(fn(x) for x in range(1 << input_bits)))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def has_period(self, q: int) -> bool:
        """Whether f(x + q) = f(x) for every x where both sides are defined,
        so every q >= 2^input_bits is one, both sides then empty: the
        classical check of a period candidate, for q >= 1.  The comparison
        is made once per q and kept with the table."""
        if q not in self._periods:
            self._periods[q] = bool(np.array_equal(self.values[q:], self.values[:-q]))
        return self._periods[q]

    @cached_property
    def _periods(self) -> dict[int, bool]:
        return {}

    def kicked(self, held: int) -> np.ndarray:
        """The inputs x where popcount(held & f(x)) is odd, ascending, as a
        read-only array: where an oracle into an output register held in
        the Hadamard basis at ``held`` flips the sign (phase kickback).
        Built once per value and kept with the table."""
        if held not in self._kicked:
            self._kicked[held] = _kicked_inputs(self.values, held)
        return self._kicked[held]

    @cached_property
    def _kicked(self) -> dict[int, np.ndarray]:
        return {}


@dataclass(frozen=True)
class ModedFunctionTable(_XorTable):
    """Lookup table for F(mode, x), stored row-major over (mode, x)."""

    mode_bits: int
    input_bits: int
    output_bits: int
    table: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False, compare=False)
    _WIDTHS = ("mode_bits", "input_bits", "output_bits")

    def __call__(self, mode: int, x: int) -> int:
        return self.table[(mode << self.input_bits) | x]

    @classmethod
    def equality_test(cls, bits: int) -> "ModedFunctionTable":
        """The drawer oracle: output 1 exactly when mode == x."""
        check_table_widths([bits, bits, 1])
        return cls(bits, bits, 1, np.eye(1 << bits, dtype=np.int64).reshape(-1))


def _kicked_inputs(values: np.ndarray, held: int) -> np.ndarray:
    """The keys x where popcount(held & values[x]) is odd, as a read-only
    ascending array."""
    inputs = np.flatnonzero(np.bitwise_count(values & held) & 1)
    inputs.setflags(write=False)
    return inputs


def modexp_output_bits(modulus: int) -> int:
    """Width of the register that holds a residue mod ``modulus``."""
    return max(1, (modulus - 1).bit_length())


def modexp_table(base: int, modulus: int, input_bits: int) -> FunctionTable:
    """Table for f(x) = base**x mod modulus; requires gcd(base, modulus) = 1.

    Built by doubling: once the first s entries are known, the next s are
    theirs times base^s, mod modulus, one array step each.  Entries and
    factors stay below a modulus of at most 2^MAX_QUBITS, so every product
    stays below 2^40, exact in int64."""
    if modulus < 2 or math.gcd(base, modulus) != 1:
        raise ValueError(f"need gcd(base, modulus) = 1 and modulus >= 2, got {base}, {modulus}")
    output_bits = modexp_output_bits(modulus)
    check_table_widths([input_bits, output_bits])
    values = np.empty(1 << input_bits, dtype=np.int64)
    values[0] = 1
    factor, size = base % modulus, 1
    while size < values.size:
        np.remainder(values[:size] * factor, modulus, out=values[size : 2 * size])
        factor, size = factor * factor % modulus, 2 * size
    return FunctionTable(input_bits, output_bits, values)


def hadamard_all_in_place(work: np.ndarray, layout: RegisterLayout, reg: str) -> None:
    """Apply H to every qubit of the register, in place on ``work``.

    One unscaled butterfly (a0, a1) -> (a0 + a1, a0 - a1) per register bit
    over the buffer's ``(left * 2^k, 2, rest)`` view, then one multiply by
    2^(-q/2).  A half-length scratch holds each difference, so a layer
    allocates half the state and no array per bit.
    """
    left = _axis_view(work, layout, reg).shape[0]
    q = layout.qubits(reg)
    scratch = np.empty(work.size // 2, dtype=work.dtype)
    for k in range(q):
        pairs = _view(work, (left << k, 2, -1))
        a0, a1 = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(a0.shape)
        np.subtract(a0, a1, out=diff)
        a0 += a1
        a1[...] = diff
    work *= 2.0 ** (-q / 2)


def fourier_axis(
    amplitudes: np.ndarray, axis: int, inverse: bool = False, out: np.ndarray | None = None
) -> np.ndarray:
    """The register Fourier transform along one axis of an amplitude array.

    Orthonormal FFT whose forward transform is exp(+2*pi*i*c*x/D), so it
    runs as numpy's inverse FFT.  Every other axis is a batch axis.
    ``out`` may be ``amplitudes`` itself: numpy's FFT transforms one line at
    a time through its own buffer, so the in-place result is bit for bit the
    allocating one.
    """
    transform = np.fft.fft if inverse else np.fft.ifft
    return transform(amplitudes, axis=axis, norm="ortho", out=out)


def qft_in_place(work: np.ndarray, layout: RegisterLayout, reg: str, inverse: bool = False) -> None:
    """Digital Fourier transform of one register, in place on ``work``: the
    FFT along the register axis of the ``(left, d, right)`` view, written
    back into that view, O(D log d) for a d-dimensional register in a
    D-dimensional state."""
    block = _axis_view(work, layout, reg)
    fourier_axis(block, 1, inverse, out=block)


def _swap_pairs(
    work: np.ndarray, layout: RegisterLayout, regs: tuple[str, ...], swaps: tuple[np.ndarray, np.ndarray]
) -> None:
    """Exchange, in place, the amplitudes of each pair in ``swaps``, given as
    joint values of ``regs`` (first most significant), every other register
    a batch axis.

    When ``regs`` are adjacent in layout order their joint value is the
    middle axis of a ``(left, joint, right)`` view, with the axes of length
    1 left out; otherwise each pair is split into one index array per
    register over the register tensor.
    """
    lo, hi = swaps
    adjacent = all(layout.offset(a) == layout.offset(b) + layout.qubits(b) for a, b in zip(regs, regs[1:]))
    if adjacent:
        right = 1 << layout.offset(regs[-1])
        joint = (1 << layout.offset(regs[0]) + layout.qubits(regs[0])) // right
        left = work.size // (joint * right)
        block = _view(work, tuple(size for size in (left, joint, right) if size > 1))  # joint >= 4
        batch = (slice(None),) if left > 1 else ()
        at_lo, at_hi = batch + (lo,), batch + (hi,)
    else:
        names = layout.names
        block = _view(work, (-1,) + tuple(layout.dim(name) for name in names))
        at_lo, at_hi = [slice(None)] * block.ndim, [slice(None)] * block.ndim
        shift = 0
        for reg in reversed(regs):
            axis, mask = 1 + names.index(reg), layout.dim(reg) - 1
            at_lo[axis], at_hi[axis] = (lo >> shift) & mask, (hi >> shift) & mask
            shift += layout.qubits(reg)
        at_lo, at_hi = tuple(at_lo), tuple(at_hi)
    moved = block[at_lo]
    block[at_lo] = block[at_hi]
    block[at_hi] = moved


def oracle_xor_in_place(
    work: np.ndarray, layout: RegisterLayout, f: FunctionTable, in_reg: str, out_reg: str
) -> None:
    """Basis map |x>|y> -> |x>|y XOR f(x)>, in place on ``work``; self-inverse."""
    _swap_pairs(work, layout, (in_reg, out_reg), f.swaps)


def oracle_moded_in_place(
    work: np.ndarray, layout: RegisterLayout, f: ModedFunctionTable, mode_reg: str, in_reg: str, out_reg: str
) -> None:
    """Basis map |k>|x>|y> -> |k>|x>|y XOR F(k, x)>, in place on ``work``."""
    _swap_pairs(work, layout, (mode_reg, in_reg, out_reg), f.swaps)


def bound_grover_diffusion(work: np.ndarray, layout: RegisterLayout, reg: str) -> Callable[[], None]:
    """Inversion about the mean on one register, 2|u><u| - I, bound to one
    buffer: the register-last view and the scale 2/d are built once, and
    each call of the returned step reflects ``work`` in place as it then
    stands.

    The register axis is copied to the contiguous last axis, where numpy
    sums it pairwise (a strided in-order sum drifts the norm coherently,
    since Grover's unmarked amplitudes are all equal), and the reflection
    2 * mean - a is written back from that copy with the register as the
    inner loop.  A register that spans the whole buffer is reflected flat:
    numpy sums the buffer pairwise, bit for bit as it sums the
    register-last view's one line.  The sum is kept as a one-entry array,
    so the scale multiplies it in numpy's array loop, as it does the
    register-last sums: numpy's complex scalar multiply turns a real part
    that underflows to -0.0 into +0.0, where the array loop keeps -0.0.
    Each sum is ``np.add.reduce``, the reduction ``ndarray.sum`` wraps,
    called without the wrapper.
    """
    scale = 2.0 / layout.dim(reg)
    if work.size == layout.dim(reg):

        def reflect() -> None:
            np.subtract(np.add.reduce(work, None, keepdims=True) * scale, work, out=work)

        return reflect
    register_last = _axis_view(work, layout, reg).swapaxes(1, 2)

    def reflect() -> None:
        contiguous = np.ascontiguousarray(register_last)  # the view itself when right == 1
        twice_mean = np.add.reduce(contiguous, -1) * scale
        np.subtract(twice_mean[..., None], contiguous, out=register_last)

    return reflect


def _view(work: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``work`` reshaped without a copy: an in-place kernel that wrote into a
    reshaped copy would lose its writes, so a buffer that cannot be viewed
    so raises."""
    return np.reshape(work, shape, copy=False)


def _axis_view(work: np.ndarray, layout: RegisterLayout, reg: str) -> np.ndarray:
    """``work``'s ``(left, d, right)`` view for ``reg``; the states of a
    buffer that holds several join ``left``."""
    return _view(work, (-1, layout.dim(reg), 1 << layout.offset(reg)))
