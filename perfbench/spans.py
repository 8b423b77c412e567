"""Span tracing for the traced run.

``instrument`` wraps every public function of the qdesk modules, and the
construction of ``PureState``, wherever it is bound: modules import by
name (``from .gates import qft`` in ``shor`` and ``cli``), so replacing
only ``gates.qft`` would miss most calls.  Each call records a span with
its name, start, end, parent span and report.  Self time is a span's
duration minus the durations of its direct children.

A few kernels also add computed counts per call: amplitude bytes read and
written, from a model of the kernel's passes over the state, and complex
multiply-adds of the dense QFT.  These are computed from shapes, not
measured.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter
from types import ModuleType

import numpy as np

LAYERS = ("qstate", "gates", "measure", "circuit_ir", "shor", "grover", "costmodel", "cli", "selftest")

ENUMERATE = "circuit_ir.enumerate_outcome_distribution"

AMPLITUDE_BYTES = 16


class Tracer:
    """Spans kept in flat arrays: name, start, end, parent, report."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.report = array("i")
        self.current_report = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counters, result,
        args, kwargs)`` adds computed counts after the span has ended."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.report.append(self.current_report)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, result, args, kwargs)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and total self seconds per span name."""
        start = np.frombuffer(self.start, dtype=float)
        duration = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        seconds = np.bincount(name, weights=own, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(seconds[i]) for i, n in enumerate(self.names)},
        )

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        target, outer = self._ids[name], self._ids[ancestor]
        total = 0
        for i, name_id in enumerate(self.name):
            if name_id != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != outer:
                p = self.parent[p]
            total += p >= 0
        return total


def _state_reg(args, kwargs):
    state = args[0] if args else kwargs["state"]
    reg = args[1] if len(args) > 1 else kwargs.get("reg")
    return state, reg


def _passes(key: str, passes: int):
    """Counter for a kernel that streams the whole state ``passes`` times."""

    def count(counters, result, args, kwargs):
        state, _ = _state_reg(args, kwargs)
        counters[key] += passes * state.layout.dimension * AMPLITUDE_BYTES

    return count


def _count_hadamard(counters, result, args, kwargs):
    state, reg = _state_reg(args, kwargs)
    # one read and one write of the state per qubit of the register
    counters["gates.hadamard_all.computed_bytes"] += (
        2 * state.layout.qubits(reg) * state.layout.dimension * AMPLITUDE_BYTES
    )


def _count_qft(counters, result, args, kwargs):
    state, reg = _state_reg(args, kwargs)
    dim = state.layout.dimension
    counters["gates.qft.computed_bytes"] += 2 * dim * AMPLITUDE_BYTES
    method = args[3] if len(args) > 3 else kwargs.get("method", "dense")
    if method == "dense":
        # (left, d, right) block times a d x d matrix
        counters["gates.qft.computed_cmacs"] += dim * state.layout.dim(reg)


def _count_slots(counters, result, args, kwargs):
    state, _ = _state_reg(args, kwargs)
    counters["measure.slot_fill.useful"] += int(np.count_nonzero(state.amplitudes))
    counters["measure.slot_fill.allocated"] += result.slot_count * state.layout.dimension


def _count_pure_state(counters, result, args, kwargs):
    # the constructor copies the amplitude buffer: one read, one write
    counters["qstate.PureState.computed_bytes"] += 2 * args[0].amplitudes.nbytes


COUNTERS = {
    "gates.hadamard_all": _count_hadamard,
    "gates.qft": _count_qft,
    "gates.oracle_xor": _passes("gates.oracle_xor.computed_bytes", 2),
    "gates.oracle_moded": _passes("gates.oracle_moded.computed_bytes", 2),
    # mean pass, then read and write
    "gates.grover_diffusion": _passes("gates.grover_diffusion.computed_bytes", 3),
    # masked copy (read, write), norm (read), rescale (read, write)
    "measure.project": _passes("measure.project.computed_bytes", 5),
    # |a|^2 (read, write of half width), sum (read of half width)
    "measure.outcome_distribution": _passes("measure.outcome_distribution.computed_bytes", 2),
    "measure.phased_mixture_from_state": _count_slots,
}


def instrument(tracer: Tracer, package: ModuleType, modules: dict[str, ModuleType]) -> int:
    """Wrap the public functions of ``modules`` (short name -> module) in
    every module and in ``package``; returns how many bindings changed."""
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, COUNTERS.get(name)))
    rebound = 0
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                rebound += 1
    pure_state = modules["qstate"].PureState
    pure_state.__post_init__ = tracer.wrap("qstate.PureState", pure_state.__post_init__, _count_pure_state)
    return rebound
