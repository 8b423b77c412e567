"""Period finding end to end: build a periodic function table, push it
through the Hadamard / oracle / Fourier block diagram under one of three
measurement disciplines, and read the period off the measured outcome with
continued fractions.

The three disciplines agree exactly on the final [X] statistics:

* ``measure-F-at-t2``  -- measure the function register right after the
  oracle, carrying one Born branch forward;
* ``skip-F``           -- never touch F before the end;
* ``annihilate-F``     -- a ``Dephase("F")`` instruction: replace the pure
  state by its random-phase mixture over F values.

All three are ``circuit_ir`` programs (``period_circuit``) and sampled runs
execute them.  Nothing but measurements touches F after the dephasing, so
it is inert: an annihilate-F trial draws its F phases and then draws X from
the same [X] distribution a skip-F trial does, with one shared QFT per
report.  Exact distributions are computed without sampling, so the
equality of the disciplines is a 1e-10 assertion rather than a statistical
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit_ir import CircuitProgram, Dephase, GateOp, Measure, Prepare, sample, unitary_prefix
from .errors import ShapeMismatchError
from .gates import FunctionTable, fourier_axis, modexp_table, qft
from .measure import PROB_EPS, MeasurementRecord, outcome_distribution
from .qstate import PureState, RegisterLayout

DISCIPLINES = ("measure-F-at-t2", "skip-F", "annihilate-F")


@dataclass(frozen=True)
class PeriodFindingInstance:
    """A function table with hidden period, plus the register sizes to run it.

    ``period`` is ground truth for checking extraction; the pipeline itself
    never reads it.
    """

    n: int
    table: FunctionTable
    period: int
    period_divides: bool

    def __post_init__(self):
        if self.table.input_bits != self.n:
            raise ShapeMismatchError("table input width must equal n")

    @property
    def dimension(self) -> int:
        return 1 << self.n

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout.of(X=self.n, F=self.table.output_bits)


@dataclass(frozen=True)
class PeriodResult:
    measured_value: int
    candidate_period: int | None
    success: bool
    f_outcome: int | None = None


def build_periodic(n: int, period: int) -> PeriodFindingInstance:
    """Canonical instance f(x) = x mod period on n input qubits."""
    size = 1 << n
    if not 1 <= period <= size:
        raise ValueError(f"period must be in 1..{size}, got {period}")
    table = FunctionTable(n, n, np.arange(size) % period)
    return PeriodFindingInstance(n, table, period, size % period == 0)


def build_modexp(base: int, modulus: int, n: int) -> PeriodFindingInstance:
    """Instance f(x) = base**x mod modulus; the period is the multiplicative
    order of the base, found by brute force."""
    table = modexp_table(base, modulus, n)
    order, acc = 1, base % modulus
    while acc != 1:
        acc = (acc * base) % modulus
        order += 1
    return PeriodFindingInstance(n, table, order, (1 << n) % order == 0)


def state_after_oracle(inst: PeriodFindingInstance) -> PureState:
    """The entangled two-register state at t2, right after function evaluation."""
    return unitary_prefix(period_circuit(inst, "skip-F"), "t2")


def period_circuit(inst: PeriodFindingInstance, discipline: str) -> CircuitProgram:
    """The block-diagram program for any discipline, tagged t1..t4 on
    instruction boundaries; t4 sits right before the X measurement.

    measure-F-at-t2 measures F at t2, skip-F leaves it alone, and
    annihilate-F dephases it at t2 (and measures it last, like skip-F).
    """
    head = [
        Prepare("X", 0),
        GateOp("hadamard", reg="X"),
        GateOp("oracle-xor", in_reg="X", out_reg="F", table=inst.table),
    ]
    if discipline == "measure-F-at-t2":
        instrs = head + [Measure("F"), GateOp("qft", reg="X"), Measure("X")]
        tags = {"t1": 1, "t2": 3, "t3": 4, "t4": 5}
    elif discipline == "skip-F":
        instrs = head + [GateOp("qft", reg="X"), Measure("X"), Measure("F")]
        tags = {"t1": 1, "t2": 3, "t4": 4}
    elif discipline == "annihilate-F":
        instrs = head + [Dephase("F"), GateOp("qft", reg="X"), Measure("X"), Measure("F")]
        tags = {"t1": 1, "t2": 3, "t3": 4, "t4": 5}
    else:
        raise ValueError(f"discipline must be one of {DISCIPLINES}, got {discipline!r}")
    return CircuitProgram(inst.layout, tuple(instrs), tags)


def extract_period(outcome: int, dimension: int) -> int | None:
    """Denominator of outcome/dimension in lowest terms, via the
    continued-fraction convergent recurrence; 0 carries no information."""
    if not 0 <= outcome < dimension:
        raise ValueError(f"outcome must be in 0..{dimension - 1}")
    if outcome == 0:
        return None
    num, den = outcome, dimension
    quotients = []
    while den:
        quotients.append(num // den)
        num, den = den, num % den
    q_prev, q_cur = 1, 0
    for a in quotients:
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return q_cur


def sample_runs(
    inst: PeriodFindingInstance,
    discipline: str,
    trials: int,
    rng: np.random.Generator,
    record_sink: list[MeasurementRecord] | None = None,
) -> list[PeriodResult]:
    """``trials`` sampled runs of the pipeline under the chosen discipline.

    The trials are one ``circuit_ir.sample`` call over ``period_circuit`` up
    to its X measurement, so what every trial shares (the state up to the
    first measurement or dephasing, and each F branch's [X] distribution)
    is computed once.  Pass a list as ``record_sink`` to collect the Born
    samples taken along the way.
    """
    program = period_circuit(inst, discipline)
    through_x = CircuitProgram(inst.layout, program.instructions[: program.time_tags["t4"] + 1])
    results = []
    for records in sample(through_x, rng, trials):
        if record_sink is not None:
            record_sink.extend(records)
        outcomes = {record.register: record.outcome for record in records}
        measured = outcomes["X"]
        candidate = extract_period(measured, inst.dimension)
        results.append(PeriodResult(measured, candidate, candidate == inst.period, outcomes.get("F")))
    return results


def run_pipeline(
    inst: PeriodFindingInstance,
    discipline: str,
    rng: np.random.Generator,
    record_sink: list[MeasurementRecord] | None = None,
) -> PeriodResult:
    """One sampled run of the full pipeline under the chosen discipline."""
    return sample_runs(inst, discipline, 1, rng, record_sink)[0]


def exact_outcome_distribution(inst: PeriodFindingInstance, discipline: str) -> np.ndarray:
    """Exact final [X] distribution, computed along the discipline's own route.

    Every route works on the ``(X, F)`` block of ``state_after_oracle`` and
    Fourier-transforms along X with the FFT; no branch is projected or
    copied as a full state.

    * skip-F: the X marginal of the transformed full state.
    * measure-F-at-t2: the Born-weighted sum over the F support columns;
      each column is normalised to its post-measurement branch and all of
      them go through one batched FFT.
    * annihilate-F: the sum of |FFT|^2 over the slot columns of the phase
      mixture (cross-slot terms average to zero).

    Branch enumeration of ``period_circuit`` is the independent test oracle.
    """
    if discipline not in DISCIPLINES:
        raise ValueError(f"discipline must be one of {DISCIPLINES}, got {discipline!r}")
    state = state_after_oracle(inst)
    if discipline == "skip-F":
        return outcome_distribution(qft(state, "X"), "X").probabilities.copy()
    # X is the most significant register, so the view is (1, X, F).
    xf = state.amplitudes.reshape(inst.layout.axis_shape("X"))[0]
    f_probs = (np.abs(xf) ** 2).sum(axis=0)
    support = np.nonzero(f_probs > PROB_EPS)[0]
    columns = xf[:, support]
    if discipline == "measure-F-at-t2":
        weights = f_probs[support]
        branches = np.abs(fourier_axis(columns / np.sqrt(weights), 0)) ** 2
        return branches @ weights
    return (np.abs(fourier_axis(columns, 0)) ** 2).sum(axis=1)


def single_run_success_probability(
    inst: PeriodFindingInstance, distribution: np.ndarray | None = None
) -> float:
    """Probability that one run's extracted period equals the true period,
    summed over the exact outcome distribution.

    Pass ``distribution`` to reuse an exact [X] distribution already
    computed under any discipline (they all agree); by default the skip-F
    one is computed here.
    """
    probs = exact_outcome_distribution(inst, "skip-F") if distribution is None else distribution
    if np.shape(probs) != (inst.dimension,):
        raise ShapeMismatchError(
            f"distribution has shape {np.shape(probs)}, expected ({inst.dimension},)"
        )
    total = 0.0
    for outcome, p in enumerate(probs):
        if p > 0.0 and extract_period(outcome, inst.dimension) == inst.period:
            total += float(p)
    return total


def divisors(value: int) -> list[int]:
    """All positive divisors, ascending; handy for sweeping r | N."""
    out = [d for d in range(1, int(math.isqrt(value)) + 1) if value % d == 0]
    return sorted(set(out + [value // d for d in out]))
