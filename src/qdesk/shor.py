"""Period finding end to end: build a periodic function table, push it
through the Hadamard / oracle / Fourier block diagram under one of three
measurement disciplines, and read the period off the measured outcome with
continued fractions: the first convergent denominator that the function
table confirms as a period, f(x + q) = f(x), is the candidate.

The three disciplines agree exactly on the final [X] statistics:

* ``measure-F-at-t2``  -- measure the function register right after the
  oracle, carrying one Born branch forward;
* ``skip-F``           -- never touch F before the end;
* ``annihilate-F``     -- a ``Dephase("F")`` instruction: replace the pure
  state by its random-phase mixture over F values.

All three are ``circuit_ir`` programs (``period_circuit``), and the walk
runs them, sampled and exact.  Nothing but measurements and the dephasing
touches F after the oracle, so the walk holds F as one row of X amplitudes
per value of f from the oracle on, and the X transform runs on those rows,
never on an (X, F) state.  Nothing but measurements touches F after the
dephasing either, so it is inert: an annihilate-F trial draws its F phases
and then draws X from the same [X] distribution a skip-F trial does, with
one shared QFT per report.  Exact distributions enumerate the program's
branches without sampling and divide no branch: measure-F-at-t2 adds its
F branches' undivided [X] rows in the order in which skip-F's reduction
sums over F, so the three disciplines' exact [X] arrays are equal bit for
bit, and their equality is an exact assertion rather than a statistical
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit_ir import (
    CircuitProgram,
    Dephase,
    GateOp,
    Measure,
    Prepare,
    _BranchWalk,
    unitary_prefix,
)
from .errors import ShapeMismatchError
from .gates import FunctionTable, check_table_widths, modexp_table
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

    @cached_property
    def _period_tests(self) -> dict[int, bool]:
        """Whether ``extract_period`` gives the period, for each outcome
        asked for so far."""
        return {}

    @cached_property
    def _walks(self) -> dict[str, _BranchWalk]:
        """The walk of each discipline's program asked for so far, kept for
        as long as the instance lives, so that a report's exact distribution
        and trials share it.  After the enumeration a walk keeps only its
        memoised marginals (under measure-F-at-t2 one [X] row per F value)
        and the distributions its draws read; trials drawn without it keep
        its chain of states too (F's rows, and the rows of F's branches
        after the X transform)."""
        return {}


def build_periodic(n: int, period: int) -> PeriodFindingInstance:
    """Canonical instance f(x) = x mod period on n input qubits."""
    size = 1 << n
    if not 1 <= period <= size:
        raise ValueError(f"period must be in 1..{size}, got {period}")
    check_table_widths([n, n])
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
    instrs, tags = _period_instructions(inst, discipline)
    return CircuitProgram(inst.layout, instrs, tags)


def _period_instructions(inst: PeriodFindingInstance, discipline: str) -> tuple[tuple, dict[str, int]]:
    """``period_circuit``'s instructions and time tags."""
    head = [Prepare("X", 0), GateOp("hadamard", reg="X"), GateOp("oracle-xor", in_reg="X", out_reg="F", table=inst.table)]
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
    return tuple(instrs), tags


def extract_period(outcome: int, table: FunctionTable) -> int | None:
    """The period candidate an outcome gives: the first denominator q among
    the continued-fraction convergents of outcome / 2^n, in the order the
    recurrence produces them, that is a period of the table
    (``FunctionTable.has_period``: f(x + q) = f(x), the classical check
    a^q = 1 mod N of a modular exponentiation).  Outcome 0 carries no
    information and gives None, as does an outcome no convergent of which
    passes the check.  For an order r that divides 2^n this is the
    denominator of outcome / 2^n in lowest terms whenever that is r."""
    dimension = 1 << table.input_bits
    if not 0 <= outcome < dimension:
        raise ValueError(f"outcome must be in 0..{dimension - 1}")
    return _first_period(outcome, table, dimension)


def _first_period(outcome: int, table: FunctionTable, bound: int) -> int | None:
    """``extract_period`` of an outcome in range, or None as soon as a
    convergent's denominator exceeds ``bound`` before one passes the check.
    The denominators never decrease along the recurrence (Shor, SIAM J.
    Comput. 26(5), 1997, section 5), so with bound r this is r exactly when
    ``extract_period`` is, and it stops at the first denominator past r;
    with bound 2^n it is ``extract_period``."""
    if outcome == 0:
        return None
    dimension = 1 << table.input_bits
    values = table.table
    num, den = outcome, dimension
    q_prev, q = 1, 0
    while den:
        q_prev, q = q, num // den * q + q_prev
        if q > bound:
            return None
        num, den = den, num % den
        # f(q) = f(0) rules out most q before the method call
        if q == dimension or values[q] == values[0] and table.has_period(q):
            return q
    return None


def _gives_period(inst: PeriodFindingInstance, outcome: int) -> bool:
    """Whether ``extract_period`` of the outcome is the instance's period,
    memoised per instance; the recurrence stops at the period."""
    memo = inst._period_tests
    if outcome not in memo:
        memo[outcome] = _first_period(outcome, inst.table, inst.period) == inst.period
    return memo[outcome]


def _walk(inst: PeriodFindingInstance, discipline: str) -> _BranchWalk:
    """The branch walk of ``period_circuit`` up to its X measurement, one
    per instance and discipline: the exact [X] distribution enumerates it
    and sampled trials draw from it, so a report computes each node's
    distribution once."""
    if discipline not in inst._walks:
        instrs, tags = _period_instructions(inst, discipline)
        inst._walks[discipline] = _BranchWalk(CircuitProgram(inst.layout, instrs[: tags["t4"] + 1]), None)
    return inst._walks[discipline]


def sample_trials(
    inst: PeriodFindingInstance, discipline: str, trials: int, rng: np.random.Generator
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """``trials`` sampled runs of the pipeline under the chosen discipline,
    as the measured registers and ``circuit_ir.sample_outcomes``' outcome
    and probability arrays (one row per trial, one column per register).

    The trials draw from the walk of ``period_circuit`` up to its X
    measurement that the exact distribution enumerates, so what every
    trial shares (the state up to the first measurement or dephasing, and
    each F branch's [X] distribution) is computed once per instance, and
    every discipline's program draws as arrays, a block of trials at a
    time.  Outcomes, probabilities and the generator's state are those of
    successive ``circuit_ir.run`` calls.
    """
    walk = _walk(inst, discipline)
    return (walk.program.measured_registers(), *walk.draws(rng, trials))


def success_count(inst: PeriodFindingInstance, x_outcomes: np.ndarray) -> int:
    """How many of the X outcomes give the true period, with one period
    test per distinct outcome."""
    values, index = np.unique(x_outcomes, return_inverse=True)
    gives = np.array([_gives_period(inst, value) for value in values.tolist()], dtype=bool)
    return int(gives[index].sum())


def exact_outcome_distribution(inst: PeriodFindingInstance, discipline: str) -> np.ndarray:
    """Exact final [X] distribution under the discipline: the walk's
    enumeration of ``period_circuit`` observed on X, one entry per outcome.
    The measurements after X are not observed, so the walk stops at X, and
    sampled trials draw from the same walk.

    No gate touches F after the oracle, so the walk holds it as one row
    per value of f from the oracle on, and no (X, F) state is built: the X
    transform runs on the rows.  Under measure-F-at-t2 the rows are F's
    branches, undivided, and their X marginals are added in ascending F
    order; under skip-F and annihilate-F the rows' X marginals are summed
    in the same order.  The terms and their order are the same, so the
    three disciplines give the same array, bit for bit.
    """
    return _walk(inst, discipline).enumerate(("X",))


def single_run_success_probability(
    inst: PeriodFindingInstance, distribution: np.ndarray | None = None
) -> float:
    """Probability that one run's extracted period equals the true period,
    summed over the exact outcome distribution, in ascending outcome order.

    Every convergent p/q of c/2^n lies within 1/q^2 of it, so only an
    outcome c within 2^n/r^2 of a multiple of 2^n/r can have the period r
    among its convergents; the others are not extracted.

    Pass ``distribution`` to reuse an exact [X] distribution already
    computed under any discipline (they all agree); by default the skip-F
    one is computed here.
    """
    probs = exact_outcome_distribution(inst, "skip-F") if distribution is None else distribution
    if np.shape(probs) != (inst.dimension,):
        raise ShapeMismatchError(
            f"distribution has shape {np.shape(probs)}, expected ({inst.dimension},)"
        )
    probs = np.asarray(probs, dtype=float)
    size, period = inst.dimension, inst.period
    offset = np.arange(size) * period % size
    near = np.minimum(offset, size - offset) * period <= size
    total = 0.0
    for outcome in np.flatnonzero(near & (probs > 0.0)).tolist():
        if _gives_period(inst, outcome):
            total += float(probs[outcome])
    return total


def divisors(value: int) -> list[int]:
    """All positive divisors, ascending; handy for sweeping r | N."""
    out = [d for d in range(1, int(math.isqrt(value)) + 1) if value % d == 0]
    return sorted(set(out + [value // d for d in out]))
