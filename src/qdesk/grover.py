"""The drawer-search game, quantum and classical.

The chest of drawers is an oracle that answers 1 exactly when the probed
drawer x equals the hidden drawer.  The standard quantum circuit searches
with oracle + inversion-about-mean iterations; for 4 drawers a single
iteration lands on the hidden drawer with probability exactly 1, with the
kickback register's (|0>-|1>)/sqrt(2) factor intact.

The extended variant adds a 2-qubit mode register holding the hider's
choice in a random-phase superposition, so both players' answers come out
of one entangled state: measuring the mode register and the search
register, in either order, yields equal values with certainty.

The classical counterpart is the row/column game on a square chest: the
hider announces the row, the seeker scans it, and the worst case costs
sqrt(n) probes instead of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit_ir import CircuitProgram, GateOp, Measure, Prepare, RunTrace, enumerate_outcome_distribution, run, unitary_prefix
from .gates import FunctionTable, ModedFunctionTable, check_table_widths
from .measure import PhasedMixture, average_density, analytic_average_density
from .qstate import PureState, RegisterLayout, StateDistance

STRATEGIES = ("joint", "unilateral")


@dataclass(frozen=True)
class GameInstance:
    """n drawers, one of them hiding the object."""

    drawers: int
    hidden_drawer: int

    def __post_init__(self):
        if not 0 <= self.hidden_drawer < self.drawers:
            raise ValueError(f"hidden drawer {self.hidden_drawer} not in 0..{self.drawers - 1}")


@dataclass(frozen=True)
class GameTranscript:
    """One game as played.  ``hit_probability`` is the standard search's
    chance of answering the hidden drawer, read from the distribution its
    answer was drawn from; other games leave it None."""

    drawers: int
    variant: str
    oracle_queries: int
    announced_k: int
    answered_x: int
    announced_row: int | None = None
    hit_probability: float | None = None


def iteration_count(drawers: int) -> int:
    """floor(pi/4 * sqrt(n)) search iterations; exactly 1 for n = 4."""
    return int(math.floor(math.pi / 4.0 * math.sqrt(drawers)))


def marked_drawer_table(drawers: int, hidden_drawer: int) -> FunctionTable:
    bits = _drawer_bits(drawers)
    check_table_widths([bits, 1])
    return FunctionTable(bits, 1, np.arange(drawers) == hidden_drawer)


def _drawer_bits(drawers: int) -> int:
    bits = drawers.bit_length() - 1
    if drawers < 2 or (1 << bits) != drawers:
        raise ValueError(f"drawer count must be a power of two >= 2, got {drawers}")
    return bits


def standard_layout(drawers: int) -> RegisterLayout:
    return RegisterLayout.of(X=_drawer_bits(drawers), F=1)


# The kickback register's (|0> - |1>)/sqrt(2), loaded the same for every
# hidden drawer.
KICKBACK = Prepare("F", "minus")


def standard_circuit(inst: GameInstance) -> CircuitProgram:
    """The standard search as a program: kickback and uniform preparation,
    ``iteration_count`` oracle + diffusion pairs, the tag "pre", then the
    one measurement of the search register."""
    table = marked_drawer_table(inst.drawers, inst.hidden_drawer)
    iteration = (
        GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
        GateOp("grover-diffusion", reg="X"),
    )
    instrs = (KICKBACK, Prepare("X", "uniform")) + iteration * iteration_count(inst.drawers)
    return CircuitProgram(standard_layout(inst.drawers), instrs + (Measure("X"),), {"pre": len(instrs)})


def standard_grover_state(inst: GameInstance) -> PureState:
    """Pre-measurement state after the full iteration schedule."""
    return unitary_prefix(standard_circuit(inst), "pre")


def run_standard_grover(inst: GameInstance, rng: np.random.Generator) -> tuple[RunTrace, GameTranscript]:
    """Play the standard game once and return its run, whose tag "pre" is
    the pre-measurement state, written out when first read; oracle queries
    = iteration count, and the hit probability is the hidden drawer's entry
    in the distribution the answer was drawn from."""
    trace = run(standard_circuit(inst), rng)
    answered = trace.records[0].outcome
    hit = float(trace.distributions[0].probabilities[inst.hidden_drawer])
    return trace, GameTranscript(
        inst.drawers, "standard", iteration_count(inst.drawers), inst.hidden_drawer, answered, hit_probability=hit
    )


EXTENDED_LAYOUT = RegisterLayout.of(K=2, X=2, F=1)

EXTENDED_QUERY = (
    GateOp("hadamard", reg="X"),
    GateOp(
        "oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=ModedFunctionTable.equality_test(2)
    ),
    GateOp("grover-diffusion", reg="X"),
)


def extended_mixture() -> PhasedMixture:
    """The extended game's start as a phase mixture over the mode register:
    every mode with amplitude 1/2, search register at 0, kickback register
    loaded."""
    start = CircuitProgram(EXTENDED_LAYOUT, (KICKBACK, Prepare("K", "uniform")))
    return PhasedMixture(unitary_prefix(start, 2), "K")


def extended_preparation(phases: tuple[float, float, float]) -> PureState:
    """Mode register in superposition with the given phases on the last
    three values, search register at 0, kickback register loaded."""
    return extended_mixture().flatten((0.0, *phases))


def run_extended_grover(
    drawers: int,
    rng: np.random.Generator,
    order: str = "kx",
    phases: tuple[float, float, float] | None = None,
) -> tuple[PureState, GameTranscript]:
    """Play the mode-extended game once and return the pre-measurement state.

    The construction is specific to 4 drawers.  ``order`` picks which
    register is read first ("kx" or "xk"); the answers agree either way.
    """
    if drawers != 4:
        raise ValueError("the extended game is built for exactly 4 drawers")
    if order not in ("kx", "xk"):
        raise ValueError(f"order must be 'kx' or 'xk', got {order!r}")
    if phases is None:
        phases = tuple(rng.uniform(0.0, 2.0 * math.pi, size=3))
    first, second = ("K", "X") if order == "kx" else ("X", "K")
    program = CircuitProgram(
        EXTENDED_LAYOUT, EXTENDED_QUERY + (Measure(first), Measure(second)), {"pre": len(EXTENDED_QUERY)}
    )
    trace = run(program, rng, initial=extended_preparation(phases))
    outcomes = {record.register: record.outcome for record in trace.records}
    return trace.state_at_tag("pre"), GameTranscript(drawers, "extended", 1, outcomes["K"], outcomes["X"])


def sequential_joint_distribution(
    state: PureState, first: str, second: str
) -> dict[tuple[int, int], float]:
    """Exact joint outcome distribution, enumerated measurement by
    measurement in the given order; keys are value pairs in (first, second)
    order."""
    program = CircuitProgram(state.layout, (Measure(first), Measure(second)))
    return enumerate_outcome_distribution(program, (first, second), initial=state)


def mixture_equivalence_check(
    drawers: int = 4,
    method: str = "analytic",
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
    correlated_phases: bool = False,
) -> StateDistance:
    """Frobenius distance between the mode register's phase-averaged reduced
    density and the uniform classical mixture over the 4 choices.

    Independent phases drive the distance to zero (exactly under the
    analytic average, statistically under Monte Carlo); correlated phases
    leave cross terms alive, so the distance stays visibly positive.
    """
    if drawers != 4:
        raise ValueError("the mixture check is built for exactly 4 drawers")
    mixture = extended_mixture()
    uniform = np.eye(4) / 4.0
    if method == "analytic":
        groups = [[0], [1, 2, 3]] if correlated_phases else None
        reduced = analytic_average_density(mixture, keep=["K"], phase_groups=groups)
    elif method == "monte-carlo":
        if correlated_phases:
            raise ValueError("correlated phases are evaluated in closed form only")
        if rng is None:
            raise ValueError("monte-carlo method needs an rng")
        reduced = average_density(mixture, samples, rng, keep=["K"])
    else:
        raise ValueError(f"method must be 'analytic' or 'monte-carlo', got {method!r}")
    return StateDistance(reduced.frobenius_distance(uniform), kind="frobenius")


def run_classical_game(drawers: int, hidden_drawer: int, strategy: str) -> GameTranscript:
    """The square-chest game: jointly (row announced, row scanned) or
    unilaterally (every drawer scanned).  Scans stop on hit."""
    inst = GameInstance(drawers, hidden_drawer)
    if strategy == "joint":
        side = math.isqrt(drawers)
        if side * side != drawers:
            raise ValueError(f"joint strategy needs a square drawer count, got {drawers}")
        row, column = divmod(inst.hidden_drawer, side)
        return GameTranscript(
            drawers,
            "classical-joint",
            column + 1,
            inst.hidden_drawer,
            inst.hidden_drawer,
            announced_row=row,
        )
    if strategy == "unilateral":
        return GameTranscript(
            drawers,
            "classical-unilateral",
            inst.hidden_drawer + 1,
            inst.hidden_drawer,
            inst.hidden_drawer,
        )
    raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


def classical_worst_case_queries(drawers: int, strategy: str) -> int:
    """The most probes any hidden drawer costs: sqrt(n) jointly, n unilaterally.

    The last drawer sits in the last column of the last row, so it is a
    worst case under both strategies; its game checks the input the same way
    every other game does and gives the count in O(1).
    """
    return run_classical_game(drawers, drawers - 1, strategy).oracle_queries
