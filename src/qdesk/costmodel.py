"""Stage-by-stage step counts for period finding, classical vs quantum.

This is a declared accounting model, not a benchmark.  Classical cost is
the work to write out the symbolic description of the next state from the
previous one, term by term; quantum cost counts gate layers and measured
qubits.  Every term, gate layer and measured qubit is one unit:

                        classical                quantum
  function-evaluation   2^n   (all terms)        n + 1  (one Hadamard layer
                                                 + oracle credited n layers)
  filtration            2^n   (scan all terms)   n      (measure n F qubits)
  extraction            max(2^n / r, n)          n(n+1)/2 + n  (Fourier
                                                 layers + measured X qubits)

The oracle's n-layer credit stands in for a concrete circuit of the
evaluated function, which this model deliberately leaves abstract.  The
quantum filtration count depends on register width only, never on how
entangled the registers are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shor import PeriodFindingInstance

STAGES = ("function-evaluation", "filtration", "extraction")

# Quantum counts are asserted polynomial with this quadratic cap.
GROWTH_CAP_FACTOR = 2


@dataclass(frozen=True)
class StageCost:
    n: int
    stage: str
    classical_units: int
    quantum_units: int


def _rows(n: int, period: int, output_bits: int) -> list[StageCost]:
    """One row per stage, in ``STAGES`` order."""
    size = 1 << n
    # extraction: read the period from the filtered term list, then write
    # the n-bit answer; the dominating count is charged.
    classical = (size, size, max(size // period, n))
    quantum = (1 + n, output_bits, n * (n + 1) // 2 + n)
    return [StageCost(n, stage, cu, qu) for stage, cu, qu in zip(STAGES, classical, quantum)]


def stage_costs(inst: PeriodFindingInstance) -> list[StageCost]:
    """One instance's cost rows, one per stage in ``STAGES`` order: terms
    written or scanned to derive the next symbolic description, and gate
    layers plus measured qubits."""
    return _rows(inst.n, inst.period, inst.table.output_bits)


def stage_table(n_values: list[int]) -> list[StageCost]:
    """Cost rows for every n, with the growth-class assertions built in.

    Each size is the ``build_periodic`` instance with period 2^n / 2 (half
    the input space, which keeps classical extraction linear in n) and n
    output bits; its rows come from those three numbers, so no table is
    built.  Raises ``AssertionError`` if the counts stop doubling
    classically or exceed the quadratic cap quantally.
    """
    if not n_values:
        raise ValueError("n_values must not be empty")
    rows: list[StageCost] = []
    for n in sorted(n_values):
        rows.extend(_rows(n, max(1, (1 << n) // 2), n))
    _assert_growth_classes(rows)
    return rows


def _assert_growth_classes(rows: list[StageCost]) -> None:
    by_stage: dict[str, list[StageCost]] = {stage: [] for stage in STAGES}
    for row in rows:
        by_stage[row.stage].append(row)
    for stage in ("function-evaluation", "filtration"):
        seq = sorted(by_stage[stage], key=lambda r: r.n)
        for prev, cur in zip(seq, seq[1:]):
            expected = prev.classical_units << (cur.n - prev.n)
            assert cur.classical_units == expected, (
                f"classical {stage} count stopped doubling: "
                f"n={cur.n} has {cur.classical_units}, expected {expected}"
            )
    for stage in STAGES:
        for row in by_stage[stage]:
            cap = GROWTH_CAP_FACTOR * row.n * row.n
            assert row.quantum_units <= max(cap, 2), (
                f"quantum {stage} count {row.quantum_units} exceeds {cap} at n={row.n}"
            )
