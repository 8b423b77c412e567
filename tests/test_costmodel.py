import pytest

from qdesk import (
    StageCost,
    build_periodic,
    stage_costs,
    stage_table,
)
from qdesk.costmodel import STAGES, _assert_growth_classes
from qdesk.shor import divisors


def row(inst, stage):
    """The instance's cost row for one stage."""
    return {r.stage: r for r in stage_costs(inst)}[stage]


class TestClassicalCost:
    def test_function_evaluation_writes_every_term(self):
        assert row(build_periodic(3, 2), "function-evaluation").classical_units == 8

    def test_filtration_scans_every_term(self):
        assert row(build_periodic(3, 2), "filtration").classical_units == 8

    def test_degenerate_single_term_instance(self):
        inst = build_periodic(0, 1)
        for stage in STAGES:
            assert row(inst, stage).classical_units == 1

    def test_extraction_reads_the_filtered_list(self):
        # 2^4 / 4 = 4 terms dominate the 4-bit output write
        assert row(build_periodic(4, 4), "extraction").classical_units == 4
        # with a long period the write dominates
        assert row(build_periodic(4, 16), "extraction").classical_units == 4
        assert row(build_periodic(5, 16), "extraction").classical_units == 5


class TestQuantumCost:
    def test_filtration_is_linear_in_register_width(self):
        assert row(build_periodic(3, 2), "filtration").quantum_units == 3

    def test_extraction_counts_fourier_layers_plus_readout(self):
        assert row(build_periodic(3, 2), "extraction").quantum_units == 9

    def test_smallest_function_evaluation(self):
        assert row(build_periodic(1, 2), "function-evaluation").quantum_units == 2

    def test_entanglement_independence(self):
        for n in range(2, 7):
            counts = {
                row(build_periodic(n, r), "filtration").quantum_units for r in divisors(1 << n)
            }
            assert counts == {n}


class TestStageTable:
    def test_classical_filtration_counts_double(self):
        rows = stage_table(list(range(2, 9)))
        counts = [r.classical_units for r in rows if r.stage == "filtration"]
        assert counts == [4, 8, 16, 32, 64, 128, 256]

    def test_quantum_filtration_counts_are_linear(self):
        rows = stage_table(list(range(2, 9)))
        counts = [r.quantum_units for r in rows if r.stage == "filtration"]
        assert counts == [2, 3, 4, 5, 6, 7, 8]

    def test_ratio_strictly_increases(self):
        rows = stage_table(list(range(2, 11)))
        ratios = [r.classical_units / r.quantum_units for r in rows if r.stage == "filtration"]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_rows_cover_every_stage_per_size(self):
        rows = stage_table([2, 3, 4])
        assert len(rows) == 9
        assert {(r.n, r.stage) for r in rows} == {(n, s) for n in (2, 3, 4) for s in STAGES}

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            stage_table([])

    def test_growth_assertions_catch_crafted_rows(self):
        # the model's own rows pass; a quantum count over the quadratic cap,
        # or a classical count that stops doubling, does not
        rows = stage_table([2, 3])
        _assert_growth_classes(rows)
        over_cap = [StageCost(r.n, r.stage, r.classical_units, 1000 * r.quantum_units) for r in rows]
        with pytest.raises(AssertionError, match="exceeds"):
            _assert_growth_classes(over_cap)
        flat = [StageCost(r.n, r.stage, 4, r.quantum_units) for r in rows]
        with pytest.raises(AssertionError, match="stopped doubling"):
            _assert_growth_classes(flat)

    def test_per_instance_rows(self):
        rows = stage_costs(build_periodic(3, 4))
        assert [r.stage for r in rows] == list(STAGES)
        assert all(r.n == 3 for r in rows)
