import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf

from qdesk import (
    GameInstance,
    PureState,
    RegisterLayout,
    classical_worst_case_queries,
    compare_up_to_global_phase,
    iteration_count,
    make_basis_state,
    measure_register,
    mixture_equivalence_check,
    outcome_distribution,
    partial_trace,
    run_classical_game,
    run_extended_grover,
    run_standard_grover,
    standard_circuit,
    standard_grover_state,
)
from qdesk import circuit_ir
from qdesk.circuit_ir import CircuitProgram, GateOp, Measure, run, unitary_prefix
from qdesk.cli import _cmd_grover, build_parser, main
from qdesk.grover import (
    EXTENDED_LAYOUT,
    KICKBACK,
    extended_preparation,
    marked_drawer_table,
    sequential_joint_distribution,
    standard_layout,
)
from qdesk.measure import born_sample
from test_register_axis import gate


def expected_standard_final(drawers, hidden):
    """(1/sqrt(2)) |hidden>_X (|0> - |1>)_F, written out by hand."""
    layout = standard_layout(drawers)
    amps = np.zeros(layout.dimension, dtype=complex)
    amps[layout.encode({"X": hidden, "F": 0})] = 1 / math.sqrt(2)
    amps[layout.encode({"X": hidden, "F": 1})] = -1 / math.sqrt(2)
    return PureState(layout, amps)


def expected_extended_final(phases):
    """sum_k e^{i delta_k} |k>_K |k>_X (|0> - |1>)_F / (2 sqrt(2))."""
    amps = np.zeros(EXTENDED_LAYOUT.dimension, dtype=complex)
    factors = [1.0, *(np.exp(1j * p) for p in phases)]
    for k in range(4):
        amps[EXTENDED_LAYOUT.encode({"K": k, "X": k, "F": 0})] = factors[k] / (2 * math.sqrt(2))
        amps[EXTENDED_LAYOUT.encode({"K": k, "X": k, "F": 1})] = -factors[k] / (2 * math.sqrt(2))
    return PureState(EXTENDED_LAYOUT, amps)


class TestStandardGame:
    @pytest.mark.parametrize("hidden", range(4))
    def test_four_drawer_state_table(self, hidden):
        pre = standard_grover_state(GameInstance(4, hidden))
        expected = expected_standard_final(4, hidden)
        assert compare_up_to_global_phase(pre, expected).value < 1e-10
        probs = outcome_distribution(pre, "X").probabilities
        assert probs[hidden] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("hidden", range(4))
    def test_transcript_answers_the_hidden_drawer(self, hidden):
        _, transcript = run_standard_grover(GameInstance(4, hidden), np.random.default_rng(0))
        assert transcript.answered_x == hidden
        assert transcript.announced_k == hidden
        assert transcript.oracle_queries == 1

    def test_sixteen_drawers_high_hit_rate(self):
        # closed form: success after m iterations is sin^2((2m+1) theta)
        # with sin(theta) = 1/sqrt(16)
        theta = math.asin(1 / 4)
        m = iteration_count(16)
        closed_form = math.sin((2 * m + 1) * theta) ** 2
        for hidden in (0, 7, 15):
            pre = standard_grover_state(GameInstance(16, hidden))
            probs = outcome_distribution(pre, "X").probabilities
            assert probs[hidden] == pytest.approx(closed_form, abs=1e-10)
            assert probs[hidden] >= 0.9

    @pytest.mark.parametrize("drawers", [1 << bits for bits in range(2, 17)])
    def test_hit_probability_is_the_forty_digit_closed_form(self, drawers):
        # sin^2((2m + 1) theta), sin(theta) = 1/sqrt(drawers), at 40 digits
        _, transcript = run_standard_grover(GameInstance(drawers, drawers // 3), np.random.default_rng(0))
        with mp.workdps(40):
            theta = mp.asin(1 / mp.sqrt(drawers))
            exact = mp.sin((2 * iteration_count(drawers) + 1) * theta) ** 2
            assert abs(mpf(transcript.hit_probability) - exact) <= mpf("1e-13")

    def test_iteration_counts(self):
        assert [iteration_count(n) for n in (4, 16, 64, 256)] == [1, 3, 6, 12]

    def test_kickback_preparation_is_the_paper_form(self):
        layout = standard_layout(4)
        state = kickback_preparation(layout)
        expected = np.zeros(layout.dimension, dtype=complex)
        expected[layout.encode({"X": 0, "F": 0})] = 1 / math.sqrt(2)
        expected[layout.encode({"X": 0, "F": 1})] = -1 / math.sqrt(2)
        assert np.abs(state.amplitudes - expected).max() < 1e-15

    @pytest.mark.parametrize("drawers", [4, 16, 64])
    def test_kickback_register_untouched(self, drawers):
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        pre = standard_grover_state(GameInstance(drawers, drawers // 2))
        rho = partial_trace(pre, ["F"])
        assert np.abs(rho.matrix - minus).max() < 1e-10

    def test_probabilities_stay_summed_to_one_at_2_18_drawers(self):
        # 402 oracle + diffusion pairs over 2^19 amplitudes; summing the
        # register in index order drifts this sum by 6.7e-11
        drawers = 1 << 18
        dist = outcome_distribution(standard_grover_state(GameInstance(drawers, 12345)), "X")
        assert abs(dist.probabilities.sum() - 1.0) <= 1e-11
        assert dist.probabilities[12345] > 0.99999

    def test_drawer_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            standard_grover_state(GameInstance(6, 1))

    def test_hidden_drawer_validated(self):
        with pytest.raises(ValueError):
            GameInstance(4, 4)


def kickback_preparation(layout):
    """|0..0>_X (|0> - |1>)_F / sqrt(2): the kickback prepare alone."""
    return unitary_prefix(CircuitProgram(layout, (KICKBACK,)), 1)


def hand_route_state(inst):
    """The standard search applied gate by gate, each as its own
    one-instruction program."""
    state = gate(kickback_preparation(standard_layout(inst.drawers)), "hadamard", reg="X")
    table = marked_drawer_table(inst.drawers, inst.hidden_drawer)
    for _ in range(iteration_count(inst.drawers)):
        state = gate(state, "oracle-xor", in_reg="X", out_reg="F", table=table)
        state = gate(state, "grover-diffusion", reg="X")
    return state


class TestStandardCircuit:
    def test_program_shape(self):
        program = standard_circuit(GameInstance(64, 9))
        iterations = iteration_count(64)
        assert len(program.instructions) == 2 * iterations + 3
        assert program.time_tags == {"pre": 2 * iterations + 2}
        assert program.instructions[-1] == Measure("X")
        kinds = [i.kind for i in program.instructions[2:-1] if isinstance(i, GateOp)]
        assert kinds == ["oracle-xor", "grover-diffusion"] * iterations
        assert program.measured_registers() == ("X",)

    @pytest.mark.parametrize("drawers", [4, 16, 64, 1024])
    def test_pre_state_bit_identical_to_hand_route(self, drawers):
        inst = GameInstance(drawers, drawers - 3)
        reference = hand_route_state(inst).amplitudes
        trace = run(standard_circuit(inst), np.random.default_rng(drawers))
        assert np.array_equal(trace.state_at_tag("pre").amplitudes, reference)
        assert np.array_equal(standard_grover_state(inst).amplitudes, reference)
        played, _ = run_standard_grover(inst, np.random.default_rng(drawers))
        assert np.array_equal(played.state_at_tag("pre").amplitudes, reference)

    @pytest.mark.parametrize("drawers", [16, 64, 1024])
    def test_answer_equals_measure_register_with_the_same_seed(self, drawers):
        inst = GameInstance(drawers, 1)
        reference = hand_route_state(inst)
        answers = set()
        for seed in range(200):
            _, transcript = run_standard_grover(inst, np.random.default_rng(seed))
            expected, _ = measure_register(reference, "X", np.random.default_rng(seed))
            assert transcript.answered_x == expected
            answers.add(transcript.answered_x)
        if drawers == 16:
            assert len(answers) > 1  # a miss shows the draw is really compared


class TestReportAgainstTheSecondMarginal:
    """The report's hit probability is the walk's own X distribution, the
    one its answer was drawn from; the oracle is the route that computed a
    second marginal from the pre-measurement state."""

    @pytest.mark.parametrize(
        "drawers, hidden, seed",
        [
            (2, 0, 0),
            (2, 1, 7),
            (4, 3, 1),
            (4, 0, 2),
            (16, 5, 3),
            (16, 5, 34),  # a miss
            (16, 15, 11),
            (1024, 0, 4),
            (1024, 777, 1074),  # a miss
            (16384, 5461, 6),
            (16384, 16383, 12),
            (65536, 1, 8),
            (65536, 40000, 9),
        ],
    )
    def test_hit_probability_and_answer(self, capsys, drawers, hidden, seed):
        inst = GameInstance(drawers, hidden)
        marginal = outcome_distribution(standard_grover_state(inst), "X")
        assert main(["grover", "--n", str(drawers), "--k", str(hidden), "--seed", str(seed), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hit_probability"] == float(marginal.probabilities[hidden])
        assert report["answered_x"] == born_sample(marginal, np.random.default_rng(seed))
        _, transcript = run_standard_grover(inst, np.random.default_rng(seed))
        assert transcript.hit_probability == report["hit_probability"]

    def test_other_games_carry_no_hit_probability(self):
        assert run_classical_game(16, 3, "joint").hit_probability is None
        assert run_extended_grover(4, np.random.default_rng(0))[1].hit_probability is None

    @pytest.mark.parametrize("drawers", [2, 4096])
    def test_a_report_writes_the_kickback_register_out_only_for_its_dumped_state(self, monkeypatch, tmp_path, drawers):
        # a held register is written out into complex128 by one broadcast,
        # at a segment's end or in ``_written_out``; a report reads neither
        # the pre-measurement state nor the projection unless it dumps the
        # state
        written = []
        broadcast = circuit_ir._Segment.broadcast

        def recording(segment, reg, dtype=None):
            if dtype is np.complex128:
                written.append(reg)
            return broadcast(segment, reg, dtype)

        monkeypatch.setattr(circuit_ir._Segment, "broadcast", recording)
        argv = ["grover", "--n", str(drawers), "--k", "1", "--json"]
        with contextlib.redirect_stdout(io.StringIO()) as plain:
            assert main(argv) == 0
        assert written == []
        with contextlib.redirect_stdout(io.StringIO()) as dumped:
            assert main(argv + ["--dump-state", str(tmp_path / "pre.json")]) == 0
        assert written == ["F"]
        assert dumped.getvalue() == plain.getvalue()

    def test_a_report_at_the_ceiling_peaks_at_the_arrays_it_holds(self):
        # 2^19 drawers: the peak is where the answer's cumulative sums are
        # built, and the float64 search buffer with the kickback qubit held
        # as a sign, the table's array, the drawn distribution (the X
        # marginal itself) and its clipped copy, in which the running sum
        # is taken in place (4 MiB each), make 16 MiB; neither the pre
        # state nor the final state is written out, and what else is live
        # there is small objects (about 19 KB)
        args = build_parser().parse_args(["grover", "--n", str(1 << 19), "--k", "5"])
        _cmd_grover(args, 0)  # warm the imports and caches
        tracemalloc.start()
        try:
            report = _cmd_grover(args, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["answered_x"] == 5
        assert peak <= 16 * 2**20 + 24 * 2**10, peak


class TestExtendedGame:
    def test_zero_phase_final_state(self):
        pre, _ = run_extended_grover(4, np.random.default_rng(0), phases=(0.0, 0.0, 0.0))
        expected = expected_extended_final((0.0, 0.0, 0.0))
        assert np.abs(pre.amplitudes - expected.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_phase_final_state(self, seed):
        rng = np.random.default_rng(seed)
        phases = tuple(rng.uniform(0, 2 * math.pi, size=3))
        pre, _ = run_extended_grover(4, rng, phases=phases)
        expected = expected_extended_final(phases)
        assert compare_up_to_global_phase(pre, expected).value < 1e-10
        assert np.abs(pre.amplitudes - expected.amplitudes).max() < 1e-10

    def test_preparation_matches_displayed_form(self):
        phases = (0.3, 1.1, 4.0)
        prep = extended_preparation(phases)
        scale = 1 / (2 * math.sqrt(2))
        for k, phase in enumerate((0.0,) + phases):
            plus = prep.amplitudes[EXTENDED_LAYOUT.encode({"K": k, "X": 0, "F": 0})]
            minus = prep.amplitudes[EXTENDED_LAYOUT.encode({"K": k, "X": 0, "F": 1})]
            assert plus == pytest.approx(scale * np.exp(1j * phase), abs=1e-15)
            assert minus == pytest.approx(-scale * np.exp(1j * phase), abs=1e-15)

    @pytest.mark.parametrize("order", ["kx", "xk"])
    def test_players_always_agree(self, order):
        for seed in range(30):
            _, transcript = run_extended_grover(4, np.random.default_rng(seed), order=order)
            assert transcript.announced_k == transcript.answered_x

    def test_mode_outcomes_are_uniform(self):
        counts = np.zeros(4)
        for seed in range(2000):
            _, transcript = run_extended_grover(4, np.random.default_rng(seed))
            counts[transcript.announced_k] += 1
        assert np.abs(counts / 2000 - 0.25).max() < 0.05

    def test_joint_distribution_diagonal_uniform_both_orders(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            phases = tuple(rng.uniform(0, 2 * math.pi, size=3))
            pre, _ = run_extended_grover(4, rng, phases=phases)
            for first, second in (("K", "X"), ("X", "K")):
                joint = sequential_joint_distribution(pre, first, second)
                assert set(joint) == {(k, k) for k in range(4)}
                for p in joint.values():
                    assert p == pytest.approx(0.25, abs=1e-10)

    def test_only_four_drawers_supported(self):
        with pytest.raises(ValueError):
            run_extended_grover(8, np.random.default_rng(0))

    def test_kickback_register_untouched(self):
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        pre, _ = run_extended_grover(4, np.random.default_rng(3))
        assert np.abs(partial_trace(pre, ["F"]).matrix - minus).max() < 1e-10


class TestMixtureEquivalence:
    def test_analytic_average_is_the_uniform_mixture(self):
        assert mixture_equivalence_check(4, "analytic").value < 1e-10

    def test_monte_carlo_converges(self):
        rng = np.random.default_rng(21)
        value = mixture_equivalence_check(4, "monte-carlo", samples=100_000, rng=rng).value
        assert value < 5e-3

    def test_correlated_phases_leave_cross_terms(self):
        # with one shared phase the three phased slots stay coherent:
        # six off-diagonal entries of modulus 1/4 -> distance sqrt(6)/4
        value = mixture_equivalence_check(4, "analytic", correlated_phases=True).value
        assert value == pytest.approx(math.sqrt(6) / 4, abs=1e-12)
        assert value > 0.1

    def test_monte_carlo_needs_rng(self):
        with pytest.raises(ValueError):
            mixture_equivalence_check(4, "monte-carlo")


class TestClassicalGame:
    def test_worked_example_row_one_column_zero(self):
        # hidden drawer 2 = binary 10: row 1, column 0
        transcript = run_classical_game(4, 2, "joint")
        assert transcript.announced_row == 1
        assert transcript.oracle_queries <= 2
        assert transcript.answered_x == 2

    def test_unilateral_worst_case_hits_on_last(self):
        transcript = run_classical_game(4, 3, "unilateral")
        assert transcript.oracle_queries == 4

    @pytest.mark.parametrize("drawers", [4, 16, 64, 256])
    def test_worst_case_query_counts(self, drawers):
        assert classical_worst_case_queries(drawers, "joint") == math.isqrt(drawers)
        assert classical_worst_case_queries(drawers, "unilateral") == drawers

    def test_worst_case_equals_brute_force(self):
        def brute_force(drawers, strategy):
            return max(run_classical_game(drawers, k, strategy).oracle_queries for k in range(drawers))

        for side in range(1, 65):
            assert classical_worst_case_queries(side * side, "joint") == brute_force(side * side, "joint")
        for bits in range(13):
            drawers = 1 << bits
            assert classical_worst_case_queries(drawers, "unilateral") == brute_force(drawers, "unilateral")

    @pytest.mark.parametrize(
        "drawers, strategy", [(8, "joint"), (0, "joint"), (0, "unilateral"), (-4, "unilateral"), (4, "diagonal")]
    )
    def test_worst_case_checks_input_like_the_game(self, drawers, strategy):
        with pytest.raises(ValueError):
            classical_worst_case_queries(drawers, strategy)

    def test_sixty_four_drawers_row_scan(self):
        assert classical_worst_case_queries(64, "joint") == 8

    def test_joint_needs_square_count(self):
        with pytest.raises(ValueError):
            run_classical_game(8, 1, "joint")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            run_classical_game(4, 1, "diagonal")
