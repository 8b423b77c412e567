import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qdesk import (
    CircuitProgram,
    FunctionTable,
    GateOp,
    ModedFunctionTable,
    PureState,
    RegisterLayout,
    ShapeMismatchError,
    apply_instruction,
    make_basis_state,
    modexp_table,
    normalize,
)
from qdesk.grover import marked_drawer_table
from qdesk.shor import build_periodic
from qdesk.qstate import MAX_QUBITS
from qdesk.measure import outcome_distribution
from test_register_axis import dense_qft, gate, grover_diffusion_in_place, xor_permutation


def refuse_call(x):
    raise AssertionError("the function was called before the widths were checked")


def random_state(rng, layout):
    parts = rng.normal(size=(layout.dimension, 2))
    return normalize(PureState(layout, parts[:, 0] + 1j * parts[:, 1]))


def brute_force_fourier(amps, inverse=False):
    """Reference DFT with scalar python arithmetic, independent of numpy."""
    size = len(amps)
    sign = -1.0 if inverse else 1.0
    out = []
    for c in range(size):
        total = 0j
        for x in range(size):
            total += complex(amps[x]) * cmath.exp(sign * 2j * cmath.pi * c * x / size)
        out.append(total / math.sqrt(size))
    return np.array(out)


class TestFunctionTable:
    def test_validates_length(self):
        with pytest.raises(ShapeMismatchError):
            FunctionTable(2, 1, (0, 1, 0))

    def test_validates_range(self):
        with pytest.raises(ShapeMismatchError):
            FunctionTable(1, 1, (0, 2))

    def test_from_callable_and_call(self):
        f = FunctionTable.from_callable(lambda x: x % 2, 2, 1)
        assert f.table == (0, 1, 0, 1)
        assert f(3) == 1

    def test_json_round_trip(self):
        f = FunctionTable(2, 2, (0, 1, 2, 3))
        assert FunctionTable.from_json(f.to_json()) == f
        m = ModedFunctionTable.equality_test(2)
        assert ModedFunctionTable.from_json(m.to_json()) == m

    def test_sequence_and_array_forms_build_the_same_table(self):
        entries = (1, 0, 0, 1, 0, 0, 0, 1)
        forms = [
            entries,
            list(entries),
            np.array(entries, dtype=np.int32),
            np.array(entries, dtype=np.int64),
            np.array(entries, dtype=bool),
        ]
        tables = [FunctionTable(3, 1, form) for form in forms]
        for f in tables:
            assert f == tables[0]
            assert hash(f) == hash(tables[0])
            assert f.to_json() == tables[0].to_json()
            assert f.table == entries and all(type(v) is int for v in f.table)
            assert f.values.dtype == np.int64 and f.values.tolist() == list(entries)
        moded = [ModedFunctionTable(1, 2, 1, form) for form in forms]
        assert all(m == moded[0] and hash(m) == hash(moded[0]) for m in moded)
        assert ModedFunctionTable.equality_test(2).table == tuple(
            int(k == x) for k in range(4) for x in range(4)
        )

    @pytest.mark.parametrize("form", [tuple, list, np.array])
    def test_array_forms_still_validate(self, form):
        with pytest.raises(ShapeMismatchError):
            FunctionTable(2, 1, form([0, 1, 0]))
        with pytest.raises(ShapeMismatchError):
            FunctionTable(2, 1, form([0, 1, 0, 2]))
        with pytest.raises(ShapeMismatchError):
            FunctionTable(2, 1, form([0, 1, -1, 0]))
        with pytest.raises(ShapeMismatchError):
            ModedFunctionTable(1, 1, 1, form([0, 1, 0]))
        with pytest.raises(ShapeMismatchError):
            ModedFunctionTable(1, 1, 1, form([0, 1, 0, 2]))
        with pytest.raises(ShapeMismatchError):
            FunctionTable(1, 2, form([0, 2**70]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FunctionTable(10**9, 1, (0,)),
            lambda: FunctionTable(1, 10**9, (0, 0)),
            lambda: FunctionTable(-1, 1, (0,)),
            lambda: FunctionTable(True, 1, (0, 1)),
            lambda: FunctionTable(1.0, 1, (0, 1)),
            lambda: ModedFunctionTable(10**9, 1, 1, (0,)),
            lambda: ModedFunctionTable(1, 1, MAX_QUBITS + 1, (0, 0, 0, 0)),
        ],
    )
    def test_widths_are_integers_up_to_the_qubit_ceiling(self, build):
        # checked before any 2^width is formed, so a huge width allocates nothing
        with pytest.raises(ShapeMismatchError, match="widths"):
            build()

    @pytest.mark.parametrize("width", [21, 23, 30, 40])
    @pytest.mark.parametrize(
        "build",
        [
            lambda w: build_periodic(w, 3),
            lambda w: modexp_table(2, 21, w),
            lambda w: marked_drawer_table(1 << w, 1),
            lambda w: FunctionTable.from_callable(refuse_call, w, 1),
            lambda w: ModedFunctionTable.equality_test(w),
        ],
        ids=["build_periodic", "modexp_table", "marked_drawer_table", "from_callable", "equality_test"],
    )
    def test_a_builder_checks_its_widths_before_it_allocates(self, build, width):
        # when only the table checked its widths, each of these first built
        # 2^width entries (16 MiB at width 21, 8 GiB for build_periodic at
        # 30) or called f 2^width times
        tracemalloc.start()
        try:
            with pytest.raises(ShapeMismatchError, match=f"table widths \\[{width}, "):
                build(width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_moded_table_keyed_by_more_than_the_ceiling_is_refused(self):
        with pytest.raises(ShapeMismatchError, match="key more than"):
            ModedFunctionTable.equality_test(MAX_QUBITS // 2 + 1)
        with pytest.raises(ShapeMismatchError, match="key more than"):
            ModedFunctionTable(MAX_QUBITS, 1, 1, ())

    @pytest.mark.parametrize(
        "doc",
        [
            {"input_bits": 1, "output_bits": 1, "table": [0, 1.5]},
            {"input_bits": 1, "output_bits": 1, "table": [0, True]},
            {"input_bits": 1, "output_bits": 1, "table": [0, "1"]},
            {"input_bits": 1, "output_bits": 1, "table": "01"},
            {"input_bits": 1, "table": [0, 1]},
            {"input_bits": 2.0, "output_bits": 1, "table": [0, 1, 0, 1]},
            {"input_bits": 10**9, "output_bits": 1, "table": [0]},
            [0, 1],
        ],
    )
    def test_a_bad_document_is_a_shape_mismatch(self, doc):
        with pytest.raises(ShapeMismatchError):
            FunctionTable.from_json(doc)
        with pytest.raises(ShapeMismatchError):
            ModedFunctionTable.from_json({"mode_bits": 0, **doc} if isinstance(doc, dict) else doc)

    def test_table_tuple_is_built_on_first_read(self):
        # a drawer table is built per report for an oracle that reads only
        # ``values``, so construction makes no tuple
        entries = [int(x == 5) for x in range(16)]
        tables = [FunctionTable(4, 1, form) for form in (tuple(entries), entries, np.array(entries))]
        tables.append(marked_drawer_table(16, 5))
        assert all("table" not in f.__dict__ for f in tables)
        assert all(f(5) == 1 and f(4) == 0 and not f.has_period(3) for f in tables)
        for f in tables:
            assert f == tables[0] and hash(f) == hash(tables[0]) == hash((4, 1, tuple(entries)))
            assert FunctionTable.from_json(f.to_json()) == f
            assert f.table is f.table and f.table == tuple(entries)
        moded = ModedFunctionTable.equality_test(1)
        assert "table" not in moded.__dict__
        assert hash(moded) == hash((1, 1, 1, (1, 0, 0, 1))) and moded(1, 1) == 1
        with pytest.raises(AttributeError):
            tables[0].missing

    def test_has_period_at_and_past_the_input_range_and_off_f_of_0(self):
        # f has period 3 on 0..7: every q >= 8 compares two empty slices,
        # and a q with f(q) != f(0) is no period
        f = FunctionTable(3, 2, (0, 1, 2, 0, 1, 2, 0, 1))
        assert f.has_period(3) and f.has_period(6)
        assert f.has_period(8) and f.has_period(9) and f.has_period(100)
        assert not f.has_period(1) and not f.has_period(2) and not f.has_period(4)
        # f(5) = f(0) with no period 5: the full comparison decides
        g = FunctionTable(3, 1, (0, 1, 1, 1, 1, 0, 1, 0))
        assert not g.has_period(5) and g.has_period(8)

    def test_table_keeps_its_own_copy(self):
        entries = np.array([0, 1, 2, 3])
        f = FunctionTable(2, 2, entries)
        entries[0] = 3
        assert f.table == (0, 1, 2, 3) and f.values[0] == 0

    def test_values_and_swaps_are_read_only(self):
        for f in (FunctionTable(2, 2, (0, 1, 2, 3)), ModedFunctionTable.equality_test(2)):
            with pytest.raises(ValueError):
                f.values[0] = 1
            for pairs in f.swaps:
                with pytest.raises(ValueError):
                    pairs[0] = 1
            assert f.swaps is f.swaps

    def test_swaps_are_the_xor_map(self):
        f = FunctionTable(2, 2, (3, 0, 1, 2))
        expected = [(x << 2) | (y ^ f(x)) for x in range(4) for y in range(4)]
        permutation = xor_permutation(f.values, f.output_bits)
        assert permutation.tolist() == expected
        assert np.array_equal(permutation[permutation], np.arange(16))
        moved = [(i, j) for i, j in enumerate(expected) if i < j]
        assert list(zip(*f.swaps)) == moved

    def test_modexp_table_against_hand_powers(self):
        # 7^x mod 15 cycles 1, 7, 4, 13, 1, ...
        f = modexp_table(7, 15, 4)
        acc = 1
        for x in range(16):
            assert f(x) == acc
            acc = (acc * 7) % 15

    def test_modexp_table_is_the_python_loop(self):
        # from modulus 2 to 2^19, the widest the command line admits (n = 1,
        # 19 output bits), and past it to a 20-bit modulus at n = 12
        grid = [
            (base, modulus, n)
            for modulus in (2, 3, 15, 21, 39, 1 << 10, (1 << 19) - 1, 1 << 19)
            for base in (1, 2, 3, 7, modulus - 1, -5, 10**30 + 1)
            for n in (0, 1, 2, 5, 9)
            if math.gcd(base, modulus) == 1
        ] + [(3, 1 << 19, 14), (5, (1 << 20) - 3, 12)]
        for base, modulus, n in grid:
            acc, expected = 1 % modulus, []
            for _ in range(1 << n):
                expected.append(acc)
                acc = acc * base % modulus
            table = modexp_table(base, modulus, n)
            assert table.table == tuple(expected), (base, modulus, n)
            assert table.output_bits == max(1, (modulus - 1).bit_length())

    @pytest.mark.parametrize("modulus", [(1 << 20) + 1, (1 << 40) + 1, (1 << 70) + 1])
    def test_modexp_modulus_wider_than_a_register_is_refused_before_any_product(self, modulus):
        # an entry that wide could overflow int64 in a doubling step
        with pytest.raises(ShapeMismatchError):
            modexp_table(2, modulus, 3)

    def test_modexp_requires_coprime(self):
        with pytest.raises(ValueError):
            modexp_table(6, 15, 3)


class TestHadamard:
    def test_single_qubit(self):
        state = gate(make_basis_state(RegisterLayout.of(X=1), {}), "hadamard", reg="X")
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_uniform_on_two_qubits(self):
        state = gate(make_basis_state(RegisterLayout.of(X=2), {}), "hadamard", reg="X")
        assert np.allclose(state.amplitudes, 0.5)

    def test_applying_twice_restores(self):
        rng = np.random.default_rng(0)
        layout = RegisterLayout.of(X=3, F=2)
        state = random_state(rng, layout)
        back = gate(gate(state, "hadamard", reg="X"), "hadamard", reg="X")
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-10

    def test_only_touches_named_register(self):
        layout = RegisterLayout.of(X=1, F=1)
        state = gate(make_basis_state(layout, {"F": 1}), "hadamard", reg="X")
        # F stays a definite 1
        assert outcome_distribution(state, "F").probabilities[1] == pytest.approx(1.0)

    def test_matches_single_qubit_fourier(self):
        rng = np.random.default_rng(5)
        layout = RegisterLayout.of(X=1)
        state = random_state(rng, layout)
        assert np.abs(
            gate(state, "hadamard", reg="X").amplitudes - gate(state, "qft", reg="X").amplitudes
        ).max() < 1e-15


class TestFourierTransform:
    def test_delta_to_uniform(self):
        state = gate(make_basis_state(RegisterLayout.of(X=2), {}), "qft", reg="X")
        assert np.allclose(state.amplitudes, 0.5, atol=1e-12)

    @pytest.mark.parametrize("qubits", range(1, 11))
    def test_inverse_round_trip(self, qubits):
        rng = np.random.default_rng(qubits)
        state = random_state(rng, RegisterLayout.of(X=qubits))
        back = gate(gate(state, "qft", reg="X"), "inverse-qft", reg="X")
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("qubits", range(1, 7))
    @pytest.mark.parametrize("inverse", [False, True])
    def test_against_brute_force_reference(self, qubits, inverse):
        rng = np.random.default_rng(10 + qubits)
        state = random_state(rng, RegisterLayout.of(X=qubits))
        expected = brute_force_fourier(state.amplitudes, inverse)
        for got in (dense_qft(state, "X", inverse), gate(state, "inverse-qft" if inverse else "qft", reg="X")):
            assert np.abs(got.amplitudes - expected).max() < 1e-10

    def test_fast_agrees_with_dense_on_register_slice(self):
        rng = np.random.default_rng(2)
        layout = RegisterLayout.of(K=2, X=3, F=2)
        state = random_state(rng, layout)
        dense = dense_qft(state, "X")
        fast = gate(state, "qft", reg="X")
        assert np.abs(dense.amplitudes - fast.amplitudes).max() < 1e-10

    def test_middle_register_matches_kron_reference(self):
        # transform X of |k> (x) psi (x) |f| and compare against the
        # reference DFT glued in by hand
        rng = np.random.default_rng(4)
        layout = RegisterLayout.of(K=2, X=2, F=1)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        k_part = np.zeros(4)
        k_part[3] = 1.0
        f_part = np.zeros(2)
        f_part[1] = 1.0
        state = PureState(layout, np.kron(np.kron(k_part, psi), f_part))
        expected = np.kron(np.kron(k_part, brute_force_fourier(psi)), f_part)
        got = gate(state, "qft", reg="X")
        assert np.abs(got.amplitudes - expected).max() < 1e-10

    def test_comb_of_period_two_concentrates_on_two_outcomes(self):
        # uniform over {0,2,4,6} on 3 qubits: the brute-force transform puts
        # all weight on {0,4}, 1/2 each
        amps = np.zeros(8)
        amps[[0, 2, 4, 6]] = 0.5
        expected = np.abs(brute_force_fourier(amps)) ** 2
        state = gate(PureState(RegisterLayout.of(X=3), amps), "qft", reg="X")
        probs = outcome_distribution(state, "X").probabilities
        assert np.abs(probs - expected).max() < 1e-12
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[4] == pytest.approx(0.5, abs=1e-12)
        assert probs[[1, 2, 3, 5, 6, 7]].max() < 1e-12

    def test_comb_of_period_four_spreads_to_even_outcomes(self):
        # uniform over {0,4} on 3 qubits: support on multiples of 2, 1/4 each
        amps = np.zeros(8)
        amps[[0, 4]] = 1 / math.sqrt(2)
        state = gate(PureState(RegisterLayout.of(X=3), amps), "qft", reg="X")
        probs = outcome_distribution(state, "X").probabilities
        assert np.allclose(probs[[0, 2, 4, 6]], 0.25, atol=1e-12)
        assert probs[[1, 3, 5, 7]].max() < 1e-12


class TestXorOracle:
    def test_zero_function_is_identity(self):
        rng = np.random.default_rng(1)
        layout = RegisterLayout.of(X=2, F=2)
        state = random_state(rng, layout)
        zero = FunctionTable(2, 2, (0, 0, 0, 0))
        out = gate(state, "oracle-xor", in_reg="X", out_reg="F", table=zero)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_loads_function_values_in_superposition(self):
        layout = RegisterLayout.of(X=2, F=2)
        f = FunctionTable.from_callable(lambda x: (x + 1) % 4, 2, 2)
        state = gate(make_basis_state(layout, {}), "hadamard", reg="X")
        state = gate(state, "oracle-xor", in_reg="X", out_reg="F", table=f)
        for x in range(4):
            index = layout.encode({"X": x, "F": f(x)})
            assert state.amplitudes[index] == pytest.approx(0.5)
        assert np.count_nonzero(state.amplitudes) == 4

    def test_involution_is_exact(self):
        rng = np.random.default_rng(9)
        layout = RegisterLayout.of(X=3, F=2)
        state = random_state(rng, layout)
        oracle = GateOp("oracle-xor", in_reg="X", out_reg="F", table=FunctionTable.from_callable(lambda x: x % 4, 3, 2))
        again = apply_instruction(apply_instruction(state, oracle), oracle)
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_register_size_mismatch(self):
        oracle = GateOp("oracle-xor", in_reg="X", out_reg="F", table=FunctionTable(2, 2, (0, 1, 2, 3)))
        with pytest.raises(ShapeMismatchError):
            CircuitProgram(RegisterLayout.of(X=2, F=1), (oracle,))

    def test_output_register_may_be_more_significant(self):
        # layout order F then X: the oracle writes into the high bits
        layout = RegisterLayout.of(F=2, X=2)
        f = FunctionTable.from_callable(lambda x: (x + 1) % 4, 2, 2)
        state = gate(make_basis_state(layout, {}), "hadamard", reg="X")
        state = gate(state, "oracle-xor", in_reg="X", out_reg="F", table=f)
        for x in range(4):
            assert state.amplitudes[layout.encode({"X": x, "F": f(x)})] == pytest.approx(0.5)


class TestModedOracle:
    def test_matching_mode_flips_output(self):
        layout = RegisterLayout.of(K=2, X=2, F=1)
        f = ModedFunctionTable.equality_test(2)
        state = make_basis_state(layout, {"K": 2, "X": 2, "F": 0})
        out = gate(state, "oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=f)
        assert out.amplitudes[layout.encode({"K": 2, "X": 2, "F": 1})] == 1.0

    def test_mismatched_mode_leaves_output(self):
        layout = RegisterLayout.of(K=2, X=2, F=1)
        f = ModedFunctionTable.equality_test(2)
        state = make_basis_state(layout, {"K": 2, "X": 1, "F": 0})
        out = gate(state, "oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=f)
        assert out.amplitudes[layout.encode({"K": 2, "X": 1, "F": 0})] == 1.0

    def test_phase_kickback_on_minus_state(self):
        # |y> = (|0>-|1>)/sqrt(2): expanding the XOR over both branches
        # leaves the output register alone and multiplies by (-1)^{F(k,x)}
        layout = RegisterLayout.of(K=2, X=2, F=1)
        f = ModedFunctionTable.equality_test(2)
        minus = np.zeros(layout.dimension, dtype=complex)
        k, x = 3, 3
        minus[layout.encode({"K": k, "X": x, "F": 0})] = 1 / math.sqrt(2)
        minus[layout.encode({"K": k, "X": x, "F": 1})] = -1 / math.sqrt(2)
        state = PureState(layout, minus)
        out = gate(state, "oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=f)
        assert np.allclose(out.amplitudes, -minus)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(11)
        layout = RegisterLayout.of(X=2, K=2, F=1)
        state = random_state(rng, layout)
        f = ModedFunctionTable.equality_test(2)
        oracle = GateOp("oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=f)
        again = apply_instruction(apply_instruction(state, oracle), oracle)
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_distinct_registers_required(self):
        f = ModedFunctionTable.equality_test(2)
        oracle = GateOp("oracle-moded", mode_reg="K", in_reg="K", out_reg="F", table=f)
        with pytest.raises(ShapeMismatchError):
            CircuitProgram(RegisterLayout.of(K=2, X=2, F=1), (oracle,))

    def test_table_of_the_wrong_width(self):
        f = ModedFunctionTable.equality_test(1)  # one-qubit mode and input, for two-qubit registers
        oracle = GateOp("oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=f)
        with pytest.raises(ShapeMismatchError):
            CircuitProgram(RegisterLayout.of(K=2, X=2, F=1), (oracle,))


class TestGroverIteration:
    def test_single_iteration_exact_for_four_values(self):
        layout = RegisterLayout.of(X=2, F=1)
        f = FunctionTable(2, 1, (1, 0, 0, 0))  # marked value 0
        state = gate(make_basis_state(layout, {"F": 1}), "hadamard", reg="F")
        state = gate(state, "hadamard", reg="X")
        state = gate(state, "oracle-xor", in_reg="X", out_reg="F", table=f)
        state = gate(state, "grover-diffusion", reg="X")
        probs = outcome_distribution(state, "X").probabilities
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_function_reduces_to_diffusion_fixing_uniform(self):
        layout = RegisterLayout.of(X=3, F=1)
        zero = FunctionTable(3, 1, (0,) * 8)
        state = gate(make_basis_state(layout, {"F": 1}), "hadamard", reg="F")
        state = gate(state, "hadamard", reg="X")
        after = gate(gate(state, "oracle-xor", in_reg="X", out_reg="F", table=zero), "grover-diffusion", reg="X")
        assert np.abs(after.amplitudes - state.amplitudes).max() < 1e-10

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(17)
        layout = RegisterLayout.of(X=3, F=1)
        f = FunctionTable(3, 1, tuple(1 if x == 5 else 0 for x in range(8)))
        for _ in range(10):
            state = gate(random_state(rng, layout), "oracle-xor", in_reg="X", out_reg="F", table=f)
            assert abs(gate(state, "grover-diffusion", reg="X").norm() - 1.0) < 1e-12


class TestUnitarity:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_operation_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        layout = RegisterLayout.of(K=2, X=3, F=1)
        f = FunctionTable.from_callable(lambda x: x % 2, 3, 1)
        moded = ModedFunctionTable(2, 3, 1, tuple((k + x) % 2 for k in range(4) for x in range(8)))
        state = random_state(rng, layout)
        for op in (
            lambda s: gate(s, "hadamard", reg="X"),
            lambda s: gate(s, "qft", reg="K"),
            lambda s: gate(s, "inverse-qft", reg="X"),
            lambda s: gate(s, "oracle-xor", in_reg="X", out_reg="F", table=f),
            lambda s: gate(s, "oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=moded),
            lambda s: gate(s, "grover-diffusion", reg="X"),
        ):
            assert abs(op(state).norm() - 1.0) < 1e-12


class TestStackedStates:
    """A work buffer may hold several states of a layout back to back; each
    in-place kernel then gives every state bit for bit what it gives that
    state alone."""

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_kernel_acts_on_every_state_alone(self, rows, seed):
        from qdesk import gates

        rng = np.random.default_rng(seed)
        layout = RegisterLayout.of(M=1, X=2, K=1, F=2)
        xor = FunctionTable(2, 2, tuple(int(v) for v in rng.integers(0, 4, size=4)))
        moded = ModedFunctionTable(1, 2, 2, tuple(int(v) for v in rng.integers(0, 4, size=8)))
        kernels = [
            (gates.hadamard_all_in_place, ("X",)),
            (gates.qft_in_place, ("F",)),
            (gates.qft_in_place, ("X", True)),
            (grover_diffusion_in_place, ("X",)),
            (grover_diffusion_in_place, ("F",)),
            (gates.oracle_xor_in_place, (xor, "X", "F")),  # two registers apart
            (gates.oracle_xor_in_place, (xor, "F", "X")),
            (gates.oracle_moded_in_place, (moded, "M", "X", "F")),
        ]
        for kernel, args in kernels:
            parts = rng.normal(size=(rows, layout.dimension, 2))
            stacked = (parts[..., 0] + 1j * parts[..., 1]).reshape(-1)
            alone = [row.copy() for row in stacked.reshape(rows, -1)]
            kernel(stacked, layout, *args)
            for row, expected in zip(stacked.reshape(rows, -1), alone):
                kernel(expected, layout, *args)
                assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))
