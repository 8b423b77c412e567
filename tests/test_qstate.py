import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    DegenerateStateError,
    Dephase,
    FunctionTable,
    ProjectionOperator,
    PureState,
    RegisterLayout,
    ShapeMismatchError,
    UnknownRegisterError,
    compare_up_to_global_phase,
    make_basis_state,
    normalize,
    project,
    run,
)
from qdesk.qstate import MAX_QUBITS
from test_register_axis import gate


def random_state(rng, layout):
    parts = rng.normal(size=(layout.dimension, 2))
    return normalize(PureState(layout, parts[:, 0] + 1j * parts[:, 1]))


class TestRegisterLayout:
    def test_totals_and_dims(self):
        layout = RegisterLayout.of(K=2, X=2, F=1)
        assert layout.total_qubits == 5
        assert layout.dimension == 32
        assert layout.dim("X") == 4

    def test_offsets_are_contiguous_msb_first(self):
        layout = RegisterLayout.of(K=2, X=2, F=1)
        assert layout.offset("F") == 0
        assert layout.offset("X") == 1
        assert layout.offset("K") == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ShapeMismatchError):
            RegisterLayout((("X", 2), ("X", 1)))

    def test_layouts_stop_at_the_qubit_ceiling(self):
        assert RegisterLayout.of(X=10, F=MAX_QUBITS - 10).total_qubits == MAX_QUBITS
        with pytest.raises(ShapeMismatchError, match="ceiling"):
            RegisterLayout.of(X=10, F=MAX_QUBITS - 9)
        with pytest.raises(ShapeMismatchError, match="ceiling"):
            RegisterLayout.of(X=1 << 40)

    def test_zero_width_register_rejected(self):
        with pytest.raises(ShapeMismatchError):
            RegisterLayout.of(X=0)

    def test_unknown_register(self):
        layout = RegisterLayout.of(X=2)
        with pytest.raises(UnknownRegisterError):
            layout.offset("Y")
        with pytest.raises(UnknownRegisterError):
            layout.qubits("Y")

    @pytest.mark.parametrize("sizes", [(3,), (1, 4), (2, 1, 3), (5, 2, 1, 4)])
    def test_lookups_match_the_register_list(self, sizes):
        layout = RegisterLayout(tuple((f"R{i}", q) for i, q in enumerate(sizes)))
        assert layout.total_qubits == sum(sizes)
        for i, (name, q) in enumerate(layout.registers):
            assert layout.qubits(name) == q
            assert layout.offset(name) == sum(sizes[i + 1 :])

    def test_equality_and_hash_see_only_the_registers(self):
        a, b = RegisterLayout.of(X=2, F=1), RegisterLayout((("X", 2), ("F", 1)))
        assert a == b and hash(a) == hash(b)
        assert a != RegisterLayout.of(F=1, X=2)
        assert repr(a) == "RegisterLayout(registers=(('X', 2), ('F', 1)))"

    @pytest.mark.parametrize(
        "sizes",
        [{"X": 2}, {"X": 2, "F": 2}, {"K": 2, "X": 5, "F": 5}, {"A": 1, "B": 3, "C": 2, "D": 6}],
    )
    def test_encode_decode_round_trip_exhaustive(self, sizes):
        # all indices for layouts up to 12 qubits
        layout = RegisterLayout.of(**sizes)
        assert layout.total_qubits <= 12
        for index in range(layout.dimension):
            assert layout.encode(layout.decode(index)) == index

    def test_json_round_trip(self):
        layout = RegisterLayout.of(K=2, X=2, F=1)
        assert RegisterLayout.from_json(layout.to_json()) == layout


class TestMakeBasisState:
    def test_zero_assignment(self):
        state = make_basis_state(RegisterLayout.of(X=2, F=2), {"X": 0, "F": 0})
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_direct_encoding(self):
        state = make_basis_state(RegisterLayout.of(X=2), {"X": 3})
        assert state.amplitudes[3] == 1.0

    def test_three_register_index(self):
        # independent recomputation from the documented convention:
        # K=10, X=00, F=0 concatenated MSB-first
        expected = int("10" + "00" + "0", 2)
        state = make_basis_state(RegisterLayout.of(K=2, X=2, F=1), {"K": 2, "X": 0, "F": 0})
        assert expected == 16
        assert state.amplitudes[expected] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            make_basis_state(RegisterLayout.of(X=2), {"X": 4})

    def test_unknown_register(self):
        with pytest.raises(UnknownRegisterError):
            make_basis_state(RegisterLayout.of(X=2), {"Y": 0})


class TestNormalize:
    def test_scaling(self):
        layout = RegisterLayout.of(X=2)
        state = normalize(PureState(layout, [2, 0, 0, 0]))
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    def test_uniform_two_term(self):
        layout = RegisterLayout.of(X=2)
        state = normalize(PureState(layout, [1, 1, 0, 0]))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 4), (4, 8)])
    def test_periodic_comb_normalization(self, n, r):
        # k(|0> + |r> + |2r> + ...): enumerate the terms to get k = 1/sqrt(N/r)
        size = 1 << n
        support = [x for x in range(size) if x % r == 0]
        amps = np.zeros(size)
        amps[support] = 1.0
        state = normalize(PureState(RegisterLayout.of(X=n), amps))
        expected = 1.0 / math.sqrt(len(support))
        assert len(support) == size // r
        assert np.allclose(state.amplitudes[support], expected, atol=1e-12)
        assert abs(state.norm() - 1.0) < 1e-12

    def test_zero_vector_is_degenerate(self):
        with pytest.raises(DegenerateStateError):
            normalize(PureState(RegisterLayout.of(X=1), [0, 0]))

    def test_exactly_idempotent(self):
        rng = np.random.default_rng(42)
        layout = RegisterLayout.of(X=3, F=2)
        for _ in range(25):
            once = normalize(random_state(rng, layout))
            twice = normalize(once)
            assert np.array_equal(once.amplitudes, twice.amplitudes)


class TestCompareUpToGlobalPhase:
    def test_identity(self):
        layout = RegisterLayout.of(X=2)
        a = make_basis_state(layout, {"X": 1})
        assert compare_up_to_global_phase(a, a).value == 0.0

    @pytest.mark.parametrize("theta", [0.1, math.pi / 3, math.pi, 5.0])
    def test_global_phase_invariance(self, theta):
        rng = np.random.default_rng(7)
        layout = RegisterLayout.of(X=3)
        a = random_state(rng, layout)
        b = a.with_amplitudes(np.exp(1j * theta) * a.amplitudes)
        assert compare_up_to_global_phase(a, b).value < 1e-12

    def test_orthogonal_states(self):
        layout = RegisterLayout.of(X=1)
        zero = make_basis_state(layout, {"X": 0})
        one = make_basis_state(layout, {"X": 1})
        assert abs(compare_up_to_global_phase(zero, one).value - 1.0) < 1e-15

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        layout = RegisterLayout.of(X=3)
        a, b = random_state(rng, layout), random_state(rng, layout)
        assert compare_up_to_global_phase(a, b).value == pytest.approx(
            compare_up_to_global_phase(b, a).value, abs=1e-15
        )

    def test_triangle_sanity_on_orthonormal_triple(self):
        layout = RegisterLayout.of(X=2)
        basis = [make_basis_state(layout, {"X": v}) for v in range(3)]
        d = lambda a, b: compare_up_to_global_phase(a, b).value
        assert d(basis[0], basis[2]) <= d(basis[0], basis[1]) + d(basis[1], basis[2]) + 1e-12

    def test_layout_mismatch(self):
        a = make_basis_state(RegisterLayout.of(X=2), {})
        b = make_basis_state(RegisterLayout.of(Y=2), {})
        with pytest.raises(ShapeMismatchError):
            compare_up_to_global_phase(a, b)


class TestPureState:
    def test_amplitudes_are_immutable(self):
        state = make_basis_state(RegisterLayout.of(X=2), {"X": 1})
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            PureState(RegisterLayout.of(X=2), [1, 0])

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, RegisterLayout.of(X=2, F=1))
        back = PureState.from_json(state.to_json())
        assert back.layout == state.layout
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_json_text_equals_the_per_element_route(self, data):
        # signed zeros, subnormals and the extremes beside arbitrary finite floats
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308])
        floats = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        layout = RegisterLayout.of(X=data.draw(st.integers(1, 4)), F=data.draw(st.integers(1, 2)))
        parts = data.draw(st.lists(floats, min_size=2 * layout.dimension, max_size=2 * layout.dimension))
        state = PureState(layout, np.array(parts).view(np.complex128))
        per_element = {
            "layout": layout.to_json(),
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        }
        text = json.dumps(state.to_json())
        assert text == json.dumps(per_element)
        back = PureState.from_json(json.loads(text))
        assert back.layout == layout
        assert np.array_equal(back.amplitudes.view(np.uint64), state.amplitudes.view(np.uint64))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_json_leaves_the_garbage_collector_as_it_found_it(self, enabled):
        state = random_state(np.random.default_rng(5), RegisterLayout.of(X=3, F=2))
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            doc = state.to_json()
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert len(doc["amplitudes"]) == 32

    @pytest.mark.parametrize(
        "layout",
        [[["X", 2]], {"registers": [["X", 2.5]]}, {"registers": [["X", 30]]}, {"registers": [["X", 1], ["X", 1]]}, {}],
    )
    def test_a_bad_layout_in_a_state_document_is_a_shape_mismatch(self, layout):
        doc = make_basis_state(RegisterLayout.of(X=1), {}).to_json()
        with pytest.raises(ShapeMismatchError):
            PureState.from_json({**doc, "layout": layout})

    def test_json_amplitudes_must_be_pairs(self):
        doc = make_basis_state(RegisterLayout.of(X=1), {}).to_json()
        with pytest.raises(ShapeMismatchError):
            PureState.from_json({**doc, "amplitudes": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]})
        with pytest.raises(ShapeMismatchError):
            PureState.from_json({**doc, "amplitudes": [[1.0, 0.0]]})

    def test_caller_array_is_copied(self):
        layout = RegisterLayout.of(X=2)
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
        state = PureState(layout, amps)
        derived = state.with_amplitudes(amps)
        amps[0] = 5.0
        assert state.amplitudes[0] == 1.0 and derived.amplitudes[0] == 1.0
        assert not np.shares_memory(state.amplitudes, amps)
        assert not np.shares_memory(derived.amplitudes, amps)

    def test_kernel_outputs_are_frozen_and_fresh(self):
        layout = RegisterLayout.of(X=2, F=2)
        state = random_state(np.random.default_rng(2), layout)
        table = FunctionTable(2, 2, (1, 2, 3, 0))
        dephased = run(CircuitProgram(layout, (Dephase("F"),)), np.random.default_rng(0), initial=state)
        outputs = [
            gate(state, "hadamard", reg="X"),
            gate(state, "qft", reg="F"),
            gate(state, "oracle-xor", in_reg="X", out_reg="F", table=table),
            gate(state, "grover-diffusion", reg="X"),
            project(state, ProjectionOperator("F", 1)),
            dephased.final_state,
        ]
        for out in outputs:
            assert not out.amplitudes.flags.writeable
            assert out.amplitudes.dtype == np.complex128 and out.amplitudes.shape == (16,)
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
            with pytest.raises(ValueError):
                out.amplitudes[0] = 1.0

    def test_adopted_buffer_must_fit_the_layout(self):
        layout = RegisterLayout.of(X=2)
        with pytest.raises(ShapeMismatchError):
            PureState._adopt(layout, np.zeros(8, dtype=np.complex128))
        with pytest.raises(ShapeMismatchError):
            PureState._adopt(layout, np.zeros(4))
