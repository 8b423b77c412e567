"""Runnable invariant suites behind the CLI ``--selftest`` flag.

Each suite re-checks its module's contracts from scratch: unitarity,
projector algebra, Born statistics, discipline equivalence, and the exact
game and cost laws.  A suite returns its checks by name, so one can be run
alone; ``run_selftest`` reports one result per check, so a single failure
never hides the rest.  Which suites a subcommand's ``--selftest`` runs is
``cli.COMMANDS``' business; this module knows no subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit_ir, costmodel, gates, grover, measure, qstate, shor
from .errors import DegenerateStateError


Check = tuple[str, Callable[[], None]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_state(rng: np.random.Generator, layout: qstate.RegisterLayout) -> qstate.PureState:
    parts = rng.normal(size=(layout.dimension, 2))
    return qstate.normalize(qstate.PureState(layout, parts[:, 0] + 1j * parts[:, 1]))


def chi_square_sf_one_dof(stat: float) -> float:
    """Upper tail P(chi2_1 >= stat) in closed form: chi2_1 is a squared
    standard normal, so the tail is erfc(sqrt(stat / 2))."""
    return math.erfc(math.sqrt(stat / 2.0))


def _run_checks(checks: list[Check]) -> list[CheckResult]:
    results = []
    for name, fn in checks:
        try:
            fn()
            results.append(CheckResult(name, True))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def qstate_suite(rng: np.random.Generator) -> list[Check]:
    def roundtrip():
        layout = qstate.RegisterLayout.of(K=2, X=5, F=5)
        for index in range(layout.dimension):
            assert layout.encode(layout.decode(index)) == index

    def normalize_idempotent():
        layout = qstate.RegisterLayout.of(X=4)
        for _ in range(20):
            s = _random_state(rng, layout)
            once = qstate.normalize(s)
            twice = qstate.normalize(once)
            assert np.array_equal(once.amplitudes, twice.amplitudes)

    def comparison_cases():
        layout = qstate.RegisterLayout.of(X=2)
        a = qstate.make_basis_state(layout, {"X": 1})
        b = qstate.make_basis_state(layout, {"X": 2})
        assert qstate.compare_up_to_global_phase(a, a).value == 0.0
        rotated = a.with_amplitudes(np.exp(0.7j) * a.amplitudes)
        assert qstate.compare_up_to_global_phase(a, rotated).value < 1e-12
        assert abs(qstate.compare_up_to_global_phase(a, b).value - 1.0) < 1e-12

    return [
        ("index round trip, 12 qubits exhaustive", roundtrip),
        ("normalize is idempotent", normalize_idempotent),
        ("global-phase comparison zero/one cases", comparison_cases),
    ]


def fourier_matrix(qubits: int, inverse: bool = False) -> np.ndarray:
    """Dense transform matrix M[c, x] = exp(+-2*pi*i*c*x/D) / sqrt(D), the
    oracle the Fourier transform's FFT route is checked against."""
    d = 1 << qubits
    sign = -1.0 if inverse else 1.0
    grid = np.outer(np.arange(d), np.arange(d))
    return np.exp(sign * 2j * np.pi * grid / d) / math.sqrt(d)


def gates_suite(rng: np.random.Generator) -> list[Check]:
    layout = qstate.RegisterLayout.of(X=3, F=3)
    table = gates.FunctionTable.from_callable(lambda x: (3 * x + 1) % 8, 3, 3)
    apply, gate = circuit_ir.apply_instruction, circuit_ir.GateOp
    xor = gate("oracle-xor", in_reg="X", out_reg="F", table=table)

    def unitarity():
        ops = (
            gate("hadamard", reg="X"),
            gate("qft", reg="X"),
            gate("inverse-qft", reg="F"),
            xor,
            gate("grover-diffusion", reg="X"),
        )
        for _ in range(10):
            s = _random_state(rng, layout)
            for op in ops:
                assert abs(apply(s, op).norm() - 1.0) < 1e-12

    def involutions():
        s = _random_state(rng, layout)
        twice = apply(apply(s, xor), xor)
        assert np.array_equal(twice.amplitudes, s.amplitudes)
        equality = gates.ModedFunctionTable.equality_test(2)
        moded = gate("oracle-moded", mode_reg="K", in_reg="X", out_reg="F", table=equality)
        t = _random_state(rng, qstate.RegisterLayout.of(K=2, X=2, F=1))
        again = apply(apply(t, moded), moded)
        assert np.array_equal(again.amplitudes, t.amplitudes)

    def fourier_inverse():
        for q in range(1, 11):
            s = _random_state(rng, qstate.RegisterLayout.of(X=q))
            fast = apply(s, gate("qft", reg="X"))
            roundtrip = apply(fast, gate("inverse-qft", reg="X"))
            assert np.abs(roundtrip.amplitudes - s.amplitudes).max() < 1e-10
            assert np.abs(fast.amplitudes - fourier_matrix(q) @ s.amplitudes).max() < 1e-10

    def hadamard_is_single_qubit_fourier():
        s = _random_state(rng, qstate.RegisterLayout.of(X=1))
        hadamard, fourier = apply(s, gate("hadamard", reg="X")), apply(s, gate("qft", reg="X"))
        assert np.abs(hadamard.amplitudes - fourier.amplitudes).max() < 1e-15

    return [
        ("all gates preserve the 2-norm within 1e-12", unitarity),
        ("xor oracles are exact involutions", involutions),
        ("fourier then inverse is identity; fast path agrees with dense", fourier_inverse),
        ("hadamard equals the 1-qubit fourier transform", hadamard_is_single_qubit_fourier),
    ]


def measure_suite(rng: np.random.Generator) -> list[Check]:
    def projector_algebra():
        inst = shor.build_periodic(2, 2)
        state = shor.state_after_oracle(inst)
        p = measure.ProjectionOperator("F", 0)
        once = circuit_ir.project(state, p)
        twice = circuit_ir.project(once, p)
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-12
        try:
            circuit_ir.project(once, measure.ProjectionOperator("F", 1))
            raise AssertionError("distinct-outcome projection should annihilate")
        except DegenerateStateError:
            pass

    def f_ensemble(state, keep):
        """sum_v p(F = v) * the reduction of the state projected on F = v"""
        f_dist = measure.outcome_distribution(state, "F")
        posts = {v: circuit_ir.project(state, measure.ProjectionOperator("F", v)) for v in f_dist.support}
        return sum(f_dist.probabilities[v] * measure.partial_trace(p, keep).matrix for v, p in posts.items())

    def ensemble_average():
        state = shor.state_after_oracle(shor.build_periodic(3, 4))
        prior = measure.partial_trace(state, ["X"])
        assert np.abs(f_ensemble(state, ["X"]) - prior.matrix).max() < 1e-10

    def born_chi_square():
        inst = shor.build_periodic(2, 2)
        state = shor.state_after_oracle(inst)
        dist = measure.outcome_distribution(state, "F")
        samples = 10_000
        counts = np.zeros(len(dist.probabilities))
        for _ in range(samples):
            counts[measure.born_sample(dist, rng)] += 1
        keep = dist.probabilities > 0
        assert keep.sum() == 2, "the closed-form p-value assumes one degree of freedom"
        expected = samples * dist.probabilities[keep]
        pvalue = chi_square_sf_one_dof(float(((counts[keep] - expected) ** 2 / expected).sum()))
        assert pvalue > 1e-3, f"chi-square p-value {pvalue}"

    def filtration_support():
        for n in range(1, 7):
            for r in shor.divisors(1 << n):
                inst = shor.build_periodic(n, r)
                state = shor.state_after_oracle(inst)
                f_dist = measure.outcome_distribution(state, "F")
                for v in f_dist.support:
                    post = circuit_ir.project(state, measure.ProjectionOperator("F", v))
                    x_probs = measure.outcome_distribution(post, "X").probabilities
                    expected = {x for x in range(inst.dimension) if inst.table(x) == v}
                    got = {x for x in range(inst.dimension) if x_probs[x] > 1e-12}
                    assert got == expected
                    assert np.abs(x_probs[sorted(got)] - 1.0 / len(got)).max() < 1e-10

    def analytic_average():
        # keeping F, the closed form must match the F-projection ensemble,
        # which never forms the phased picture; at n = 5 that ensemble is
        # some sixty 1024 x 1024 density matrices, seconds of work, so it
        # runs to n = 4
        for n in range(1, 6):
            for r in shor.divisors(1 << n):
                state = shor.state_after_oracle(shor.build_periodic(n, r))
                mixture = measure.PhasedMixture(state, "F")
                averaged = measure.analytic_average_density(mixture, keep=["X"])
                assert averaged.frobenius_distance(measure.partial_trace(state, ["X"])) < 1e-10
                if n <= 4:
                    averaged = measure.analytic_average_density(mixture, keep=["X", "F"])
                    assert averaged.frobenius_distance(f_ensemble(state, ["X", "F"])) < 1e-10

    return [
        ("projectors idempotent and mutually annihilating", projector_algebra),
        ("outcome-weighted post densities reproduce the prior reduction", ensemble_average),
        ("born sampling passes chi-square at 1e-3 with 1e4 samples", born_chi_square),
        ("post-measurement support is exactly the matching preimage", filtration_support),
        ("closed-form phase average equals the trace and F-projection ensemble", analytic_average),
    ]


def circuit_suite(rng: np.random.Generator) -> list[Check]:
    def deferral_soundness():
        for n in range(1, 6):
            for r in (1, 2, 1 << n):
                inst = shor.build_periodic(n, r)
                early = shor.period_circuit(inst, "measure-F-at-t2")
                deferred = circuit_ir.defer_measurements(early)
                tv = circuit_ir.equivalent_distributions(early, deferred, ["X", "F"])
                assert tv.value < 1e-10

    def random_program_deferral():
        for trial in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            layout = qstate.RegisterLayout.of(X=n, F=m)
            table = gates.FunctionTable(
                n, m, tuple(int(v) for v in rng.integers(0, 1 << m, size=1 << n))
            )
            program = circuit_ir.CircuitProgram(
                layout,
                (
                    circuit_ir.Prepare("X", int(rng.integers(0, 1 << n))),
                    circuit_ir.GateOp("hadamard", reg="X"),
                    circuit_ir.GateOp("oracle-xor", in_reg="X", out_reg="F", table=table),
                    circuit_ir.Measure("F"),
                    circuit_ir.GateOp("qft" if trial % 2 else "grover-diffusion", reg="X"),
                    circuit_ir.Measure("X"),
                ),
            )
            tv = circuit_ir.equivalent_distributions(
                program, circuit_ir.defer_measurements(program), ["X", "F"]
            )
            assert tv.value < 1e-10

    def backdating_soundness():
        for n in range(1, 6):
            for r in shor.divisors(1 << n):
                inst = shor.build_periodic(n, r)
                skip = shor.period_circuit(inst, "skip-F")
                t2 = shor.state_after_oracle(inst)
                f_dist = measure.outcome_distribution(t2, "F")
                for v in f_dist.support:
                    backdated = circuit_ir.backdate_outcome(skip, ("F", v))
                    direct = circuit_ir.project(t2, measure.ProjectionOperator("F", v))
                    assert qstate.compare_up_to_global_phase(backdated, direct).value < 1e-10

    def deterministic_replay():
        inst = shor.build_periodic(3, 4)
        program = shor.period_circuit(inst, "measure-F-at-t2")
        boundaries = {str(b): b for b in range(len(program.instructions) + 1)}
        program = circuit_ir.CircuitProgram(program.layout, program.instructions, boundaries)
        first = circuit_ir.run(program, np.random.default_rng(11))
        second = circuit_ir.run(program, np.random.default_rng(11))
        assert first.records == second.records
        for tag in boundaries:
            assert np.array_equal(first.state_at_tag(tag).amplitudes, second.state_at_tag(tag).amplitudes)

    return [
        ("deferring the early F measurement preserves joint statistics", deferral_soundness),
        ("deferral is sound on randomized programs", random_program_deferral),
        ("backdated outcomes equal direct early projection", backdating_soundness),
        ("fixed seed replays bit-identical traces", deterministic_replay),
    ]


def shor_suite(rng: np.random.Generator) -> list[Check]:
    def equivalence():
        for n in range(1, 7):
            for r in shor.divisors(1 << n):
                inst = shor.build_periodic(n, r)
                dists = [shor.exact_outcome_distribution(inst, d) for d in shor.DISCIPLINES]
                for other in dists[1:]:
                    assert np.array_equal(dists[0], other)

    def support_law():
        for n in range(1, 7):
            size = 1 << n
            for r in shor.divisors(size):
                inst = shor.build_periodic(n, r)
                probs = shor.exact_outcome_distribution(inst, "skip-F")
                expected = {j * (size // r) for j in range(r)}
                got = {c for c in range(size) if probs[c] > 1e-12}
                assert got == expected
                assert np.abs(probs[sorted(got)] - 1.0 / r).max() < 1e-10

    def success_law():
        for n in range(1, 7):
            size = 1 << n
            for r in shor.divisors(size):
                inst = shor.build_periodic(n, r)
                p = shor.single_run_success_probability(inst)
                if r == 1:
                    assert p == 0.0
                else:
                    phi = sum(1 for j in range(1, r + 1) if math.gcd(j, r) == 1)
                    assert abs(p - phi / r) < 1e-12

    return [
        ("all three disciplines share one exact [X] distribution", equivalence),
        ("[X] support is the multiples of N/r with weight 1/r", support_law),
        ("single-run success equals phi(r)/r (0 for r = 1)", success_law),
    ]


def grover_suite(rng: np.random.Generator) -> list[Check]:
    def exact_four_drawer_game():
        layout = grover.standard_layout(4)
        for k in range(4):
            pre = grover.standard_grover_state(grover.GameInstance(4, k))
            expected = np.zeros(layout.dimension, dtype=np.complex128)
            expected[layout.encode({"X": k, "F": 0})] = 1.0 / math.sqrt(2.0)
            expected[layout.encode({"X": k, "F": 1})] = -1.0 / math.sqrt(2.0)
            target = qstate.PureState(layout, expected)
            assert qstate.compare_up_to_global_phase(pre, target).value < 1e-10
            probs = measure.outcome_distribution(pre, "X").probabilities
            assert abs(probs[k] - 1.0) < 1e-12

    def joint_determination():
        for _ in range(100):
            phases = tuple(rng.uniform(0.0, 2.0 * math.pi, size=3))
            pre, _ = grover.run_extended_grover(4, rng, phases=phases)
            for first, second in (("K", "X"), ("X", "K")):
                joint = grover.sequential_joint_distribution(pre, first, second)
                assert set(joint) == {(k, k) for k in range(4)}
                assert max(abs(p - 0.25) for p in joint.values()) < 1e-10

    def kickback_register_intact():
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        for k in range(4):
            pre = grover.standard_grover_state(grover.GameInstance(4, k))
            rho = measure.partial_trace(pre, ["F"])
            assert np.abs(rho.matrix - minus).max() < 1e-10
        pre, _ = grover.run_extended_grover(4, rng)
        rho = measure.partial_trace(pre, ["F"])
        assert np.abs(rho.matrix - minus).max() < 1e-10

    def query_counts():
        for drawers in (4, 16, 64, 256):
            assert grover.classical_worst_case_queries(drawers, "joint") == math.isqrt(drawers)
            assert grover.classical_worst_case_queries(drawers, "unilateral") == drawers
            assert grover.iteration_count(drawers) == int(math.pi / 4 * math.sqrt(drawers))

    def mixture_check():
        assert grover.mixture_equivalence_check(4, "analytic").value < 1e-10
        corr = grover.mixture_equivalence_check(4, "analytic", correlated_phases=True)
        assert corr.value > 0.1

    return [
        ("4-drawer game lands exactly on the hidden drawer", exact_four_drawer_game),
        ("joint outcomes are diagonal-uniform in either order", joint_determination),
        ("kickback register factor survives the game", kickback_register_intact),
        ("query counts: sqrt(n) joint, n unilateral, floor(pi/4 sqrt(n)) quantum", query_counts),
        ("phase-averaged mode register equals the uniform mixture", mixture_check),
    ]


def cost_suite(rng: np.random.Generator) -> list[Check]:
    def exact_counts():
        for n in range(2, 11):
            inst = costmodel.stage_costs(shor.build_periodic(n, 2))
            by_stage = {row.stage: row for row in inst}
            assert by_stage["function-evaluation"].classical_units == 1 << n
            assert by_stage["filtration"].classical_units == 1 << n
            assert by_stage["filtration"].quantum_units == n
            assert by_stage["extraction"].quantum_units == n * (n + 1) // 2 + n

    def growth_classes():
        costmodel.stage_table(list(range(2, 11)))

    def ratio_increasing():
        rows = costmodel.stage_table(list(range(2, 11)))
        ratios = [
            row.classical_units / row.quantum_units for row in rows if row.stage == "filtration"
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def entanglement_independence():
        for n in range(2, 11):
            counts = set()
            for r in shor.divisors(1 << n):
                by_stage = {row.stage: row for row in costmodel.stage_costs(shor.build_periodic(n, r))}
                counts.add(by_stage["filtration"].quantum_units)
            assert len(counts) == 1

    return [
        ("stage counts match the declared model exactly", exact_counts),
        ("classical doubles per qubit, quantum stays under the quadratic cap", growth_classes),
        ("classical/quantum filtration ratio strictly increases", ratio_increasing),
        ("quantum filtration count ignores the period", entanglement_independence),
    ]


SUITES: dict[str, Callable[[np.random.Generator], list[Check]]] = {
    "qstate": qstate_suite,
    "gates": gates_suite,
    "measure": measure_suite,
    "circuit": circuit_suite,
    "shor": shor_suite,
    "grover": grover_suite,
    "cost": cost_suite,
}


def run_selftest(suite_names: tuple[str, ...], seed: int) -> tuple[bool, list[str]]:
    """Run the named suites; returns overall pass and printable lines."""
    lines: list[str] = []
    all_ok = True
    for name in suite_names:
        rng = np.random.default_rng(seed)
        for result in _run_checks(SUITES[name](rng)):
            status = "PASS" if result.passed else "FAIL"
            suffix = f" ({result.detail})" if result.detail else ""
            lines.append(f"{status} [{name}] {result.name}{suffix}")
            all_ok &= result.passed
    return all_ok, lines
