"""The branch walker behind ``circuit_ir.sample``, ``run`` and
``enumerate_outcome_distribution``, checked against the routes it replaced.

The references kept here are the per-trial loop that ran a program's tail
from the t2 state once per trial, the projection walk that carried a
renormalised full state down every branch to the end of the program, and
the phased routes that dephased each trial's own state before drawing from
it: on annihilate-F, and on any program.  Trials drawn as arrays are
checked against repeated ``run`` calls and the walk's own per-trial route.
"""

import contextlib
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdesk import (
    CircuitProgram,
    Dephase,
    FunctionTable,
    GateOp,
    Measure,
    PhasedMixture,
    Prepare,
    PureState,
    RegisterLayout,
    build_periodic,
    defer_measurements,
    equivalent_distributions,
    extract_period,
    gates,
    outcome_distribution,
    period_circuit,
    run,
    sample_phases,
    state_after_oracle,
)
from qdesk import circuit_ir
from qdesk.circuit_ir import apply_instruction, enumerate_outcome_distribution, sample, unitary_prefix
from qdesk.cli import main
from qdesk.shor import DISCIPLINES, sample_trials, success_count
from test_families import born_project
from test_register_axis import gate
from test_shor import trial_records

SEEDS = st.integers(0, 2**32 - 1)
PERIODS = st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n)))


def renormalised_project(state, reg, outcome):
    """``born_project`` divided by its norm: the projected state the
    references below carry."""
    post = born_project(state, reg, outcome)
    return post.with_amplitudes(post.amplitudes / np.linalg.norm(post.amplitudes))


def per_trial_runs(inst, discipline, trials, rng):
    """The replaced sampler: the discipline's tail (t2 through the X
    measurement) run from the t2 state, once per trial."""
    program = period_circuit(inst, discipline)
    t2, t4 = program.time_tags["t2"], program.time_tags["t4"]
    tail = CircuitProgram(inst.layout, program.instructions[t2 : t4 + 1])
    start = state_after_oracle(inst)
    return [run(tail, rng, initial=start).records for _ in range(trials)]


def through_x(inst, discipline):
    """The discipline's program up to its X measurement, as ``sample_trials`` samples it."""
    program = period_circuit(inst, discipline)
    return CircuitProgram(inst.layout, program.instructions[: program.time_tags["t4"] + 1])


def successes(inst, records):
    """How many trials' X records give the instance's period."""
    xs = [r.outcome for trial in records for r in trial if r.register == "X"]
    return sum(extract_period(x, inst.table) == inst.period for x in xs)


def projection_walk(program, observed, initial):
    """The replaced enumeration: every branch of every measurement and
    dephasing projected as a full state, down to the end of the program."""
    acc = {}
    stack = [(initial, 0, {}, 1.0)]
    while stack:
        state, pos, outcomes, weight = stack.pop()
        for i in range(pos, len(program.instructions)):
            instr = program.instructions[i]
            if isinstance(instr, (Measure, Dephase)):
                dist = outcome_distribution(state, instr.reg)
                for v in dist.support:
                    post = renormalised_project(state, instr.reg, v)
                    branch = dict(outcomes)
                    if isinstance(instr, Measure):
                        branch[instr.reg] = v
                    stack.append((post, i + 1, branch, weight * float(dist.probabilities[v])))
                break
            state = apply_instruction(state, instr)
        else:
            key = tuple(outcomes[reg] for reg in observed)
            acc[key] = acc.get(key, 0.0) + weight
    return acc


GATE_OPS = ("prepare", "hadamard", "qft", "inverse-qft", "grover-diffusion", "oracle")


def draw_gate(draw, layout, op, reg, free):
    """``op`` on ``reg`` as a list of at most one instruction: a prepare, an
    XOR oracle from ``reg`` into another of the ``free`` registers (none
    when there is no other), or a gate on ``reg`` alone."""
    if op == "prepare":
        return [Prepare(reg, draw(st.sampled_from(["uniform", 0, layout.dim(reg) - 1])))]
    if op == "oracle":
        others = [name for name in free if name != reg]
        if not others:
            return []
        out = draw(st.sampled_from(others))
        m, n = layout.qubits(out), layout.qubits(reg)
        table = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1 << n, max_size=1 << n))
        return [GateOp("oracle-xor", in_reg=reg, out_reg=out, table=FunctionTable(n, m, table))]
    return [GateOp(op, reg=reg)]


@st.composite
def random_states(draw, layout):
    """A random normalised state: every register's distribution has full support."""
    rng = np.random.default_rng(draw(SEEDS))
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    return PureState(layout, amps / np.linalg.norm(amps))


@st.composite
def random_programs(draw):
    """A random well-ordered program on 2-3 registers, from a random state.

    The body mixes gates, XOR oracles, dephasings and measurements; every
    register still unmeasured after it is measured at the end, in random
    order, and a random non-empty subset of the measured registers is
    observed.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    names = [f"R{i}" for i in range(len(sizes))]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    instrs, measured = [], []
    for _ in range(draw(st.integers(0, 7))):
        free = [name for name in names if name not in measured]
        op = draw(st.sampled_from(GATE_OPS + ("dephase", "measure")))
        reg = draw(st.sampled_from(free))
        if op == "dephase":
            instrs.append(Dephase(reg))
        elif op == "measure":
            instrs.append(Measure(reg))
            measured.append(reg)
            if len(measured) == len(names):
                break
        else:
            instrs += draw_gate(draw, layout, op, reg, free)
    rest = draw(st.permutations([name for name in names if name not in measured]))
    instrs += [Measure(name) for name in rest]
    observed = draw(st.lists(st.sampled_from(measured + list(rest)), min_size=1, unique=True))
    return CircuitProgram(layout, tuple(instrs)), tuple(observed), draw(random_states(layout))


@st.composite
def fixed_width_programs(draw):
    """A random program that ``sample`` draws as arrays, from a random state
    on 2-3 registers: gates, then one inert dephasing of each of some
    registers, then gates on the others, then every register's
    measurement, in random order.  From a random state each dephased
    register has full support, so its phases take 2-8 doubles per trial."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    names = [f"R{i}" for i in range(len(sizes))]
    layout = RegisterLayout(tuple(zip(names, sizes)))
    dephased = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    undephased = [name for name in names if name not in dephased]

    def gates_on(regs):
        instrs = []
        for _ in range(draw(st.integers(0, 4)) if regs else 0):
            instrs += draw_gate(draw, layout, draw(st.sampled_from(GATE_OPS)), draw(st.sampled_from(regs)), regs)
        return instrs

    instrs = gates_on(names) + [Dephase(name) for name in dephased] + gates_on(undephased)
    instrs += [Measure(name) for name in draw(st.permutations(names))]
    return CircuitProgram(layout, tuple(instrs)), draw(random_states(layout))


class TestSample:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 5),
        data=st.data(),
        discipline=st.sampled_from(DISCIPLINES),
        seed=SEEDS,
        trials=st.integers(0, 40),
    )
    def test_sample_trials_equal_the_per_trial_loop(self, n, data, discipline, seed, trials):
        inst = build_periodic(n, data.draw(st.integers(1, 1 << n)))
        sampled, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        registers, outcomes, probabilities = sample_trials(inst, discipline, trials, sampled)
        expected = per_trial_runs(inst, discipline, trials, looped)
        assert trial_records(registers, outcomes, probabilities) == [tuple(trial) for trial in expected]
        assert success_count(inst, outcomes[:, registers.index("X")]) == successes(inst, expected)
        assert sampled.bit_generator.state == looped.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(case=random_programs(), seed=SEEDS, trials=st.integers(1, 12))
    def test_sample_equals_repeated_runs(self, case, seed, trials):
        program, _, initial = case
        rng = np.random.default_rng(seed)
        expected = [run(program, rng, initial=initial).records for _ in range(trials)]
        sampled = np.random.default_rng(seed)
        assert sample(program, sampled, trials, initial=initial) == expected
        assert sampled.bit_generator.state == rng.bit_generator.state

    def test_a_program_with_no_measurement_samples_empty_records(self):
        # every trial draws nothing: no records, and the generator is untouched
        program = CircuitProgram(RegisterLayout.of(X=2), (Prepare("X", "uniform"), GateOp("qft", reg="X")))
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert sample(program, rng, 4) == [()] * 4 == [run(program, np.random.default_rng(5)).records for _ in range(4)]
        assert rng.bit_generator.state == before

    def test_zero_trials_apply_no_instruction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a state was computed")

        monkeypatch.setattr(circuit_ir, "_bound_kernel", refuse)
        assert sample(period_circuit(build_periodic(3, 3), "skip-F"), np.random.default_rng(0), 0) == []

    def test_nothing_after_the_last_draw_is_computed(self, monkeypatch):
        calls = []
        real = circuit_ir._gather
        monkeypatch.setattr(circuit_ir, "_gather", lambda *a: calls.append(a[1:]) or real(*a))
        # skip-F measures X, then F: F's distribution needs each drawn X
        # branch once, all of them gathered as one family, and the F
        # outcome is never projected
        records = sample(period_circuit(build_periodic(3, 3), "skip-F"), np.random.default_rng(1), 50)
        assert [len(r) for r in records] == [2] * 50
        assert calls == [("X", sorted({r[0].outcome for r in records}))]
        # annihilate-F through its X measurement: dephased, then drawn, never projected
        calls.clear()
        program = period_circuit(build_periodic(3, 3), "annihilate-F")
        cut = CircuitProgram(program.layout, program.instructions[: program.time_tags["t4"] + 1])
        assert len(sample(cut, np.random.default_rng(2), 20)) == 20
        assert calls == []


class CountingGenerator:
    """A generator that counts its method calls and the sizes asked of
    ``random``, and forwards everything to the one it wraps."""

    def __init__(self, rng):
        self.rng, self.calls, self.sizes = rng, Counter(), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            if name == "random":
                self.sizes.append(kwargs.get("size", args[0] if args else None))
            return method(*args, **kwargs)

        return counted if callable(method) else method


def generator_state(rng):
    """The bit generator's state, its arrays as lists, so that states compare."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


BIT_GENERATORS = st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.Philox])


class TestSampledArrays:
    """Programs whose trials all draw the same number of doubles are sampled
    as arrays: one block of uniforms, and one lookup per node and path."""

    @settings(max_examples=80, deadline=None)
    @given(case=fixed_width_programs(), bit_generator=BIT_GENERATORS, seed=SEEDS, trials=st.integers(0, 40))
    def test_sample_equals_repeated_runs_bit_for_bit(self, case, bit_generator, seed, trials):
        program, initial = case
        walk = circuit_ir._BranchWalk(program, initial)
        assert walk.fixed_width and walk.inert
        assert all(len(walk.distribution(i, ()).support) > 1 for i in walk.inert)
        rng = np.random.Generator(bit_generator(seed))
        expected = [run(program, rng, initial=initial).records for _ in range(trials)]
        sampled = np.random.Generator(bit_generator(seed))
        assert sample(program, sampled, trials, initial=initial) == expected
        assert generator_state(sampled) == generator_state(rng)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_one_random_call_per_block_and_no_uniform(self, discipline):
        program = period_circuit(build_periodic(5, 3), discipline)
        assert circuit_ir._BranchWalk(program, None).fixed_width
        rng = CountingGenerator(np.random.default_rng(4))
        records = sample(program, rng, 200)
        assert rng.calls == {"random": 1}
        assert records == sample(program, np.random.default_rng(4), 200)

    def test_blocks_stay_under_the_constant(self):
        # annihilate-F at n = 10, r = 512 draws 512 phases and one X per trial
        inst = build_periodic(10, 512)
        rng = CountingGenerator(np.random.default_rng(5))
        records = trial_records(*sample_trials(inst, "annihilate-F", 2000, rng))
        per_block = circuit_ir.SAMPLE_BLOCK_DOUBLES // 513
        assert rng.calls == {"random": -(-2000 // per_block)}
        assert max(rng.sizes) == per_block * 513 <= circuit_ir.SAMPLE_BLOCK_DOUBLES
        walk, looped = circuit_ir._BranchWalk(through_x(inst, "annihilate-F"), None), np.random.default_rng(5)
        assert records == [tuple(walk.trial(looped)[0]) for _ in range(2000)]
        assert rng.rng.bit_generator.state == looped.bit_generator.state

    def test_the_trials_add_well_under_one_block_of_all_of_them(self):
        # one block of all 2000 trials would be 2000 x 513 doubles, 8 MiB;
        # the walk's own 2^20-amplitude states are there for one trial too
        inst = build_periodic(10, 512)
        peaks = []
        for trials in (1, 2000):
            tracemalloc.start()
            try:
                sample_trials(inst, "annihilate-F", trials, np.random.default_rng(6))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20
        walk = circuit_ir._BranchWalk(through_x(inst, "annihilate-F"), None)
        walk.draws(np.random.default_rng(6), 1)
        tracemalloc.start()
        try:
            walk.draws(np.random.default_rng(6), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_a_sampled_report_runs_no_trial(self, monkeypatch, capsys, tmp_path, discipline):
        calls = []
        real = circuit_ir._BranchWalk.trial
        monkeypatch.setattr(circuit_ir._BranchWalk, "trial", lambda *a, **k: calls.append(1) or real(*a, **k))
        argv = ["shor", "--n", "5", "--r", "3", "--discipline", discipline, "--trials", "200", "--json"]
        assert main(argv) == 0
        assert main(argv + ["--records", str(tmp_path / "records.jsonl")]) == 0
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_one_distribution_per_distinct_path(self, monkeypatch, discipline):
        # the first measurement's and each dephasing's distribution is one
        # reduction of one state; the second measurement's, on every drawn
        # branch of the first, is one reduction of the family of those
        # branches, a row per path
        calls = []
        real = circuit_ir._marginals
        monkeypatch.setattr(circuit_ir, "_marginals", lambda *a: calls.append(len(a[2])) or real(*a))
        program = period_circuit(build_periodic(4, 5), discipline)
        records = sample(program, np.random.default_rng(7), 200)
        paths = {tuple(r.outcome for r in trial[:k]) for trial in records for k in range(len(trial))}
        dephasings = sum(isinstance(instr, Dephase) for instr in program.instructions)
        assert sum(calls) == len(paths) + dephasings
        assert len(calls) == 2 + dephasings


def count_qft_calls(monkeypatch, capsys, argv):
    """Fourier transforms a report runs, counted at the one QFT kernel that
    ``gates.qft`` and the branch walk's segments both call."""
    calls = []
    real = gates.qft_in_place

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(gates, "qft_in_place", counting)
    assert main(argv) == 0
    capsys.readouterr()
    return len(calls)


class TestSharedWork:
    def test_skip_f_report_makes_a_constant_number_of_qfts(self, monkeypatch, capsys):
        argv = ["shor", "--n", "5", "--r", "3", "--discipline", "skip-F", "--json", "--trials"]
        one = count_qft_calls(monkeypatch, capsys, argv + ["1"])
        many = count_qft_calls(monkeypatch, capsys, argv + ["200"])
        # one walk for the exact distribution and the trials, which
        # transforms F's rows once
        assert one == many == 1

    @pytest.mark.parametrize("r", [3, 4, 8, 13])
    def test_measure_f_report_makes_one_qft_per_f_branch(self, monkeypatch, capsys, r):
        argv = ["shor", "--n", "5", "--r", str(r), "--discipline", "measure-F-at-t2", "--trials", "200"]
        assert count_qft_calls(monkeypatch, capsys, argv + ["--json"]) <= r + 2

    def test_measure_f_at_the_ceiling_keeps_no_state_per_branch(self, capsys):
        # 100 trials reach up to 100 of the 512 F branches; one full state is 16 MiB
        argv = ["shor", "--n", "10", "--r", "512", "--discipline", "measure-F-at-t2", "--trials", "100"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 16 * 2**20

    def test_annihilate_trial_allocates_order_d(self):
        # n = 8, r = 128: one state is 1 MiB, and the 128 slot vectors of
        # the random-phase picture would be 128 MiB
        inst = build_periodic(8, 128)
        tracemalloc.start()
        try:
            sample_trials(inst, "annihilate-F", 1, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * inst.layout.dimension * 16


def phased_route_runs(inst, trials, rng):
    """The replaced annihilate-F sampler: each trial phases its own t2
    state over F, Fourier-transforms it, and draws X from its own [X]
    distribution with ``rng.choice``."""
    start = state_after_oracle(inst)
    mixture = PhasedMixture(start, "F")
    runs = []
    for _ in range(trials):
        probs = outcome_distribution(gate(sample_phases(mixture, rng), "qft", reg="X"), "X").probabilities
        clipped = np.clip(probs, 0.0, None)
        x = int(rng.choice(len(clipped), p=clipped / clipped.sum()))
        runs.append([("X", x, float(probs[x]))])
    return runs


@st.composite
def with_inert_dephase(draw):
    """A ``random_programs`` case with one more dephasing, placed anywhere
    after every other dephasing and after the last instruction other than
    a measurement that touches its register: an inert dephasing, which
    every register's final measurement makes a draw follow.  Its register
    is one measured after every other dephasing; the last one measured
    always is."""
    program, observed, initial = draw(random_programs())
    instrs = list(program.instructions)
    dephasings = [i for i, instr in enumerate(instrs) if isinstance(instr, Dephase)]
    after = max(dephasings, default=-1)
    names = [name for name in program.layout.names if instrs.index(Measure(name)) > after]
    reg = draw(st.sampled_from(names))
    slots = ("reg", "in_reg", "out_reg", "mode_reg")
    touches = [
        i
        for i, instr in enumerate(instrs)
        if not isinstance(instr, Measure) and reg in {getattr(instr, slot, None) for slot in slots}
    ]
    measured = instrs.index(Measure(reg))
    instrs.insert(draw(st.integers(max(touches + [after]) + 1, measured)), Dephase(reg))
    return CircuitProgram(program.layout, tuple(instrs)), observed, initial


@st.composite
def with_dephase_before_a_visible_one(draw):
    """A ``random_programs`` case whose final measurements are preceded by
    a dephasing of one register they measure, then a dephasing of another
    that a Hadamard then sees, then an inert dephasing of that other one.
    No later gate touches the first register, but a visible dephasing
    follows it."""
    program, observed, initial = draw(random_programs())
    instrs = list(program.instructions)
    tail = len(instrs)
    while tail > 0 and isinstance(instrs[tail - 1], Measure):
        tail -= 1
    unmeasured = [instr.reg for instr in instrs[tail:]]
    assume(len(unmeasured) >= 2)
    first, second = draw(st.permutations(unmeasured))[:2]
    steps = [Dephase(first), Dephase(second), GateOp("hadamard", reg=second), Dephase(second)]
    return CircuitProgram(program.layout, tuple(instrs[:tail] + steps + instrs[tail:])), observed, initial, tail


def own_state_trial(program, initial, rng):
    """The replaced trial on any program: it carries its own state, phases
    it at every dephasing in the random-phase picture, and draws every
    measurement from that state with ``rng.choice``."""
    state, records = initial, []
    for instr in program.instructions:
        if isinstance(instr, Dephase):
            state = sample_phases(PhasedMixture(state, instr.reg), rng)
        elif isinstance(instr, Measure):
            probs = outcome_distribution(state, instr.reg).probabilities
            clipped = np.clip(probs, 0.0, None)
            x = int(rng.choice(len(clipped), p=clipped / clipped.sum()))
            records.append((instr.reg, x, float(probs[x])))
            state = renormalised_project(state, instr.reg, x)
        else:
            state = apply_instruction(state, instr)
    return records


class TestInertDephase:
    @settings(max_examples=80, deadline=None)
    @given(case=with_inert_dephase(), seed=SEEDS, trials=st.integers(1, 12))
    def test_sample_equals_the_own_state_route(self, case, seed, trials):
        program, _, initial = case
        assert circuit_ir._BranchWalk(program, initial).inert
        got = sample(program, np.random.default_rng(seed), trials, initial=initial)
        rng = np.random.default_rng(seed)
        expected = [own_state_trial(program, initial, rng) for _ in range(trials)]
        assert [[(r.register, r.outcome) for r in trial] for trial in got] == [
            [(reg, x) for reg, x, _ in trial] for trial in expected
        ]
        for trial, reference in zip(got, expected):
            for record, (_, _, p) in zip(trial, reference):
                assert abs(record.probability - p) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=PERIODS, seed=SEEDS, trials=st.integers(1, 40))
    def test_sampled_annihilate_f_equals_the_phased_route(self, case, seed, trials):
        inst = build_periodic(*case)
        records = trial_records(*sample_trials(inst, "annihilate-F", trials, np.random.default_rng(seed)))
        expected = phased_route_runs(inst, trials, np.random.default_rng(seed))
        assert [[(r.register, r.outcome) for r in trial] for trial in records] == [
            [(reg, x) for reg, x, _ in run] for run in expected
        ]
        for trial, run in zip(records, expected):
            for record, (_, _, p) in zip(trial, run):
                assert record.probability == pytest.approx(p, rel=1e-14)

    def test_annihilate_f_report_makes_as_few_qfts_as_skip_f(self, monkeypatch, capsys):
        argv = ["shor", "--n", "5", "--r", "3", "--json", "--trials", "200", "--discipline"]
        # the trials share one QFT of the unphased state with the exact
        # distribution under either discipline
        annihilate = count_qft_calls(monkeypatch, capsys, argv + ["annihilate-F"])
        assert annihilate <= count_qft_calls(monkeypatch, capsys, argv + ["skip-F"]) == 1

    def test_annihilate_f_dump_state_makes_one_qft(self, monkeypatch, capsys, tmp_path):
        # the phased t4 state's, beside the exact distribution's; the X and
        # F draws after t4 are not made
        argv = ["shor", "--n", "5", "--r", "3", "--discipline", "annihilate-F", "--trials", "0", "--json"]
        assert count_qft_calls(monkeypatch, capsys, argv) == 1
        assert count_qft_calls(monkeypatch, capsys, argv + ["--dump-state", str(tmp_path / "state.json")]) == 2

    @settings(max_examples=80, deadline=None)
    @given(case=with_dephase_before_a_visible_one(), seed=SEEDS, trials=st.integers(1, 8))
    def test_a_dephasing_a_visible_one_follows_is_not_inert(self, case, seed, trials):
        # the trial carries one state from the first dephasing on, which the
        # last, inert one phases too, so sample and run draw from the same
        # state, bit for bit
        program, observed, initial, first = case
        assert circuit_ir._BranchWalk(program, initial).inert == {first + 3}
        rng = np.random.default_rng(seed)
        expected = [run(program, rng, initial=initial).records for _ in range(trials)]
        assert sample(program, np.random.default_rng(seed), trials, initial=initial) == expected
        got = enumerate_outcome_distribution(program, observed, initial=initial)
        reference = projection_walk(program, observed, initial)
        for key in set(got) | set(reference):
            assert abs(got.get(key, 0.0) - reference.get(key, 0.0)) < 1e-12

    def test_a_dephasing_a_later_gate_sees_is_not_inert(self):
        # |+> interferes back to |0> under H; dephased, it is a fair coin
        layout = RegisterLayout.of(X=1)
        steps = (Prepare("X", "uniform"), Dephase("X"), GateOp("hadamard", reg="X"), Measure("X"))
        records = sample(CircuitProgram(layout, steps), np.random.default_rng(8), 2000)
        ones = sum(trial[0].outcome for trial in records) / 2000
        assert abs(ones - 0.5) < 0.05  # 4.5 sigma
        coherent = CircuitProgram(layout, steps[:1] + steps[2:])
        assert {trial[0].outcome for trial in sample(coherent, np.random.default_rng(8), 50)} == {0}

    def test_run_keeps_the_phases_in_its_tagged_states(self):
        inst = build_periodic(4, 3)
        program = period_circuit(inst, "annihilate-F")
        trace = run(program, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        phased = sample_phases(PhasedMixture(state_after_oracle(inst), "F"), rng)
        assert np.array_equal(trace.state_at_tag("t3").amplitudes, phased.amplitudes)
        assert np.array_equal(trace.state_at_tag("t4").amplitudes, gate(phased, "qft", reg="X").amplitudes)

    def test_enumerating_annihilate_f_projects_nothing_on_f(self, monkeypatch):
        calls = []
        real = circuit_ir._gather
        monkeypatch.setattr(circuit_ir, "_gather", lambda *a: calls.append(a[1]) or real(*a))
        inst = build_periodic(5, 3)
        got = enumerate_outcome_distribution(period_circuit(inst, "annihilate-F"), ("X", "F"))
        assert "F" not in calls
        expected = enumerate_outcome_distribution(period_circuit(inst, "skip-F"), ("X", "F"))
        assert got.keys() == expected.keys()
        for key, p in expected.items():
            assert got[key] == pytest.approx(p, abs=1e-14)

    def test_annihilate_f_at_the_ceiling(self, monkeypatch, capsys):
        # one full state is 16 MiB; the guard is the measure-F ceiling test's
        argv = ["shor", "--n", "10", "--r", "512", "--discipline", "annihilate-F", "--trials", "100"]
        tracemalloc.start()
        try:
            assert count_qft_calls(monkeypatch, capsys, argv + ["--json"]) <= 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 16 * 2**20


class TestEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(case=random_programs())
    def test_matches_the_projection_walk(self, case):
        program, observed, initial = case
        got = enumerate_outcome_distribution(program, observed, initial=initial)
        expected = projection_walk(program, observed, initial)
        for key in set(got) | set(expected):
            assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) < 1e-12
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_two_observed_measurements_are_the_joint_squares(self):
        # the extended game's joint distribution: each K branch is the rows
        # of K, undivided, so p(k, x) is |amplitude|^2 summed over F, bit
        # for bit, and the sequential product p(k) * p(x | k) to rounding
        layout = RegisterLayout.of(K=2, X=2, F=1)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        state = PureState(layout, amps / np.linalg.norm(amps))
        program = CircuitProgram(layout, (Measure("K"), Measure("X")))
        got = enumerate_outcome_distribution(program, ("K", "X"), initial=state)
        squares = np.abs(state.amplitudes.reshape(4, 4, 2)) ** 2
        joint = squares[:, :, 0] + squares[:, :, 1]
        assert got == {(k, x): float(joint[k, x]) for k in range(4) for x in range(4)}
        sequential = projection_walk(program, ("K", "X"), state)
        assert got.keys() == sequential.keys()
        assert max(abs(got[key] - sequential[key]) for key in got) < 1e-15

    def test_deferred_check_projects_only_the_early_branches(self, monkeypatch):
        calls = []
        real = circuit_ir._gather
        monkeypatch.setattr(circuit_ir, "_gather", lambda *a: calls.append((a[1], len(a[2]))) or real(*a))
        program = period_circuit(build_periodic(8, 128), "measure-F-at-t2")
        tv = equivalent_distributions(program, defer_measurements(program), ["X"])
        assert tv.value < 1e-10
        # one projection per F branch of the original, all 128 gathered as
        # one family; the deferred program's X marginal is read once and
        # its F measurement is summed out
        assert calls == [("F", 128)]


IN_PLACE_KERNELS = (
    "hadamard_all_in_place",
    "qft_in_place",
    "oracle_xor_in_place",
    "oracle_moded_in_place",
    "bound_grover_diffusion",
)


class TestWorkBuffers:
    """Each unitary segment runs in one work buffer that the walk copies
    from the state it starts at; nothing handed out is ever written."""

    @settings(max_examples=80, deadline=None)
    @given(case=random_programs(), seed=SEEDS)
    def test_no_state_outside_the_walk_is_written(self, case, seed):
        program, observed, initial = case
        rng = np.random.default_rng(seed)
        every_boundary = {f"b{i}": i for i in range(len(program.instructions) + 1)}
        walk = circuit_ir._BranchWalk(program, initial)
        _, tagged, final, weight, _ = walk.trial(rng, every_boundary)
        final = final().state(weight)
        first_draw = next(
            (i for i, instr in enumerate(program.instructions) if isinstance(instr, (Measure, Dephase))),
            len(program.instructions),
        )
        handed_out = [initial, final, unitary_prefix(program, first_draw)] + [s.state(w) for s, w in tagged.values()]
        kept = [state.amplitudes for state in handed_out] + [state.amps for _, _, state in walk._chain]
        before = [amplitudes.copy() for amplitudes in kept]
        buffers = []

        def recording(kernel):
            def record(work, *args, **kwargs):
                buffers.append(work)
                return kernel(work, *args, **kwargs)

            return record

        with pytest.MonkeyPatch.context() as patch:
            for name in IN_PLACE_KERNELS:
                patch.setattr(gates, name, recording(getattr(gates, name)))
            patch.setattr(circuit_ir, "_xor_register", recording(circuit_ir._xor_register))
            for _ in range(4):
                walk.trial(rng, every_boundary)
                walk.trial(rng)
            sample(program, rng, 4, initial=initial)
            enumerate_outcome_distribution(program, observed, initial)
            unitary_prefix(program, first_draw)
        for amplitudes, copy in zip(kept, before):
            assert not amplitudes.flags.writeable
            assert np.array_equal(amplitudes.view(np.uint64), copy.view(np.uint64))
            assert not any(np.shares_memory(amplitudes, work) for work in buffers)
