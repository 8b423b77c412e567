"""qdesk benchmark: CLI reports per second, report latency, set-up time and
memory, for one seeded workload.

    python3 perfbench/run.py --workload period-exact --seed 1 --seconds 25 --trace 0

One client drives ``qdesk.cli.main(argv)`` in this process as a closed
loop, with stdout captured: the next report starts when the last one has
returned.  Before timing, one untimed warm-up report runs for each job
shape of the workload.  The timed loop then runs whole rounds of the
workload's job mix (see ``jobs.py``) and stops at the round boundary
nearest to ``--seconds``, but not before 100 reports are done, so that
ten reports lie beyond the 90th percentile.  After the loop, and outside
its time, every report is checked against the oracles in ``oracles.py``.
``setup_s`` is the median of several fresh interpreters that import
``qdesk.cli`` and generate the workload's jobs.

The host's speed drifts, so a pass of a fixed reference kernel
(``reference.py``) is timed after every report and around every set-up
probe, and the end-to-end times are scaled to the kernel's nominal speed;
the details line also gives them unscaled.  BLAS runs one thread.

With ``--trace 1`` the run is split in two halves: an untraced half and a
traced half, in which every public qdesk function is wrapped (see
``spans.py``).  It prints per-layer metrics instead of the end-to-end ones,
including the tracing overhead as the ratio of the two halves' report
rates.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details: machine and environment, workload seed, report counts and
the first failures.  The exit code is 2 when the checkout has no qdesk
sources, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
SETUP_KERNEL_PASSES = 9
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PROBE_TIMEOUT_S = 60
MIN_REPORTS = 100

# Functions whose calls and self time are reported per report.
TRACED_FUNCTIONS = (
    "gates.qft",
    "gates.fourier_matrix",
    "gates.hadamard_all",
    "gates.oracle_xor",
    "gates.oracle_moded",
    "gates.grover_diffusion",
    "measure.project",
    "measure.phased_mixture_from_state",
    "measure.outcome_distribution",
    "measure.born_sample",
    "measure.sample_phases",
    "measure.average_density",
    "circuit_ir.enumerate_outcome_distribution",
    "circuit_ir.apply_instruction",
    "shor.state_after_oracle",
    "shor.run_pipeline",
    "shor.exact_outcome_distribution",
    "shor.single_run_success_probability",
    "qstate.PureState",
    "grover.standard_grover_state",
    "grover.classical_worst_case_queries",
    "costmodel.stage_table",
    "cli.main",
)

COMPUTED_BYTES = (
    "gates.hadamard_all",
    "gates.qft",
    "gates.oracle_xor",
    "gates.oracle_moded",
    "gates.grover_diffusion",
    "measure.project",
    "measure.outcome_distribution",
    "qstate.PureState",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_tree(stderr: str) -> list[tuple[str, int, int | None]]:
    """Parse ``-X importtime`` into (module, cumulative us, parent index)."""
    entries: list[tuple[str, int, int]] = []  # name, cumulative, depth
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[1].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((name.strip(), int(fields[1]), depth))
    # A module is printed after everything it imported, one level deeper.
    parents: list[int | None] = [None] * len(entries)
    pending: list[int] = []
    for i, (_, _, depth) in enumerate(entries):
        while pending and entries[pending[-1]][2] > depth:
            parents[pending.pop()] = i
        pending.append(i)
    return [(name, cum, parents[i]) for i, (name, cum, _) in enumerate(entries)]


def import_shares(stderr: str) -> dict[str, float]:
    """Import milliseconds of qdesk.cli, qdesk.selftest, and all of scipy."""
    tree = _import_tree(stderr)

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    shares = {"import_ms": 0.0, "selftest_import_ms": 0.0, "scipy_import_ms": 0.0}
    for name, cumulative, parent in tree:
        if name == "qdesk.cli":
            shares["import_ms"] += cumulative / 1e3
        elif name == "qdesk.selftest":
            shares["selftest_import_ms"] += cumulative / 1e3
        elif is_scipy(name) and (parent is None or not is_scipy(tree[parent][0])):
            shares["scipy_import_ms"] += cumulative / 1e3
    return shares


def probe_setup(workload: str, seed: int, importtime: bool) -> tuple[float, dict[str, float]]:
    """Wall seconds of one fresh interpreter, and its import shares."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return seconds, import_shares(done.stderr) if importtime else {}


def probe_setups(workload: str, seed: int, importtime: bool, kernel):
    """``SETUP_PROBES`` probes, with kernel passes before and after each.

    Returns per probe its wall seconds scaled by the kernel's speed around
    it (see ``reference.py``), its unscaled wall seconds and its import
    shares.
    """
    import reference

    passes = [[kernel() for _ in range(SETUP_KERNEL_PASSES)]]
    runs = []
    for _ in range(SETUP_PROBES):
        runs.append(probe_setup(workload, seed, importtime))
        passes.append([kernel() for _ in range(SETUP_KERNEL_PASSES)])
    return [(seconds * reference.REFERENCE_MS / 1e3 / statistics.median(passes[i] + passes[i + 1]),
             seconds, shares)
            for i, (seconds, shares) in enumerate(runs)]


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "workload_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ},
    }


def run_report(cli, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """One report through ``cli.main``: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed report
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def measure(cli, rounds, seconds: float, min_reports: int, run_one, tracer=None, kernel=None):
    """Run whole rounds, stopping at the round boundary nearest to
    ``seconds`` once ``min_reports`` are done.  With a reference
    ``kernel``, one pass of it is timed after every report.

    Returns (job, exit code, stdout, stderr, seconds) per report, the
    elapsed wall seconds, the wall seconds of each round and the kernel's
    seconds after each report.
    """
    results = []
    round_seconds = []
    kernel_seconds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in next(rounds):
            if tracer is not None:
                tracer.current_report = len(results)
            t0 = time.perf_counter()
            code, out, err = run_one(cli, job.argv)
            results.append((job, code, out, err, time.perf_counter() - t0))
            if kernel is not None:
                kernel_seconds.append(kernel())
        round_seconds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(results) >= min_reports and elapsed + round_seconds[-1] / 2 >= seconds:
            return results, elapsed, round_seconds, kernel_seconds


def verify(results) -> tuple[list[str | None], dict]:
    """One failure reason (or None) per report, plus report-level facts."""
    import oracles

    reasons = []
    shor_reports = zero_success = 0
    for job, code, out, err, _ in results:
        reason = oracles.check(job.spec, code, out)
        if reason is not None and err:
            reason = f"{reason} ({err.strip()[-200:]})"
        reasons.append(reason)
        if job.spec["cmd"] == "shor" and reason is None:
            shor_reports += 1
            zero_success += json.loads(out)["success_probability_exact"] == 0.0
    return reasons, {"shor_reports": shor_reports, "zero_success": zero_success}


def e2e_metrics(results, reasons, scales: list[float], setup_runs: list[float]) -> dict:
    """Times are scaled to the reference kernel's speed (``reference.py``)."""
    times = [r[4] * scale for r, scale in zip(results, scales)]
    verified = sum(reason is None for reason in reasons)
    return {
        "setup_s": (statistics.median(setup_runs), "s"),
        "reports_per_s": (verified / sum(times), "1/s"),
        "report_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "report_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, results, elapsed: float, untraced_rate: float, facts: dict,
                  imports: list[dict[str, float]]) -> dict:
    import spans

    reports = len(results)
    calls, own = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = (calls.get(fn, 0) / reports, "1/report")
        metrics[f"{fn}.self_ms"] = (own.get(fn, 0.0) * 1e3 / reports, "ms/report")
    counters = tracer.counters
    for fn in COMPUTED_BYTES:
        metrics[f"{fn}.computed_mb"] = (counters[f"{fn}.computed_bytes"] / 1e6 / reports, "MB/report")
    metrics["gates.qft.computed_cmacs"] = (counters["gates.qft.computed_cmacs"] / reports, "cmac/report")
    branches = tracer.count_within("measure.project", spans.ENUMERATE)
    metrics[f"{spans.ENUMERATE}.branches"] = (branches / reports, "1/report")
    allocated = counters["measure.slot_fill.allocated"]
    metrics["measure.slot_fill_ratio"] = (
        counters["measure.slot_fill.useful"] / allocated if allocated else 0.0, "ratio")
    shor_reports = facts["shor_reports"]
    metrics["shor.exact_distributions_per_report"] = (
        calls.get("shor.exact_outcome_distribution", 0) / shor_reports if shor_reports else 0.0, "1/report")
    metrics["shor.zero_success_share"] = (
        facts["zero_success"] / shor_reports if shor_reports else 0.0, "ratio")
    # selftest runs only at import, so it appears under setup.*, not here
    for layer in (*(layer for layer in spans.LAYERS if layer != "selftest"), "bench"):
        total = sum(seconds for name, seconds in own.items() if name.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}.self_ms"] = (total * 1e3 / reports, "ms/report")
    for key in ("import_ms", "selftest_import_ms", "scipy_import_ms"):
        metrics[f"setup.{key}"] = (statistics.median(share[key] for share in imports), "ms")
    traced_rate = reports / elapsed
    metrics["trace.untraced_reports_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_reports_per_s"] = (traced_rate, "1/s")
    metrics["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")
    metrics["trace.report_ms"] = (elapsed * 1e3 / reports, "ms/report")
    metrics["trace.accounted_ratio"] = (sum(own.values()) / elapsed, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread, for this process and the set-up probes: with a
    # second thread on a 2-vCPU guest, a BLAS call's time depends on how
    # long the other vCPU takes to wake, which varied 0.3-8 ms per call.
    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "qdesk" / "cli.py").is_file():
        print(f"error: no qdesk sources under {SRC}", file=sys.stderr)
        return 2
    import jobs
    import reference

    kernel = reference.Reference()
    setup = probe_setups(args.workload, args.seed, bool(args.trace), kernel)

    sys.path.insert(0, str(SRC))
    import qdesk
    import qdesk.cli as cli

    if Path(qdesk.__file__).resolve().parent != SRC / "qdesk":
        print(f"error: qdesk imported from {qdesk.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        rounds = jobs.rounds(args.workload, args.seed, scratch)
        first = next(rounds)
        warmup = list({job.shape: job for job in reversed(first)}.values())
        warm_results = [(job, *run_report(cli, job.argv), 0.0) for job in warmup]
        untraced = []
        if not args.trace:
            results, elapsed, round_seconds, kernel_seconds = measure(
                cli, rounds, args.seconds, MIN_REPORTS, run_report, kernel=kernel)
        else:
            import spans

            untraced, untraced_elapsed, _, _ = measure(cli, rounds, args.seconds / 2, 0, run_report)
            tracer = spans.Tracer()
            modules = {name: sys.modules[f"qdesk.{name}"] for name in spans.LAYERS}
            spans.instrument(tracer, qdesk, modules)
            run_one = tracer.wrap("bench.report", run_report)
            results, elapsed, round_seconds, _ = measure(cli, rounds, args.seconds / 2, 0, run_one, tracer)
        reasons, facts = verify(results)
        other_reasons, _ = verify(warm_results + untraced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checked = warm_results + untraced + results
    all_reasons = other_reasons + reasons
    failed = sum(reason is not None for reason in all_reasons)
    if args.trace:
        metrics = layer_metrics(tracer, results, elapsed, len(untraced) / untraced_elapsed, facts,
                                [shares for _, _, shares in setup])
        unscaled = {}
    else:
        scales = reference.local_scales(kernel_seconds)
        metrics = e2e_metrics(results, reasons, scales, [scaled for scaled, _, _ in setup])
        unscaled = {name: value for name, (value, _) in e2e_metrics(
            results, reasons, [1.0] * len(results), [seconds for _, seconds, _ in setup]).items()}
        unscaled["kernel_ms_median"] = statistics.median(kernel_seconds) * 1e3
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_runs_s": [round(seconds, 4) for _, seconds, _ in setup],
        "unscaled": unscaled,
        "warmup_reports": len(warm_results),
        "round_s": [round(seconds, 3) for seconds in round_seconds],
        "reports": len(results),
        "untraced_reports": len(untraced),
        "measured_s": round(elapsed, 3),
        "failed_ratio": failed / len(checked),
        "zero_success_shor_reports": f"{facts['zero_success']}/{facts['shor_reports']}",
        "failures": [f"{' '.join(r[0].argv)}: {reason}"
                     for r, reason in zip(checked, all_reasons)
                     if reason is not None][:5],
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
