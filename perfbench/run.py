"""Time-to-solution benchmark for tensormin.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 38 --trace 0

With ``--trace 0`` it times whole passes over the workload's solves with the
program exactly as shipped and reports the end-to-end metrics; with
``--trace 1`` it runs untraced passes and then traced ones, and reports the
per-layer metrics (see README.md for the list and what each should move).
Every solve's answer is checked.  The last line of standard output is one
JSON object; a detailed record, with the counters of every solve, is written
to ``perfbench-results/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: on a shared machine extra
# threads add noise, and the count must be the same on every run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench-results"

SETUP_SAMPLES = 5
HARD_LIMIT_S = 150.0   # the run must end well inside 180 s
COUNTERS = ("IT", "CO", "BGM_E", "BGM_IT")


def import_program():
    """Import tensormin from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tensormin" / "__init__.py").is_file():
        sys.exit("perfbench: no tensormin sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import tensormin
    if Path(tensormin.__file__).resolve().parent != SRC / "tensormin":
        sys.exit("perfbench: imported tensormin from %s, not from %s"
                 % (tensormin.__file__, SRC))
    return tensormin


def setup_probe(workload, seed):
    """Child-process body: import, generate inputs, print the elapsed time."""
    tm = import_program()
    workloads.build(workload, tm, seed)
    print(repr(time.perf_counter() - _T0))


def measure_setup(workload, seed):
    """Set-up times of fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def machine_probe():
    """Seconds for a fixed pure-Python loop and a fixed BLAS matmul (best of 3)."""
    def python_loop():
        total = 0
        for i in range(300_000):
            total += i * i
        return total

    a = np.random.default_rng(0).standard_normal((256, 256))

    def matmul():
        b = a
        for _ in range(8):
            b = a @ b
            b /= np.abs(b).max()
        return b

    out = {}
    for name, fn in (("python_loop_s", python_loop), ("blas_matmul_s", matmul)):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(solves, records=None):
    """One pass over the workload's solves.

    Returns (solve seconds, summed counters, attempted, failed).  Only the
    solver calls are timed; the output checks are not.
    """
    wall = 0.0
    totals = dict.fromkeys(COUNTERS, 0)
    failed = 0
    for solve in solves:
        t0 = time.perf_counter()
        try:
            x, report = solve.run()
        except Exception as exc:  # a failed solve is counted; the run goes on
            wall += time.perf_counter() - t0
            failed += 1
            error = "%s: %s" % (type(exc).__name__, exc)
            print("solve %s raised %s" % (solve.label, error), file=sys.stderr)
            if records is not None:
                records.append(dict(solve.label, error=error, ok=False))
            continue
        seconds = time.perf_counter() - t0
        wall += seconds
        gnorm, problem = workloads.check_solve(solve, x, report)
        if problem is not None:
            failed += 1
            print("solve %s failed the check: %s" % (solve.label, problem),
                  file=sys.stderr)
        for c in COUNTERS:
            totals[c] += getattr(report, c)
        if records is not None:
            records.append(dict(solve.label, seconds=seconds,
                                **{c: getattr(report, c) for c in COUNTERS},
                                converged=report.converged,
                                final_grad_norm=report.final_grad_norm,
                                grad_norm_recomputed=gnorm,
                                ok=problem is None))
    return wall, totals, len(solves), failed


def per_layer_metrics(tracer, records):
    """Per-layer metrics of one traced pass with per-solve ``records``."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in spans.ORACLE_ENTRIES.values():
        put(span + ".calls", tracer.calls(span), "count")
        put(span + ".self_s", tracer.self_s(span), "s")
    hess_s = tracer.self_s("oracles.hessian")
    put("oracles.hessian.gflop_per_s",
        tracer.hessian_flops / hess_s / 1e9 if hess_s else 0.0, "GFLOP/s")

    put("model.anchor.calls", tracer.calls("model.anchor"), "count")
    put("model.anchor.self_s", tracer.self_s("model.anchor"), "s")
    requests = tracer.calls("model.third_at")
    put("model.third_at.calls", requests, "count")
    put("model.third_at.self_s", tracer.self_s("model.third_at"), "s")
    lookups = requests - tracer.zero_displacements
    hits = lookups - tracer.calls("oracles.third")
    put("model.third_memo_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    for span in ("model.omega_grad", "model.rho_grad", "inner.run_inner",
                 "inner.bregman_step", "inner.secular_solve"):
        put(span + ".calls", tracer.calls(span), "count")
        put(span + ".self_s", tracer.self_s(span), "s")
    for reason in spans.STOP_REASONS:
        put("inner.stop." + reason, tracer.stops[reason], "count")
    executions = tracer.calls("inner.run_inner")
    put("inner.useful_ratio",
        (executions - tracer.stops["SlowConvergence"]) / executions
        if executions else 0.0, "ratio")

    for solver, span in (("basic", "basic.run_basic"), ("accel", "accel.run_accel")):
        put(span + ".self_s", tracer.self_s(span), "s")
        # Every trial is one inner execution and every accepted one an outer
        # iteration, so the acceptance ratio is IT / BGM_E.
        mine = [r for r in records if r["solver"] == solver and "IT" in r]
        accepted = sum(r["IT"] for r in mine)
        trials = sum(r["BGM_E"] for r in mine)
        put(solver + ".accept_ratio", accepted / trials if trials else 0.0, "ratio")
    put("accel.solve_a.calls", tracer.calls("accel.solve_a"), "count")
    put("accel.solve_a.self_s", tracer.self_s("accel.solve_a"), "s")
    put("harness.load_dataset.calls", tracer.calls("harness.load_dataset"), "count")
    put("harness.load_dataset.self_s", tracer.self_s("harness.load_dataset"), "s")
    put("harness.run_experiment.self_s", tracer.self_s("harness.run_experiment"), "s")
    return m


def combine_layer_samples(samples, problems):
    """One value per metric: counts must repeat exactly, times take medians."""
    metrics = {}
    for name, first in samples[0].items():
        values = [s[name]["value"] for s in samples]
        if first["unit"] == "count":
            if len(set(values)) > 1:
                problems.append("%s differs between traced passes: %s"
                                % (name, values))
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds is None:
        ap.error("--seconds is required")

    tm = import_program()

    if args.workload not in workloads.NAMES:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.NAMES)))

    started = time.perf_counter()
    probe_start = machine_probe()
    # Everything the solves import is loaded here, so the first pass pays no
    # lazy set-up; no warm-up pass is spent.
    solves = workloads.build(args.workload, tm, args.seed)

    attempted = failed = 0
    problems = []
    records = []
    walls = []
    traced_walls = []
    layer_samples = []
    pass_totals = None
    tracer = spans.Tracer()
    t_measure = time.perf_counter()

    def room_for(walls_so_far):
        """Start a pass only while one more is expected to fit the budget."""
        if not walls_so_far:
            return True
        now = time.perf_counter()
        return (now - t_measure + statistics.median(walls_so_far) <= args.seconds
                and now - started < HARD_LIMIT_S)

    # With --trace 1, untraced and traced passes alternate, so a drift in
    # machine speed affects both sides of the overhead ratio alike.
    traced = False
    while room_for(traced_walls if traced else walls):
        pass_records = [] if traced or not walls else None
        if traced:
            with tracer.installed(tm):
                wall, totals, att, fail = run_pass(solves, pass_records)
            traced_walls.append(wall)
            problems += spans.reconcile(tracer, totals)
            layer_samples.append(per_layer_metrics(tracer, pass_records))
        else:
            wall, totals, att, fail = run_pass(solves, pass_records)
            walls.append(wall)
            if pass_records is not None:
                records = pass_records
        attempted += att
        failed += fail
        if pass_totals is None:
            pass_totals = totals
        elif totals != pass_totals:
            problems.append("counters differ between passes: %s vs %s"
                            % (totals, pass_totals))
        traced = bool(args.trace) and not traced

    probe_end = machine_probe()
    setup_samples = []
    if args.trace:
        metrics = combine_layer_samples(layer_samples, problems)
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls),
            "unit": "ratio"}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up is sampled after the passes, so its child processes cannot
        # disturb the first one.
        setup_samples = measure_setup(args.workload, args.seed)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
        for c in COUNTERS:
            metrics[c] = {"value": pass_totals[c], "unit": "count"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    correct = failed == 0 and not problems
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "machine_probe": {"start": probe_start, "end": probe_end},
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "setup_s_samples": setup_samples,
        "pass_counters": pass_totals,
        "solves": records,
        "problems": problems,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print("workload %s, seed %d: %d passes untraced, %d traced; %d of %d solves failed"
          % (args.workload, args.seed, len(walls), len(traced_walls), failed,
             attempted))
    print("machine probe (start -> end): python loop %.4f -> %.4f s, "
          "BLAS matmul %.4f -> %.4f s"
          % (probe_start["python_loop_s"], probe_end["python_loop_s"],
             probe_start["blas_matmul_s"], probe_end["blas_matmul_s"]))
    q1, median, q3 = (statistics.quantiles(walls, n=4) if len(walls) > 1
                      else walls * 3)
    print("untraced pass quartiles %.4f / %.4f / %.4f s over %d passes"
          % (q1, median, q3, len(walls)))
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("detail: %s" % out.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
