#!/usr/bin/env python3
"""Benchmark for the qromlab lab.

One client issues a workload's ``qromlab`` command lines through
``qromlab.cli.main`` in this process, one after another (a closed loop),
checks every report, and prints the end-to-end metrics.  With ``--trace 1``
it runs the list once untraced and once with spans around every layer's
public functions, and prints the per-layer metrics instead.

    python3 bench/run.py --workload sweep --seed 6 --seconds 30 --trace 0
    python3 bench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the
run completed (failures are reported in that object); 2 means the run could
not start, for instance because ``src/qromlab`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "qgame", "classical")
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def cap_blas_threads() -> None:
    """Hold BLAS/OpenMP threads at most at the usable core count; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, else the capped setting."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(args, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
    }


def input_seed(args) -> int:
    """Seed the workload's command lines are built from."""
    if args.workload == "sweep" and args.sweep_seed is not None:
        return args.sweep_seed
    return args.seed


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, build the list, report."""
    import numpy  # noqa: F401
    import qromlab.cli  # noqa: F401
    from workloads import invocations

    invocations(args.workload, input_seed(args))
    print(repr(time.monotonic()))
    return 0


def measure_setup(args) -> float:
    """Median time from launching a fresh interpreter to ready to issue the
    first call, over SETUP_SAMPLES processes started one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(input_seed(args))]
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - launched)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Passes


def run_pass(cli, argvs: list[list[str]]):
    """Issue every command line once; returns (seconds, outcomes)."""
    from workloads import Outcome

    outcomes = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        called = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # a crash is a counted failure, not the end of the run
            outcomes.append(Outcome(argv, None, out.getvalue(), err.getvalue(),
                                    error=traceback.format_exc()))
        else:
            outcomes.append(Outcome(argv, code, out.getvalue(), err.getvalue()))
        outcomes[-1].seconds = time.perf_counter() - called
    return time.perf_counter() - start, outcomes


def check_passes(passes: list, reference) -> tuple[int, int, list[str]]:
    """Check every outcome; repeated passes must also repeat their reports.
    Returns (attempted, failed, problem lines)."""
    from workloads import check_outcome

    lines = []
    first = passes[0]
    for outcomes in passes:
        for k, outcome in enumerate(outcomes):
            outcome.problems = check_outcome(outcome, reference)
            if outcome is not first[k] and outcome.stdout != first[k].stdout:
                outcome.problems.append("report differs from the first pass")
    attempted = failed = 0
    for outcomes in passes:
        for outcome in outcomes:
            attempted += 1
            if outcome.failed:
                failed += 1
                detail = outcome.error.strip().splitlines()[-1:] or outcome.problems[:3]
                lines.append(f"FAILED {' '.join(outcome.argv)}: exit={outcome.code} "
                             f"{'; '.join(detail)}")
    return attempted, failed, lines


def trace_pass(cli, argvs, run_id: str):
    """One pass with every layer wrapped; returns (tracer, seconds, cpu seconds, outcomes)."""
    from layers import HOT, install
    from tracer import Tracer

    tracer = Tracer(run_id, hot=HOT)
    patcher = install(tracer)
    cpu0 = os.times()
    try:
        _, outcomes = tracer.call(("bench.pass",), run_pass, cli, argvs)
    finally:
        patcher.restore()
    cpu1 = os.times()
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return tracer, tracer.stats["bench.pass"].outer_s, cpu_s, outcomes


def run_workload(args) -> int:
    from workloads import invocations, reference_for

    setup_s = None if args.trace else measure_setup(args)
    import resource

    import qromlab
    from qromlab import cli

    if Path(qromlab.__file__).resolve().parent != SRC / "qromlab":
        print(f"error: imported qromlab from {qromlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    seed = input_seed(args)
    argvs = invocations(args.workload, seed)
    reference = reference_for(args.workload, seed)
    env = environment(args, seed)
    print(f"env {json.dumps(env, sort_keys=True)}")

    passes, walls = [], []
    start = time.perf_counter()
    while True:
        # Each pass starts from a collected heap, so peak memory does not
        # grow with the number of passes that fit in --seconds.
        gc.collect()
        wall, outcomes = run_pass(cli, argvs)
        passes.append(outcomes)
        walls.append(wall)
        if args.trace or time.perf_counter() - start + wall > args.seconds:
            break
    print(f"{args.workload} at seed {seed}: untraced pass walls {[round(w, 3) for w in walls]} s; "
          f"reference outputs {'checked' if reference else 'not stored for this seed'}")
    for k, argv in enumerate(argvs):
        seconds = statistics.median(outcomes[k].seconds for outcomes in passes)
        print(f"call {seconds:9.3f} s  {' '.join(argv)}")

    if args.trace:
        from layers import METRICS, per_layer

        run_id = f"{args.workload}-{seed}-{os.getpid()}"
        gc.collect()
        tracer, traced_wall, cpu_s, outcomes = trace_pass(cli, argvs, run_id)
        passes.append(outcomes)
        values = per_layer(tracer, traced_wall, walls[0], cpu_s)
        units = METRICS
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-{seed}.jsonl"
        tracer.write_jsonl(trace_path, {"env": env})
        print(f"trace of {tracer.span_count()} spans written to {trace_path.relative_to(ROOT)}")
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls), "peak_rss_mib": peak_mib}
        units = END_TO_END_UNITS.items()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    attempted, failed, problems = check_passes(passes, reference)
    for line in problems[:20]:
        print(line, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.sweep_seed is not None:
            cmd += ["--sweep-seed", str(args.sweep_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's reference seed)")
    parser.add_argument("--sweep-seed", type=int, default=None,
                        help="seed of the sweep's lemmas call, overriding --seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole passes while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_blas_threads()
    if not (SRC / "qromlab" / "__init__.py").is_file():
        print(f"error: no qromlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        from workloads import DEFAULT_SEEDS

        args.seed = DEFAULT_SEEDS[args.workload]
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
