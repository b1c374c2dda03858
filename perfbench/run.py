"""Benchmark of the crobstacle pipeline, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload corner-afem --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, both modes

Each study runs in a fresh single-threaded child process (``study.py``),
one after another: a closed loop with one caller.  ``--trace 0`` runs
untraced studies and a few set-up-only children and reports the end-to-end
metrics; ``--trace 1`` runs pairs of an untraced and a traced study and
reports the per-layer metrics and the tracing overhead.  Studies start
while the next one is expected to end within ``--seconds``; there is always
at least one.  The last line of standard output is the JSON result.

The workloads have no random input: ``--seed`` is recorded and otherwise
unused, and every seed runs the same inputs.
"""
import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("corner-afem", "ring-cold", "pyramid-afem")

#: BLAS threads of every child process; one keeps the timings steady
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up-only children per untraced run; their median is ``setup_s``
SETUP_REPEATS = 5
#: a single child that takes longer than this is stopped and the run fails
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A child process failed; no result is printed."""


def run_child(workload, *, smoke=False, trace=False, setup_only=False,
              trace_file=None):
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload]
    for flag, on in (("--smoke", smoke), ("--trace", trace),
                     ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"study child for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_studies(seconds, one_round):
    """Repeat ``one_round`` while the next round is expected to end in time."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(durations) > seconds:
            return results


def load_metric_specs():
    spec = json.loads(BENCHMARK_FILE.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def provenance(workload, seed, trace):
    import numpy
    import scipy

    sha = "unknown"
    if (REPO_ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seed_note": "the workloads have no random input; the seed is recorded only",
        "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": BLAS_THREADS,
        "processes": "one single-threaded child per study, run in sequence",
    }


def _median(values):
    return statistics.median(values) if values else None


def untraced_run(workload, seconds, smoke):
    setups = [run_child(workload, smoke=smoke, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    studies = run_studies(seconds, lambda: run_child(workload, smoke=smoke))
    checks = [s["checks"] for s in studies]
    metrics = {
        "wall_s": _median([s["wall_s"] for s in studies]),
        "setup_s": _median(setups + [s["setup_s"] for s in studies]),
        "time_to_eta_s": _median([s["time_to_eta_s"] for s in studies
                                  if s["time_to_eta_s"] is not None]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in studies]),
        "checks_passed_frac": (sum(c["passed"] for c in checks)
                               / max(1, sum(c["total"] for c in checks))),
    }
    return studies, metrics


def traced_run(workload, seconds, seed, smoke):
    OUT_DIR.mkdir(exist_ok=True)
    counter = itertools.count()

    def pair():
        plain = run_child(workload, smoke=smoke)
        trace_file = OUT_DIR / f"{workload}-seed{seed}-{next(counter)}.trace.json"
        traced = run_child(workload, smoke=smoke, trace=True, trace_file=trace_file)
        return plain, traced

    pairs = run_studies(seconds, pair)
    traced = [t for _, t in pairs]
    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = _median([t["layers"][key] for t in traced
                                if key in t["layers"]])
    untraced_wall = _median([p["wall_s"] for p, _ in pairs])
    metrics["trace.overhead_frac"] = _median([t["wall_s"] for t in traced]) / untraced_wall - 1.0
    return [s for p in pairs for s in p], metrics


def run(workload, seed, seconds, trace, smoke=False):
    """Run one benchmark invocation; return (report lines, result object)."""
    end_to_end, per_layer = load_metric_specs()
    if trace:
        studies, metrics = traced_run(workload, seconds, seed, smoke)
        units = per_layer
    else:
        studies, metrics = untraced_run(workload, seconds, smoke)
        units = end_to_end
    missing = sorted(set(units) - {k for k, v in metrics.items() if v is not None})
    lines = [f"provenance {json.dumps(provenance(workload, seed, trace))}"]
    for study in studies:
        c = study["checks"]
        lines.append(
            f"study {workload}: wall {study['wall_s']:.3f} s, check_fail_frac "
            f"{c['levels_failing']}/{len(study['records'])} levels, failing "
            f"{c['failing']}, unexpected {c['unexpected']}")
    for key in units:
        if metrics.get(key) is not None:
            lines.append(f"metric {key} = {metrics[key]:.6g} {units[key]}")
    if missing:
        lines.append(f"missing metrics: {missing}")
    result = {
        "correct": all(s["checks"]["correct"] for s in studies),
        "attempted": sum(s["attempted"] for s in studies),
        "failed": sum(s["failed"] for s in studies),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if metrics.get(k) is not None},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="run the small smoke size of each workload")
    args = parser.parse_args(argv)
    # Children inherit the environment: fixed BLAS threads and hashing.
    os.environ.update({key: str(BLAS_THREADS) for key in BLAS_ENV})
    os.environ["PYTHONHASHSEED"] = "0"
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            ok = True
            for workload in WORKLOAD_NAMES:
                for trace in (0, 1):
                    lines, result = run(workload, args.seed, args.seconds, trace,
                                        args.smoke)
                    print("\n".join(lines))
                    print(json.dumps(result))
                    ok = ok and result["correct"]
            return 0 if ok else 1
        lines, result = run(args.workload, args.seed, args.seconds, args.trace,
                            args.smoke)
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
