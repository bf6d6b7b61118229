"""End-to-end wall-clock benchmark of the Buffalo reproduction.

One run (what the benchmark driver calls)::

    python benchmarks/e2e/run.py --workload train_lstm_tight --seed 0 \\
        --seconds 15 --trace 0

prints every metric by name and unit, then one JSON object on the last
line: ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a probed run.  Everything at once::

    python benchmarks/e2e/run.py --all [--seed N] [--json OUT] [--smoke]

runs each workload in its own process, untraced then traced, runs the
cross-run checks and exits non-zero if any check failed.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up time counts the imports

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Host isolation: a developer's tuned calibration file must not change
# the fused backend's dispatch (benchmarks/conftest.py does the same).
os.environ["REPRO_KERNEL_CALIBRATION"] = str(HERE / "_no_such_calibration.json")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import registry

#: Cold set-ups per untraced run (this process plus child processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


def load_workloads():
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"cannot import the program under test ({exc}); "
                 f"expected it under {ROOT / 'src'}")
    return workloads


def run_one(args) -> dict:
    """One workload in this process; returns the full result."""
    trace = bool(args.trace)
    result = load_workloads().run(
        args.workload, args.seed, args.seconds, trace, args.smoke,
        PROCESS_START,
    )
    metrics = result["metrics"]
    if not trace and not args.smoke:
        samples = [metrics["setup_s"]]
        flags = ["--setup-only", "--workload", args.workload,
                 "--seed", str(args.seed)]
        for _ in range(SETUP_SAMPLES - 1):
            done = child(flags)
            if done.returncode != 0:
                sys.exit(f"set-up child failed:\n{done.stderr}")
            samples.append(json.loads(done.stdout.splitlines()[-1]))
        metrics["setup_s"] = statistics.median(samples)
        result["setup_samples_s"] = samples

    wanted = registry.PER_LAYER if trace else registry.END_TO_END
    result["metrics"] = {m["name"]: metrics.get(m["name"]) for m in wanted}
    result["correct"] = (
        result["failed"] == 0 and all(c["ok"] for c in result["checks"])
    )
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=trace, smoke=args.smoke,
    )
    return result


def print_checks(checks: list[dict]) -> None:
    for item in checks:
        print(f"  [{'PASS' if item['ok'] else 'FAIL'}] {item['name']}: "
              f"{item['detail']}")


def report_one(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}")
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {registry.UNITS[name]}")
    print_checks(result["checks"])
    for key in ("knobs_dropped", "probes_missing"):
        if result[key]:
            print(f"  {key}: {', '.join(result[key])}")


def contract_line(result: dict) -> str:
    """The driver's last line: numbers only, so a metric that was not
    observed (``null`` in the report) reads 0 here."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": 0.0 if value is None else value,
                   "unit": registry.UNITS[name]}
            for name, value in result["metrics"].items()
        },
    })


def host_info() -> dict:
    import numpy
    import scipy

    try:
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        revision = None
    try:
        from threadpoolctl import threadpool_info

        blas_threads = [p["num_threads"] for p in threadpool_info()]
    except ImportError:
        blas_threads = {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
            if k in os.environ
        } or None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
    }


def cross_checks(plain: dict, traced: dict) -> list[dict]:
    """Probes must observe, not change: same losses, same K."""
    out = []
    for key in ("losses", "micro_batches"):
        if key in plain:
            same = plain[key] == traced[key]
            out.append({
                "name": f"traced_equals_untraced_{key}", "ok": same,
                "detail": "identical" if same
                else f"{plain[key]} vs {traced[key]}",
            })
    return out


def run_all(args) -> int:
    summary = {"host": host_info(), "seed": args.seed,
               "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    ok = True
    tmp = HERE / ".tmp"
    tmp.mkdir(exist_ok=True)
    try:
        for workload in registry.WORKLOADS:
            name = workload["name"]
            runs = []
            for trace in (0, 1):
                out = tmp / f"result-{os.getpid()}-{name}-{trace}.json"
                flags = ["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(trace),
                         "--json", str(out)]
                done = child(flags + (["--smoke"] if args.smoke else []))
                if done.returncode != 0:
                    print(done.stdout, done.stderr, sep="\n")
                    return 1
                runs.append(json.loads(out.read_text()))
                out.unlink()
                report_one(runs[-1])
            extra = cross_checks(*runs)
            print_checks(extra)
            ok = ok and all(r["correct"] for r in runs)
            ok = ok and all(c["ok"] for c in extra)
            summary["workloads"][name] = {
                "untraced": runs[0], "traced": runs[1], "cross_checks": extra,
            }
    finally:
        if not any(tmp.iterdir()):
            tmp.rmdir()
    summary["correct"] = ok
    # This change adds the instrument and the baseline; it claims no gain.
    summary["claim"] = None
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2))
    print(json.dumps({"correct": ok, "claim": None}))
    return 0 if ok else 1


def main() -> int:
    names = [w["name"] for w in registry.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(registry.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload ~20x (harness tests)")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    if args.setup_only:
        print(json.dumps(load_workloads().setup_only(
            args.workload, args.seed, args.smoke, PROCESS_START
        )))
        return 0
    result = run_one(args)
    report_one(result)
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2))
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
