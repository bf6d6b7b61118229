"""Noise floor: measure the same checkout twice and compare.

Runs two sets, A and B, of ``--seeds`` untraced runs (seeds 0..N-1) plus
one traced run (seed 0) per workload, and prints for every end-to-end
(metric, workload) both medians, their relative difference, each set's
spread (inter-quartile range over median) and the bound from
``registry.py``.  Exits 1 when a pair of medians differs by more than
the metric's bound, when a spread (``setup_s`` excepted) exceeds it, or
when an exact count differs between the two traced runs.

    python benchmarks/e2e/verify_repeat.py [--seeds 10] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import registry


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace),
         "--seconds", str(registry.RUN_SECONDS)],
        capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    line = json.loads(done.stdout.splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{workload} seed {seed} reported correct=false:\n{done.stdout}")
    return {k: v["value"] for k, v in line["metrics"].items()}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args()

    ok = True
    rows = []
    print(f"{'metric':18s} {'workload':18s} {'median A':>12s} {'median B':>12s} "
          f"{'diff':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in (w["name"] for w in registry.WORKLOADS):
        # A and B alternate so that drift of the host hits both alike.
        sets = [[], []]
        for seed in range(args.seeds):
            for values in sets:
                values.append(run(workload, seed, 0))
        for metric in registry.END_TO_END:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run_[name] for run_ in values] for values in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            spreads = [spread(a), spread(b)]
            good = diff <= bound and (
                name == "setup_s" or max(spreads) <= bound
            )
            ok = ok and good
            rows.append({
                "metric": name, "workload": workload, "median_a": med_a,
                "median_b": med_b, "diff": diff, "spread_a": spreads[0],
                "spread_b": spreads[1], "bound": bound, "ok": good,
            })
            print(f"{name:18s} {workload:18s} {med_a:12.5g} {med_b:12.5g} "
                  f"{diff:8.2%} {spreads[0]:9.2%} {spreads[1]:9.2%} "
                  f"{bound:6.0%}{'' if good else '  FAIL'}")
        traced = [run(workload, 0, 1) for _ in sets]
        for name in registry.EXACT_COUNTS:
            same = traced[0][name] == traced[1][name]
            ok = ok and same
            rows.append({
                "metric": name, "workload": workload,
                "count_a": traced[0][name], "count_b": traced[1][name],
                "ok": same,
            })
            print(f"{name:18s} {workload:18s} {traced[0][name]:12.6g} "
                  f"{traced[1][name]:12.6g} {'exact' if same else 'DIFFERS'}")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2))
    print("repeatable" if ok else "NOT repeatable")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
