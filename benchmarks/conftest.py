"""Shared helpers for the benchmark suite.

Every benchmark runs one experiment module (DESIGN.md §4), saves its
result table under ``benchmarks/results/``, and asserts the paper's
qualitative shape checks.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record(output) -> None:
    """Persist an experiment's table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{output.name}.txt"
    checks = "\n".join(
        f"  [{'PASS' if ok else 'FAIL'}] {name}"
        for name, ok in output.shape_checks.items()
    )
    path.write_text(f"{output.table}\n\nshape checks:\n{checks}\n")


def run_and_check(benchmark, experiment_run, **kwargs):
    """Run an experiment once under pytest-benchmark and verify shape."""
    output = benchmark.pedantic(
        lambda: experiment_run(**kwargs), rounds=1, iterations=1
    )
    record(output)
    output.assert_shape()
    return output
