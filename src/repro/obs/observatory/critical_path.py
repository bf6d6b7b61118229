"""Critical-path profiler: execution DAG from thread-tagged span events.

Training runs on the caller thread; the serving tier adds worker
threads.  Spans carry their emitting thread name (schema field
``thread``), so a trace file contains enough structure to rebuild the
execution DAG:

* spans on the **main thread** (the thread owning the longest root
  span) form the critical path — their self time is wall time the run
  cannot hide;
* spans on **worker threads** are overlapped slack — busy time hidden
  behind the critical path (or not, when it exceeds the main-thread
  interval).

The report attributes main-thread wall time to named spans
(self time = duration minus same-thread child durations) and exports a
folded-stacks file (``thread;parent;child  microseconds``) consumable
by standard flamegraph tools (flamegraph.pl, speedscope, inferno).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError

__all__ = [
    "CriticalPathReport",
    "SpanNode",
    "build_critical_path",
    "render_critical_path",
    "write_folded_stacks",
]

_UNKNOWN_THREAD = "unknown"


class CriticalPathError(ReproError):
    """Trace lacks the structure needed for critical-path analysis."""


@dataclass
class SpanNode:
    """One closed span in the reconstructed forest."""

    span_id: int
    parent_id: int | None
    name: str
    thread: str
    ts: float
    duration_s: float
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def end_ts(self) -> float:
        return self.ts + self.duration_s

    @property
    def self_s(self) -> float:
        """Duration minus same-thread children (clamped at zero)."""
        child_total = sum(
            c.duration_s for c in self.children if c.thread == self.thread
        )
        return max(0.0, self.duration_s - child_total)


@dataclass
class CriticalPathReport:
    """Wall-time attribution for one traced run."""

    main_thread: str
    #: main-thread wall interval (max end - min start over its roots)
    interval_s: float
    #: span name -> (count, total self seconds) on the main thread
    critical_self_s: dict[str, tuple[int, float]]
    #: worker thread -> busy seconds (sum of root-span durations there)
    overlapped_busy_s: dict[str, float]
    #: fraction of the main interval attributed to named spans
    coverage: float
    roots: list[SpanNode] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(t for _, t in self.critical_self_s.values())


def _build_forest(events: Iterable[dict]) -> list[SpanNode]:
    """Span events -> forest keyed by span_id/parent_id.

    A parent_id pointing at a span that never closed (or a point event)
    makes the child a root — exactly what happens to worker-thread
    spans, whose thread-local stacks give them no in-file parent.
    """
    nodes: dict[int, SpanNode] = {}
    order: list[int] = []
    for event in events:
        if not isinstance(event, dict) or event.get("type") != "span":
            continue
        span_id = event.get("span_id")
        if not isinstance(span_id, int):
            continue
        node = SpanNode(
            span_id=span_id,
            parent_id=event.get("parent_id"),
            name=str(event.get("name", "")),
            thread=str(event.get("thread") or _UNKNOWN_THREAD),
            ts=float(event.get("ts", 0.0)),
            duration_s=float(event.get("duration_s", 0.0)),
        )
        nodes[span_id] = node
        order.append(span_id)
    roots: list[SpanNode] = []
    for span_id in order:
        node = nodes[span_id]
        parent = (
            nodes.get(node.parent_id)
            if node.parent_id is not None
            else None
        )
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.ts, n.span_id))
    roots.sort(key=lambda n: (n.ts, n.span_id))
    return roots


def _iter_nodes(roots: list[SpanNode]) -> Iterable[SpanNode]:
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def build_critical_path(
    events: Iterable[dict], *, main_thread: str | None = None
) -> CriticalPathReport:
    """Attribute wall time to critical path vs. overlapped slack.

    ``main_thread`` defaults to the thread owning the longest root span
    (the epoch/iteration wrapper lives there by construction).
    """
    roots = _build_forest(events)
    if not roots:
        raise CriticalPathError("trace contains no closed spans")
    if main_thread is None:
        longest = max(roots, key=lambda n: n.duration_s)
        main_thread = longest.thread

    main_roots = [r for r in roots if r.thread == main_thread]
    if not main_roots:
        raise CriticalPathError(
            f"no root spans on thread {main_thread!r}"
        )
    start = min(r.ts for r in main_roots)
    end = max(r.end_ts for r in main_roots)
    interval_s = max(0.0, end - start)

    critical: dict[str, list[float]] = {}
    for node in _iter_nodes(main_roots):
        if node.thread != main_thread:
            continue  # child emitted on a worker thread: overlapped
        entry = critical.setdefault(node.name, [0, 0.0])
        entry[0] += 1
        entry[1] += node.self_s

    overlapped: dict[str, float] = {}
    for root in roots:
        if root.thread == main_thread:
            continue
        overlapped[root.thread] = (
            overlapped.get(root.thread, 0.0) + root.duration_s
        )
    # Worker-thread descendants of main-thread spans count as slack too.
    for node in _iter_nodes(main_roots):
        for child in node.children:
            if child.thread != main_thread:
                overlapped[child.thread] = (
                    overlapped.get(child.thread, 0.0) + child.duration_s
                )

    attributed = sum(t for _, t in critical.values())
    coverage = attributed / interval_s if interval_s > 0 else 1.0
    return CriticalPathReport(
        main_thread=main_thread,
        interval_s=interval_s,
        critical_self_s={
            name: (int(count), total)
            for name, (count, total) in sorted(critical.items())
        },
        overlapped_busy_s=dict(sorted(overlapped.items())),
        coverage=coverage,
        roots=roots,
    )


def render_critical_path(report: CriticalPathReport) -> str:
    """Two tables: critical-path self time and per-thread slack."""
    from repro.bench.reporting import format_table

    interval = report.interval_s or 1.0
    rows = []
    for name, (count, self_s) in sorted(
        report.critical_self_s.items(),
        key=lambda item: -item[1][1],
    ):
        rows.append(
            [
                name,
                count,
                f"{self_s:.6f}",
                f"{100.0 * self_s / interval:.1f}%",
            ]
        )
    critical_table = format_table(
        ["span", "count", "self_s", "share"],
        rows,
        title=(
            f"critical path on {report.main_thread!r} "
            f"(interval {report.interval_s:.6f}s, "
            f"coverage {100.0 * report.coverage:.1f}%)"
        ),
    )
    if not report.overlapped_busy_s:
        return critical_table
    slack_rows = []
    for thread, busy in report.overlapped_busy_s.items():
        slack_rows.append(
            [
                thread,
                f"{busy:.6f}",
                f"{100.0 * min(busy, interval) / interval:.1f}%",
            ]
        )
    slack_table = format_table(
        ["thread", "busy_s", "overlap"],
        slack_rows,
        title="overlapped slack (worker threads)",
    )
    return critical_table + "\n\n" + slack_table


def write_folded_stacks(
    report: CriticalPathReport, path: str
) -> int:
    """Write folded stacks (``thread;a;b value_us``) for flamegraphs.

    Every span contributes its *self* time at its stack position, so
    the flamegraph's widths sum to real wall time per thread.  Returns
    the number of folded lines written.
    """
    import os

    folded: dict[str, int] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.name}" if prefix else node.name
        micros = int(round(node.self_s * 1e6))
        if micros > 0:
            key = f"{node.thread};{stack}"
            folded[key] = folded.get(key, 0) + micros
        for child in node.children:
            # A cross-thread child starts a fresh stack on its thread.
            walk(child, stack if child.thread == node.thread else "")

    for root in report.roots:
        walk(root, "")

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(folded):
            fh.write(f"{key} {folded[key]}\n")
    return len(folded)
