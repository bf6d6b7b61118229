"""Run ledger: durable per-run performance records with regression gates.

Every ``repro train`` / ``repro bench`` / ``repro experiment``
invocation can append one schema-versioned JSON record to
``benchmarks/ledger/<name>.jsonl``.  A record captures everything needed
to explain a perf delta after the fact:

* identity — record name, creation time, git revision, host info;
* reproducibility — the config dict and its SHA-256 fingerprint;
* phases — per-phase wall/sim seconds and counts (from the
  :class:`~repro.device.profiler.Profiler` span consumer);
* peaks — peak bytes per memory tier (device / store / cache /
  workspace);
* metrics — flat scalar metrics (speedups, hit rates, error, counters);
* floors — within-run minimum thresholds (e.g. the kernels gate's
  fused-vs-reference speedup floor) checked by ``repro ledger check``.

Cross-run gating compares two records metric-by-metric with relative
thresholds plus absolute epsilons (so a 2 ms phase jittering by 50% does
not fail a build).  Regression direction is inferred from the metric
name: byte/seconds/error/miss metrics must not grow, speedup/hit-rate
metrics must not shrink, everything else is informational.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ReproError

__all__ = [
    "LEDGER_VERSION",
    "Comparison",
    "LedgerError",
    "LedgerRecord",
    "MetricDelta",
    "RunRecorder",
    "Thresholds",
    "append_record",
    "check_floors",
    "compare_records",
    "flatten_numeric",
    "metric_direction",
    "read_ledger",
    "render_comparison",
    "render_record",
    "resolve_record_spec",
]

LEDGER_VERSION = 1

#: Default ledger directory, relative to the repo/cwd.
DEFAULT_LEDGER_DIR = os.path.join("benchmarks", "ledger")


class LedgerError(ReproError):
    """Malformed ledger file, record, or record spec."""


# -- direction inference ----------------------------------------------

_LOWER_BETTER_SUFFIXES = (
    "_s", "_us", "_ms", "bytes", "_error", "error_abs", "misses",
    "declined", "retries", "fallbacks", "allocs",
)
_HIGHER_BETTER_SUFFIXES = (
    "speedup", "hit_rate", "hits", "rate", "accuracy", "throughput",
    "rows_per_s",
)


def metric_direction(name: str) -> int:
    """-1 if lower is better, +1 if higher is better, 0 informational."""
    leaf = name.rsplit(".", 1)[-1]
    for suffix in _HIGHER_BETTER_SUFFIXES:
        if leaf.endswith(suffix):
            return 1
    for suffix in _LOWER_BETTER_SUFFIXES:
        if leaf.endswith(suffix):
            return -1
    return 0


# -- record ------------------------------------------------------------


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def _host_info() -> dict[str, Any]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def config_fingerprint(config: dict[str, Any]) -> str:
    """First 12 hex chars of the SHA-256 of the canonical config JSON."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class LedgerRecord:
    """One schema-versioned performance record."""

    name: str
    created_at: str = ""
    git_rev: str | None = None
    host: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    #: phase name -> {"wall_s": float, "sim_s": float, "count": int}
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    #: memory tier -> peak bytes
    peaks: dict[str, float] = field(default_factory=dict)
    #: flat scalar metrics (dotted names)
    metrics: dict[str, float] = field(default_factory=dict)
    #: metric name -> minimum acceptable value (within-run gate)
    floors: dict[str, float] = field(default_factory=dict)
    v: int = LEDGER_VERSION
    #: stamp git rev / host / timestamp at construction (False on load,
    #: so reading a record never mutates it)
    stamp_env: bool = True

    def __post_init__(self) -> None:
        if not self.fingerprint and self.config:
            self.fingerprint = config_fingerprint(self.config)
        if not self.stamp_env:
            return
        if not self.host:
            self.host = _host_info()
        if self.git_rev is None:
            self.git_rev = _git_rev()
        if not self.created_at:
            import datetime

            self.created_at = (
                datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ")
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": self.v,
            "name": self.name,
            "created_at": self.created_at,
            "git_rev": self.git_rev,
            "host": self.host,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "phases": self.phases,
            "peaks": self.peaks,
            "metrics": self.metrics,
            "floors": self.floors,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LedgerRecord":
        if not isinstance(data, dict):
            raise LedgerError(
                f"ledger record must be an object, got {type(data).__name__}"
            )
        version = data.get("v")
        if version != LEDGER_VERSION:
            raise LedgerError(
                f"unsupported ledger record version {version!r} "
                f"(expected {LEDGER_VERSION})"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise LedgerError("ledger record missing non-empty 'name'")
        return cls(
            name=name,
            created_at=str(data.get("created_at", "")),
            git_rev=data.get("git_rev"),
            host=dict(data.get("host") or {}),
            config=dict(data.get("config") or {}),
            fingerprint=str(data.get("fingerprint", "")),
            phases={
                str(k): dict(v)
                for k, v in (data.get("phases") or {}).items()
            },
            peaks={
                str(k): float(v)
                for k, v in (data.get("peaks") or {}).items()
            },
            metrics={
                str(k): float(v)
                for k, v in (data.get("metrics") or {}).items()
                if v is not None
            },
            floors={
                str(k): float(v)
                for k, v in (data.get("floors") or {}).items()
            },
            v=LEDGER_VERSION,
            stamp_env=False,
        )

    def flat_metrics(self) -> dict[str, float]:
        """Every gateable scalar: phases, peaks, and metrics, flattened."""
        flat: dict[str, float] = {}
        for phase, entry in sorted(self.phases.items()):
            flat[f"phase.{phase}.wall_s"] = float(entry.get("wall_s", 0.0))
            sim = float(entry.get("sim_s", 0.0))
            if sim:
                flat[f"phase.{phase}.sim_s"] = sim
        for tier, peak in sorted(self.peaks.items()):
            flat[f"peak.{tier}.bytes"] = float(peak)
        for name, value in sorted(self.metrics.items()):
            flat[name] = float(value)
        return flat


# -- persistence -------------------------------------------------------


def append_record(path: str, record: LedgerRecord) -> None:
    """Append one record to a JSONL ledger file (creating parents)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True,
                            separators=(",", ":")))
        fh.write("\n")


def read_ledger(path: str) -> list[LedgerRecord]:
    """Read every record from a ledger file, tolerating a torn tail."""
    if not os.path.exists(path):
        raise LedgerError(f"ledger file not found: {path}")
    records: list[LedgerRecord] = []
    raw: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped:
                raw.append((lineno, stripped))
    last_index = len(raw) - 1
    for index, (lineno, line) in enumerate(raw):
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == last_index and index > 0:
                break  # torn tail from an interrupted append
            raise LedgerError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        try:
            records.append(LedgerRecord.from_dict(data))
        except LedgerError as exc:
            raise LedgerError(f"{path}:{lineno}: {exc}") from exc
    return records


def resolve_record_spec(spec: str) -> LedgerRecord:
    """Resolve ``PATH`` or ``PATH@INDEX`` to one record.

    ``INDEX`` may be negative (Python semantics); the default is ``-1``,
    the most recently appended record.
    """
    path, sep, index_text = spec.rpartition("@")
    if sep and path and not os.path.exists(spec):
        try:
            index = int(index_text)
        except ValueError:
            path, index = spec, -1
    else:
        path, index = spec, -1
    records = read_ledger(path)
    if not records:
        raise LedgerError(f"ledger file has no complete records: {path}")
    try:
        return records[index]
    except IndexError:
        raise LedgerError(
            f"record index {index} out of range for {path} "
            f"({len(records)} records)"
        ) from None


# -- comparison / gating ----------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Regression tolerances for :func:`compare_records`.

    Relative tolerances are fractions (0.25 = 25%); the absolute
    epsilons suppress noise on tiny values (a 0.5 ms phase doubling is
    not a regression worth failing a build over).
    """

    wall_tol: float = 0.25
    peak_tol: float = 0.05
    metric_tol: float = 0.10
    wall_abs_s: float = 1e-3
    peak_abs_bytes: float = 1024.0

    def for_metric(self, name: str) -> tuple[float, float]:
        """(relative tolerance, absolute epsilon) for one flat metric."""
        if name.endswith("_s") or name.endswith("_us") or name.endswith(
            "_ms"
        ):
            # Wall-clock metrics jitter with machine load; they get the
            # loosest relative tolerance plus an absolute epsilon.
            return self.wall_tol, self.wall_abs_s
        if name.startswith("peak.") or name.endswith("bytes"):
            return self.peak_tol, self.peak_abs_bytes
        return self.metric_tol, 0.0


@dataclass
class MetricDelta:
    """One row of a record-vs-record comparison."""

    name: str
    base: float | None
    new: float | None
    direction: int  # -1 lower-better, +1 higher-better, 0 info
    regressed: bool

    @property
    def delta(self) -> float | None:
        if self.base is None or self.new is None:
            return None
        return self.new - self.base

    @property
    def rel_delta(self) -> float | None:
        if self.base is None or self.new is None or self.base == 0:
            return None
        return (self.new - self.base) / abs(self.base)


@dataclass
class Comparison:
    """Full comparison of two ledger records."""

    base: LedgerRecord
    new: LedgerRecord
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_records(
    base: LedgerRecord,
    new: LedgerRecord,
    thresholds: Thresholds | None = None,
) -> Comparison:
    """Diff two records metric-by-metric; flag threshold regressions."""
    thresholds = thresholds or Thresholds()
    base_flat = base.flat_metrics()
    new_flat = new.flat_metrics()
    deltas: list[MetricDelta] = []
    for name in sorted(set(base_flat) | set(new_flat)):
        base_value = base_flat.get(name)
        new_value = new_flat.get(name)
        direction = metric_direction(name)
        regressed = False
        if (
            direction != 0
            and base_value is not None
            and new_value is not None
        ):
            rel_tol, abs_eps = thresholds.for_metric(name)
            if direction < 0:  # lower is better: fail on growth
                limit = base_value * (1.0 + rel_tol) + abs_eps
                regressed = new_value > limit
            else:  # higher is better: fail on shrinkage
                limit = base_value * (1.0 - rel_tol) - abs_eps
                regressed = new_value < limit
        deltas.append(
            MetricDelta(
                name=name,
                base=base_value,
                new=new_value,
                direction=direction,
                regressed=regressed,
            )
        )
    return Comparison(base=base, new=new, deltas=deltas)


def check_floors(record: LedgerRecord) -> list[str]:
    """Within-run gate: each floored metric must meet its minimum."""
    failures: list[str] = []
    flat = record.flat_metrics()
    for name in sorted(record.floors):
        minimum = record.floors[name]
        value = flat.get(name)
        if value is None:
            failures.append(f"floor {name}: metric missing from record")
        elif value < minimum:
            failures.append(
                f"floor {name}: {value:.4f} < required {minimum:.4f}"
            )
    return failures


# -- rendering ---------------------------------------------------------


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_record(record: LedgerRecord) -> str:
    """Human-readable single-record view."""
    from repro.bench.reporting import format_table

    lines = [
        f"name:        {record.name}",
        f"created_at:  {record.created_at}",
        f"git_rev:     {record.git_rev or '-'}",
        f"fingerprint: {record.fingerprint or '-'}",
        f"host:        {record.host.get('platform', '-')}",
    ]
    flat = record.flat_metrics()
    rows = [[name, _fmt(value)] for name, value in flat.items()]
    table = format_table(["metric", "value"], rows, title="metrics")
    out = "\n".join(lines) + "\n\n" + table
    if record.floors:
        floor_rows = [
            [name, _fmt(minimum)]
            for name, minimum in sorted(record.floors.items())
        ]
        out += "\n\n" + format_table(
            ["metric", "floor"], floor_rows, title="floors"
        )
    return out


_DIRECTION_LABEL = {-1: "lower", 1: "higher", 0: "info"}


def render_comparison(comparison: Comparison) -> str:
    """Per-metric delta table; regressions are marked ``REGRESSED``."""
    from repro.bench.reporting import format_table

    rows = []
    for d in comparison.deltas:
        rel = d.rel_delta
        rows.append(
            [
                d.name,
                _fmt(d.base),
                _fmt(d.new),
                _fmt(d.delta),
                "-" if rel is None else f"{100.0 * rel:+.1f}%",
                _DIRECTION_LABEL[d.direction],
                "REGRESSED" if d.regressed else "ok",
            ]
        )
    title = (
        f"ledger compare: {comparison.base.name} "
        f"[{comparison.base.fingerprint or '?'}] -> "
        f"{comparison.new.name} [{comparison.new.fingerprint or '?'}]"
    )
    table = format_table(
        ["metric", "base", "new", "delta", "rel", "better", "status"],
        rows,
        title=title,
    )
    verdict = (
        "OK: no regressions beyond thresholds"
        if comparison.ok
        else f"FAIL: {len(comparison.regressions)} regression(s)"
    )
    return table + "\n\n" + verdict


# -- in-process run recording ------------------------------------------


class RunRecorder:
    """Builds a :class:`LedgerRecord` from a live traced run.

    Attach :meth:`consume` to the tracer via a
    :class:`~repro.obs.trace.CallbackSink`; phase spans feed the
    embedded :class:`~repro.device.profiler.Profiler`, named top-level
    spans are recorded as phases too, and span attributes carrying
    ``peak_bytes`` contribute to the device peak.
    """

    #: span names recorded as phases in addition to kind="phase" spans
    SPAN_PHASES = frozenset(
        {
            "buffalo.iteration",
            "train.epoch",
            "train.micro_batch",
            "pipeline.block_gen",
            "pipeline.stage_features",
            "pipeline.compute",
        }
    )

    def __init__(self) -> None:
        from repro.device.profiler import Profiler

        self.profiler = Profiler()
        self.span_phases: dict[str, dict[str, float]] = {}
        self.device_peak_bytes = 0.0

    def consume(self, event: dict) -> None:
        self.profiler.consume(event)
        if not isinstance(event, dict) or event.get("type") != "span":
            return
        name = event.get("name")
        if name in self.SPAN_PHASES:
            entry = self.span_phases.setdefault(
                name, {"wall_s": 0.0, "sim_s": 0.0, "count": 0}
            )
            entry["wall_s"] += float(event.get("duration_s", 0.0))
            entry["count"] += 1
        attrs = event.get("attrs")
        if isinstance(attrs, dict):
            peak = attrs.get("peak_bytes")
            if isinstance(peak, (int, float)):
                self.device_peak_bytes = max(
                    self.device_peak_bytes, float(peak)
                )

    def phases(self) -> dict[str, dict[str, float]]:
        """Merged phase table: profiler phases + recorded span phases."""
        merged: dict[str, dict[str, float]] = {}
        for name, record in self.profiler.phases.items():
            merged[name] = {
                "wall_s": record.wall_s,
                "sim_s": record.sim_s,
                "count": record.count,
            }
        for name, entry in self.span_phases.items():
            merged.setdefault(name, dict(entry))
        return merged


def flatten_numeric(
    data: Any, prefix: str = "", *, _out: dict[str, float] | None = None
) -> dict[str, float]:
    """Flatten nested dicts/lists to dotted-name scalar leaves.

    Non-numeric leaves (strings, None, bools) are dropped; list items
    are indexed (``a.0.b``).  Used to turn an experiment's ``data``
    payload into gateable ledger metrics.
    """
    out = _out if _out is not None else {}
    if isinstance(data, dict):
        for key in sorted(data, key=str):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            flatten_numeric(data[key], child_prefix, _out=out)
    elif isinstance(data, (list, tuple)):
        for index, item in enumerate(data):
            child_prefix = f"{prefix}.{index}" if prefix else str(index)
            flatten_numeric(item, child_prefix, _out=out)
    elif isinstance(data, bool):
        pass
    elif isinstance(data, (int, float)):
        if prefix:
            out[prefix] = float(data)
    return out
