"""Memory timeline: per-iteration multi-tier resident-bytes sampling.

The recorder subscribes to the three memory tiers of a Buffalo run —

* **device** — :class:`~repro.device.device.SimulatedGPU` allocation
  ledger (``live_bytes`` / ``peak_bytes``);
* **store** — :class:`~repro.store.feature_store.FeatureStore`
  host-resident bytes (hot cache + slots);
* **workspace** — the kernel :class:`~repro.kernels.workspace.Workspace`
  arena bytes;

and takes one labelled sample per micro-batch (plus iteration
boundaries), producing the real-run analogue of the paper's Fig. 6
memory-over-time plot.  Samples export as JSONL and render as an
aligned ASCII table or CSV via ``repro trace timeline``.

Disabled-mode cost: the trainer hook is a single ``is not None`` check;
no recorder object exists unless ``--timeline`` was passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError

__all__ = [
    "MemoryTimelineRecorder",
    "TimelineSample",
    "load_timeline",
    "render_timeline",
    "write_timeline",
]

TIMELINE_VERSION = 1

TIERS = ("device", "store", "workspace")


class TimelineError(ReproError):
    """Malformed timeline file or sample."""


@dataclass(frozen=True)
class TimelineSample:
    """One multi-tier snapshot."""

    index: int
    iteration: int
    label: str
    t_s: float
    device_live_bytes: float
    device_peak_bytes: float
    store_resident_bytes: float
    workspace_bytes: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": TIMELINE_VERSION,
            "index": self.index,
            "iteration": self.iteration,
            "label": self.label,
            "t_s": self.t_s,
            "device_live_bytes": self.device_live_bytes,
            "device_peak_bytes": self.device_peak_bytes,
            "store_resident_bytes": self.store_resident_bytes,
            "workspace_bytes": self.workspace_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimelineSample":
        # Unknown keys are ignored, so files written while the timeline
        # still had a ``cache_resident_bytes`` tier keep loading.
        try:
            return cls(
                index=int(data["index"]),
                iteration=int(data["iteration"]),
                label=str(data["label"]),
                t_s=float(data["t_s"]),
                device_live_bytes=float(data["device_live_bytes"]),
                device_peak_bytes=float(data["device_peak_bytes"]),
                store_resident_bytes=float(data["store_resident_bytes"]),
                workspace_bytes=float(data["workspace_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TimelineError(f"malformed timeline sample: {exc}") from exc


class MemoryTimelineRecorder:
    """Samples the three memory tiers on demand.

    Any tier source may be ``None`` (e.g. an in-memory run has no
    feature store); that tier then reads 0.  Sources are read through
    their public byte properties, so sampling allocates nothing on the
    instrumented objects.
    """

    def __init__(
        self,
        device: Any = None,
        store: Any = None,
        workspace: Any = None,
        *,
        max_samples: int = 100_000,
    ) -> None:
        self.device = device
        self.store = store
        self.workspace = workspace
        self.max_samples = int(max_samples)
        self.samples: list[TimelineSample] = []
        self.dropped = 0
        self._iteration = 0
        import time

        self._clock = time.perf_counter
        self._t0 = self._clock()

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = int(iteration)
        self.sample("iteration_begin")

    @staticmethod
    def _read(obj: Any, attr: str) -> float:
        if obj is None:
            return 0.0
        value = getattr(obj, attr, 0)
        return float(value() if callable(value) else value)

    def sample(self, label: str) -> TimelineSample | None:
        """Record one snapshot; returns it (None once at capacity)."""
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return None
        s = TimelineSample(
            index=len(self.samples),
            iteration=self._iteration,
            label=label,
            t_s=self._clock() - self._t0,
            device_live_bytes=self._read(self.device, "live_bytes"),
            device_peak_bytes=self._read(self.device, "peak_bytes"),
            store_resident_bytes=self._read(self.store, "resident_bytes"),
            workspace_bytes=self._read(self.workspace, "nbytes"),
        )
        self.samples.append(s)
        return s

    def tier_peaks(self) -> dict[str, float]:
        """Maximum observed bytes per tier across all samples."""
        peaks = {tier: 0.0 for tier in TIERS}
        for s in self.samples:
            peaks["device"] = max(peaks["device"], s.device_live_bytes,
                                  s.device_peak_bytes)
            peaks["store"] = max(peaks["store"], s.store_resident_bytes)
            peaks["workspace"] = max(peaks["workspace"], s.workspace_bytes)
        return peaks

    def to_jsonl(self, path: str) -> None:
        write_timeline(path, self.samples)


def write_timeline(path: str, samples: list[TimelineSample]) -> None:
    """Write samples as one compact JSON object per line."""
    import os

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_dict(), separators=(",", ":")))
            fh.write("\n")


def load_timeline(path: str) -> list[TimelineSample]:
    """Read a timeline JSONL file, tolerating a torn trailing line."""
    from repro.obs.trace import TraceReadError, read_trace_events

    try:
        events, _skipped = read_trace_events(path, allow_partial_tail=True)
    except TraceReadError as exc:
        raise TimelineError(str(exc)) from exc
    return [TimelineSample.from_dict(e) for e in events]


def _fmt_bytes(value: float) -> str:
    if value >= 1024 * 1024:
        return f"{value / (1024 * 1024):.2f}M"
    if value >= 1024:
        return f"{value / 1024:.1f}K"
    return f"{value:.0f}"


def render_timeline(
    samples: list[TimelineSample], *, csv: bool = False, width: int = 24
) -> str:
    """Aligned ASCII (default) or CSV view of a timeline.

    The ASCII view appends a bar column scaling device live bytes
    against the run-wide maximum across all tiers, giving a quick
    Fig. 6-style silhouette in the terminal.
    """
    header = [
        "idx", "iter", "label", "t_s",
        "device_live", "device_peak", "store", "workspace",
    ]
    if csv:
        lines = [",".join(header)]
        for s in samples:
            lines.append(
                ",".join(
                    [
                        str(s.index),
                        str(s.iteration),
                        s.label,
                        f"{s.t_s:.6f}",
                        f"{s.device_live_bytes:.0f}",
                        f"{s.device_peak_bytes:.0f}",
                        f"{s.store_resident_bytes:.0f}",
                        f"{s.workspace_bytes:.0f}",
                    ]
                )
            )
        return "\n".join(lines)

    from repro.bench.reporting import format_table

    scale = max(
        [s.device_live_bytes for s in samples] + [1.0]
    )
    rows = []
    for s in samples:
        bar = "#" * max(
            0, min(width, round(width * s.device_live_bytes / scale))
        )
        rows.append(
            [
                s.index,
                s.iteration,
                s.label,
                f"{s.t_s:.4f}",
                _fmt_bytes(s.device_live_bytes),
                _fmt_bytes(s.device_peak_bytes),
                _fmt_bytes(s.store_resident_bytes),
                _fmt_bytes(s.workspace_bytes),
                bar,
            ]
        )
    return format_table(
        header + ["device_live_bar"],
        rows,
        title=f"memory timeline ({len(samples)} samples)",
    )
