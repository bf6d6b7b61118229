"""``repro.obs.observatory`` — cross-run performance observability.

Three parts (ISSUE 6):

* :mod:`~repro.obs.observatory.ledger` — durable, schema-versioned
  per-run performance records appended to ``benchmarks/ledger/*.jsonl``
  with cross-run regression gating (``repro ledger``);
* :mod:`~repro.obs.observatory.timeline` — sampling recorder for the
  three memory tiers (device ledger, feature store, kernel
  workspace), the real-run analogue of the paper's Fig. 6;
* :mod:`~repro.obs.observatory.critical_path` — execution-DAG
  reconstruction from thread-tagged spans: critical-path vs. overlapped
  slack attribution plus folded-stacks export for flamegraph tools.

See ``docs/observatory.md`` for the worked tour.
"""

from repro.obs.observatory.critical_path import (
    CriticalPathReport,
    build_critical_path,
    render_critical_path,
    write_folded_stacks,
)
from repro.obs.observatory.ledger import (
    LEDGER_VERSION,
    Comparison,
    LedgerError,
    LedgerRecord,
    MetricDelta,
    RunRecorder,
    Thresholds,
    append_record,
    check_floors,
    compare_records,
    read_ledger,
    render_comparison,
    render_record,
    resolve_record_spec,
)
from repro.obs.observatory.timeline import (
    MemoryTimelineRecorder,
    TimelineSample,
    load_timeline,
    render_timeline,
    write_timeline,
)

__all__ = [
    "LEDGER_VERSION",
    "Comparison",
    "CriticalPathReport",
    "LedgerError",
    "LedgerRecord",
    "MemoryTimelineRecorder",
    "MetricDelta",
    "RunRecorder",
    "Thresholds",
    "TimelineSample",
    "append_record",
    "build_critical_path",
    "check_floors",
    "compare_records",
    "load_timeline",
    "read_ledger",
    "render_comparison",
    "render_critical_path",
    "render_record",
    "render_timeline",
    "resolve_record_spec",
    "write_folded_stacks",
    "write_timeline",
]
