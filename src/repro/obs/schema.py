"""Trace-event schema: the contract between emitters and consumers.

Every line of a ``--trace`` JSONL file must validate against this
schema; the CI smoke test (``tests/obs/test_smoke_trace.py``) enforces
it end-to-end so emitter drift is caught before a consumer breaks.
"""

from __future__ import annotations

import json
import numbers

from repro.errors import ReproError

__all__ = [
    "METRIC_NAMES",
    "SchemaError",
    "validate_event",
    "validate_trace_file",
]

EVENT_TYPES = frozenset({"span", "event"})

#: Canonical registry of every ``buffalo.*`` metric name the pipeline
#: may emit.  Dashboards and comparison scripts key on these strings;
#: an unregistered name is a typo until proven otherwise, and the
#: ``metric-name`` lint rule enforces exactly that.  Add new metrics
#: here (with a schema-documented meaning) before emitting them.
METRIC_NAMES = frozenset(
    {
        # core training loop (core/api.py, core/fastblock.py,
        # core/scheduler.py, core/microbatch.py)
        "buffalo.oom_retries",
        "buffalo.iterations",
        "buffalo.micro_batches_per_iter",
        "buffalo.peak_mem_bytes",
        "buffalo.block_gen_calls",
        "buffalo.block_gen_nodes",
        "buffalo.schedules",
        "buffalo.groups_per_schedule",
        "buffalo.micro_batches_generated",
        # Eq. 1-2 estimator telemetry (obs/estimator.py)
        "buffalo.estimator_rel_error",
        "buffalo.estimator_predicted_bytes",
        "buffalo.estimator_actual_bytes",
        # the iteration loop (pipeline/engine.py)
        "buffalo.pipeline.staging_s",
        "buffalo.pipeline.iterations",
        # kernel layer (kernels/workspace.py, kernels/fused.py)
        "buffalo.kernel.workspace_bytes",
        "buffalo.kernel.workspace_peak_bytes",
        "buffalo.kernel.workspace_hits",
        "buffalo.kernel.workspace_allocs",
        "buffalo.kernel.reduce_calls",
        "buffalo.kernel.dense_fallbacks",
        # out-of-core store (store/feature_store.py)
        "buffalo.store.peak_resident_bytes",
        "buffalo.store.disk_bytes_read",
        "buffalo.store.gather_s",
        "buffalo.store.gather_bytes",
        # multi-device fleet (core/split_parallel.py)
        "buffalo.device.count",
        "buffalo.device.peak_bytes",
        "buffalo.device.halo_bytes",
        "buffalo.device.allreduce_bytes",
        "buffalo.device.halo_exchange_s",
        "buffalo.device.allreduce_s",
        # online serving tier (serve/request.py, serve/engine.py,
        # serve/cache.py, serve/server.py, serve/sim.py)
        "buffalo.serve.requests_total",
        "buffalo.serve.admitted_total",
        "buffalo.serve.rejected_total",
        "buffalo.serve.queue_depth",
        "buffalo.serve.queue_wait_s",
        "buffalo.serve.request_latency_s",
        "buffalo.serve.batches_total",
        "buffalo.serve.batch_occupancy",
        "buffalo.serve.batch_compute_s",
        "buffalo.serve.batch_edges",
        "buffalo.serve.predictions_total",
        "buffalo.serve.embed_cache_hits",
        "buffalo.serve.embed_cache_misses",
        "buffalo.serve.embed_cache_evictions",
        "buffalo.serve.embed_cache_bytes",
        "buffalo.serve.invalidations_total",
        "buffalo.serve.snapshot_rows",
    }
)

# field name -> (required, type-check predicate, description)
_NUMBER = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
_FIELDS = {
    "v": (True, lambda v: v == 1, "schema version 1"),
    "type": (True, lambda v: v in EVENT_TYPES, "span|event"),
    "name": (
        True,
        lambda v: isinstance(v, str) and len(v) > 0,
        "non-empty string",
    ),
    "kind": (True, lambda v: isinstance(v, str), "string"),
    "span_id": (
        True,
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        "non-negative int",
    ),
    "parent_id": (
        True,
        lambda v: v is None
        or (isinstance(v, int) and not isinstance(v, bool) and v >= 0),
        "null or non-negative int",
    ),
    "ts": (True, _NUMBER, "unix seconds"),
    "duration_s": (
        True,
        lambda v: _NUMBER(v) and v >= 0,
        "non-negative seconds",
    ),
    "attrs": (True, lambda v: isinstance(v, dict), "object"),
    # Optional since schema v1 events predate it; the critical-path
    # profiler needs it to separate pipeline worker threads from the
    # main compute thread.
    "thread": (
        False,
        lambda v: isinstance(v, str) and len(v) > 0,
        "non-empty string (emitting thread name)",
    ),
}


class SchemaError(ReproError):
    """A trace event violates the schema."""


def validate_event(event: object) -> list[str]:
    """Return schema violations of one event (empty list = valid)."""
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    errors = []
    for field, (required, check, description) in _FIELDS.items():
        if field not in event:
            if required:
                errors.append(f"missing field {field!r} ({description})")
            continue
        if not check(event[field]):
            errors.append(
                f"field {field!r} invalid: {event[field]!r} "
                f"(expected {description})"
            )
    for field in event:
        if field not in _FIELDS:
            errors.append(f"unknown field {field!r}")
    return errors


def validate_trace_file(path: str, *, allow_partial_tail: bool = True) -> int:
    """Validate every line of a JSONL trace; returns the event count.

    A torn *final* line (a producer interrupted mid-write) is skipped
    when ``allow_partial_tail`` is true; malformed JSON anywhere else,
    or a schema-invalid event, raises with the offending line number.

    Raises:
        SchemaError: on the first malformed line or invalid event.
    """
    raw: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped:
                raw.append((lineno, stripped))
    count = 0
    last_index = len(raw) - 1
    for index, (lineno, line) in enumerate(raw):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            # A torn tail needs at least one complete line before it.
            if index == last_index and index > 0 and allow_partial_tail:
                break
            raise SchemaError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        errors = validate_event(event)
        if errors:
            raise SchemaError(
                f"{path}:{lineno}: invalid event: {'; '.join(errors)}"
            )
        count += 1
    return count
