"""Span recording for the traced run, installed from outside ``repro``.

The benchmark measures ``repro`` through its public callables, so the
spans live here and not in ``src/``: :func:`installed` wraps each
layer's entry points (class methods on the class, module functions in
every ``repro.*`` namespace that imported them, a few instance
attributes, and ``gc.collect``), and removes every wrapper again on
exit.  A span is ``[name, parent, start, end]`` on a per-thread list;
nothing is reduced or written until the traced section has ended.

Span names are metric stems.  :func:`reduce_spans` turns them into

* ``self``: span duration minus the part its child spans cover, so the
  self times of one thread's spans sum to its root spans exactly;
* ``total``: duration of the spans not nested in a span of the same
  name (kernel primitives call each other);
* ``calls``: how many such outermost spans there were,

each split into the main thread and all other threads.

A target that no longer exists is skipped and reported in
``Tracer.missing``: later PRs may delete a feature and must still be
measurable with this file unchanged.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
import time
from contextlib import contextmanager

#: (span name, "module:Class", method) — patched on the class.
CLASS_METHODS = [
    ("core.schedule", "repro.core:BuffaloScheduler", "schedule"),
    ("core.microbatch_other", "repro.core:MicroBatchTrainer", "train_micro_batch"),
    ("core.iteration_other", "repro.core:BuffaloTrainer", "run_iteration"),
    ("pipeline.run_other", "repro.pipeline:PipelineEngine", "run"),
    ("tensor.backward", "repro.tensor:Tensor", "backward"),
    ("nn.linear", "repro.nn:Linear", "forward"),
    ("store.gather", "repro.store:FeatureStore", "gather"),
    ("store.prefetch", "repro.store:FeatureStore", "prefetch"),
    ("serve.queue_wait", "repro.serve:RequestQueue", "take_batch"),
    ("serve.submit", "repro.serve:RequestQueue", "submit"),
    ("serve.predict_other", "repro.serve:ServeEngine", "predict_batch"),
    ("serve.cache", "repro.serve:EmbeddingCache", "get"),
    ("serve.cache", "repro.serve:EmbeddingCache", "put"),
]

#: (span name, "module:function") — rebound wherever ``repro`` imported it.
MODULE_FUNCTIONS = [
    ("graph.sample", "repro.graph:sample_batch"),
    ("core.fastblock", "repro.core:generate_blocks_fast"),
    ("core.microbatch_gen", "repro.core:generate_micro_batches"),
    ("core.microbatch_gen", "repro.core.microbatch:materialize_micro_batch"),
    ("tensor.loss", "repro.tensor:cross_entropy_with_logits"),
]

#: Kernel primitives, patched on every ``KernelBackend`` subclass that
#: defines them (the active backend is whichever the trainer resolved).
KERNEL_BASE = "repro.kernels:KernelBackend"
KERNEL_PRIMITIVES = (
    "bucket_reduce",
    "bucket_weighted_sum",
    "bucket_attention_sum",
    "neighbor_tensor",
)


_ABSENT = object()


def resolve(target: str):
    """``"pkg.mod:attr"`` -> the object, or ``None`` when it is gone."""
    module_name, _, attr = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """In-memory span store with one stack and one span list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (is main thread, span list) per thread seen.
        self.threads: list[tuple[bool, list]] = []
        #: Probe targets that could not be found when installing.
        self.missing: list[str] = []
        #: Sums kept by count hooks, keyed by metric name.
        self.counts: dict[str, int] = {}

    def _register(self) -> tuple[list, list]:
        thread = threading.current_thread()
        spans: list = []
        stack: list = []
        self._local.spans = spans
        self._local.stack = stack
        with self._lock:
            self.threads.append((thread is threading.main_thread(), spans))
        return spans, stack

    def _open(self, name: str) -> tuple[list, list]:
        local = self._local
        try:
            spans, stack = local.spans, local.stack
        except AttributeError:
            spans, stack = self._register()
        record = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
        stack.append(len(spans))
        spans.append(record)
        return record, stack

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (the per-epoch root)."""
        record, stack = self._open(name)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around every call.

        ``count(args, result)`` may return ``(metric, increment)`` to
        keep an exact count of work seen at this boundary.
        """
        open_span = self._open
        clock = time.perf_counter
        counts = self.counts

        def probe(*args, **kwargs):
            record, stack = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if count is not None:
                metric, increment = count(args, result)
                counts[metric] = counts.get(metric, 0) + increment
            return result

        probe.__wrapped__ = fn
        return probe


def _input_nodes(args, _result):
    # BuffaloScheduler.schedule(self, batch, blocks): the full batch's
    # input-most block holds every node whose features are loaded.
    return "graph.input_nodes", int(args[2][0].n_src)


COUNT_HOOKS = {"core.schedule": _input_nodes}


@contextmanager
def installed(tracer: Tracer, *, model=None, optimizer=None,
              class_methods=None, module_functions=None):
    """Install every probe for the duration of the ``with`` block.

    ``model`` / ``optimizer`` are the live objects whose instance
    attributes (``forward``, each layer's ``aggregator.forward``,
    ``step``) are wrapped; the two list arguments default to this
    module's tables and exist so a test can name a missing target.
    """
    undo: list = []  # (setattr target, attribute, previous value or _ABSENT)

    def patch(obj, attr, value) -> None:
        previous = vars(obj).get(attr, _ABSENT)
        undo.append((obj, attr, previous))
        setattr(obj, attr, value)

    try:
        for name, target, method in (
            CLASS_METHODS if class_methods is None else class_methods
        ):
            cls = resolve(target)
            original = getattr(cls, method, None) if cls else None
            if original is None:
                tracer.missing.append(f"{target}.{method}")
                continue
            patch(cls, method, tracer.wrap(
                name, original, COUNT_HOOKS.get(name)
            ))

        for name, target in (
            MODULE_FUNCTIONS if module_functions is None else module_functions
        ):
            original = resolve(target)
            if original is None:
                tracer.missing.append(target)
                continue
            probe = tracer.wrap(name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch(module, attr, probe)

        base = resolve(KERNEL_BASE)
        if base is None:
            tracer.missing.append(KERNEL_BASE)
        else:
            pending = list(base.__subclasses__())
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                for method in KERNEL_PRIMITIVES:
                    if method in vars(cls):
                        patch(cls, method, tracer.wrap(
                            "kernels.forward", vars(cls)[method]
                        ))

        patch(gc, "collect", tracer.wrap("core.gc", gc.collect))

        if model is not None:
            patch(model, "forward", tracer.wrap(
                "gnn.forward_other", model.forward
            ))
            aggregators = [
                layer.aggregator
                for layer in getattr(model, "layers", [])
                if hasattr(getattr(layer, "aggregator", None), "forward")
            ]
            if not aggregators:
                tracer.missing.append("model.layers[*].aggregator.forward")
            for aggregator in aggregators:
                patch(aggregator, "forward", tracer.wrap(
                    "gnn.aggregate", aggregator.forward
                ))
        if optimizer is not None:
            patch(optimizer, "step", tracer.wrap(
                "nn.optimizer_step", optimizer.step
            ))
        yield tracer
    finally:
        for obj, attr, previous in reversed(undo):
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)


def reduce_spans(threads: list[tuple[bool, list]]) -> dict:
    """Aggregate spans into per-name totals.

    Returns ``{name: {"self": [main, other], "total": [main, other],
    "calls": [main, other]}}`` in seconds and counts, plus the key
    ``"<roots>"`` whose ``total`` is the duration of parentless spans.
    """
    out: dict = {}

    def slot(name):
        return out.setdefault(
            name, {"self": [0.0, 0.0], "total": [0.0, 0.0], "calls": [0, 0]}
        )

    for is_main, spans in threads:
        side = 0 if is_main else 1
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            entry = slot(name)
            entry["self"][side] += duration - covered[index]
            if parent < 0:
                slot("<roots>")["total"][side] += duration
            if parent < 0 or spans[parent][0] != name:
                entry["total"][side] += duration
                entry["calls"][side] += 1
    return out
