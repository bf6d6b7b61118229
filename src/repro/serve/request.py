"""Serving request/response types and the admission-controlled queue.

The queue is the serving tier's only intake: every prediction request
passes admission control *at submit time* (bounded waiting room,
explicit reject reasons) and then waits to be coalesced into a
fixed-shape batch by degree key.  Rejection is immediate and carries a
machine-readable reason — an overloaded server sheds load at the door
instead of timing out deep in the pipeline.

Thread discipline: one lock per object (``RequestQueue._lock``), held
for every shared read-modify-write; the paired condition variable
wraps the same lock so waiters park without busy-polling.
``repro lint``'s whole-program lock analysis checks this file.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS, get_metrics

#: Machine-readable admission/ completion failure reasons.
REJECT_QUEUE_FULL = "queue_full"
REJECT_INVALID_NODE = "invalid_node"
REJECT_SHUTDOWN = "shutdown"

REJECT_REASONS = frozenset(
    {REJECT_QUEUE_FULL, REJECT_INVALID_NODE, REJECT_SHUTDOWN}
)


class ServeRejected(ReproError):
    """A request was refused admission (or the server shut down on it)."""

    def __init__(self, request_id: int, reason: str) -> None:
        super().__init__(
            f"request {request_id} rejected: {reason} "
            f"(known reasons: {sorted(REJECT_REASONS)})"
        )
        self.request_id = request_id
        self.reason = reason


@dataclass
class ServeRequest:
    """One node-prediction request.

    Attributes:
        request_id: queue-assigned monotone id (also the tie-breaker
            for deterministic batch ordering).
        node: global node id to predict for.
        arrival_s: submission timestamp — wall ``perf_counter`` on the
            live path, virtual seconds in the simulator.
    """

    request_id: int
    node: int
    arrival_s: float


@dataclass
class ServeResponse:
    """The prediction produced for one request."""

    request_id: int
    node: int
    logits: np.ndarray
    latency_s: float
    batch_id: int
    batch_size: int
    cache_hit: bool


class PendingRequest:
    """Caller-side handle: blocks on :meth:`result` until fulfilled.

    Mutated only by the queue/server (fulfil or reject) before its
    event is set, then read by the caller — the event's memory barrier
    orders the hand-off, so no extra lock is needed here.
    """

    __slots__ = ("request", "_done", "_response", "_reject_reason")

    def __init__(self, request: ServeRequest) -> None:
        self.request = request
        self._done = threading.Event()
        # Written by exactly one worker before _done.set(); the Event
        # is the publication barrier the caller waits behind.
        self._response: ServeResponse | None = None  # guarded-by: event hand-off (_done barrier)
        self._reject_reason: str | None = None  # guarded-by: event hand-off (_done barrier)

    @property
    def rejected(self) -> bool:
        return self._reject_reason is not None

    @property
    def reject_reason(self) -> str | None:
        return self._reject_reason

    def _fulfill(self, response: ServeResponse) -> None:
        self._response = response
        self._done.set()

    def _reject(self, reason: str) -> None:
        self._reject_reason = reason
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServeResponse:
        """Block until the prediction is ready.

        Raises:
            ServeRejected: the request was refused or shut down on.
            ReproError: ``timeout`` elapsed first.
        """
        if not self._done.wait(timeout):
            raise ReproError(
                f"request {self.request.request_id} still pending after "
                f"{timeout}s"
            )
        if self._response is None:
            raise ServeRejected(
                self.request.request_id, self._reject_reason or "unknown"
            )
        return self._response


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs: how long a request may wait for company.

    Attributes:
        max_batch: dispatch a degree-key group as soon as it holds this
            many requests.
        max_wait_s: dispatch a non-full group once its oldest request
            has waited this long (the latency the operator trades for
            occupancy).
        max_queue_depth: admission bound — requests admitted but not
            yet dispatched to compute; arrivals beyond it are rejected
            with ``queue_full``.
    """

    max_batch: int = 16
    max_wait_s: float = 2e-3
    max_queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ReproError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


class RequestQueue:
    """Bounded admission queue feeding the batch coalescer.

    Args:
        max_depth: waiting-room capacity (admitted, not yet taken).
        n_nodes: when given, out-of-range node ids are rejected with
            ``invalid_node`` instead of failing inside the engine.
    """

    def __init__(self, max_depth: int, *, n_nodes: int | None = None) -> None:
        if max_depth < 1:
            raise ReproError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.n_nodes = n_nodes
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._items: list[PendingRequest] = []  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        metrics = get_metrics()
        self._m_requests = metrics.counter(
            "buffalo.serve.requests_total", help="requests submitted"
        )
        self._m_admitted = metrics.counter(
            "buffalo.serve.admitted_total", help="requests admitted"
        )
        self._m_rejected = metrics.counter(
            "buffalo.serve.rejected_total", help="requests rejected"
        )
        self._m_depth = metrics.gauge(
            "buffalo.serve.queue_depth", help="requests waiting for dispatch"
        )
        self._m_wait = metrics.histogram(
            "buffalo.serve.queue_wait_s",
            buckets=LATENCY_SECONDS_BUCKETS,
            help="submit-to-dispatch wait",
        )

    def submit(
        self, node: int, *, arrival_s: float | None = None
    ) -> PendingRequest:
        """Admit (or reject) one request; never blocks.

        Returns a :class:`PendingRequest`; a rejected one is already
        done with its :attr:`~PendingRequest.reject_reason` set.
        """
        if arrival_s is None:
            arrival_s = time.perf_counter()
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            self._m_requests.inc()
            pending = PendingRequest(
                ServeRequest(request_id, int(node), float(arrival_s))
            )
            reason = None
            if self._closed:
                reason = REJECT_SHUTDOWN
            elif self.n_nodes is not None and not (
                0 <= int(node) < self.n_nodes
            ):
                reason = REJECT_INVALID_NODE
            elif len(self._items) >= self.max_depth:
                reason = REJECT_QUEUE_FULL
            if reason is not None:
                self._m_rejected.inc()
                pending._reject(reason)
                return pending
            self._m_admitted.inc()
            self._items.append(pending)
            self._m_depth.set(len(self._items))
            self._cond.notify_all()
            return pending

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def take_batch(
        self,
        policy: BatchPolicy,
        key_fn,
        *,
        clock=time.perf_counter,
    ) -> list[PendingRequest] | None:
        """Block for the next coalesced same-key batch (FIFO head's key).

        Waits until the oldest waiting request's degree-key group is
        full (``policy.max_batch``) or has aged past
        ``policy.max_wait_s``, then removes and returns it.  Returns
        ``None`` once the queue is closed and drained.
        """
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            head = self._items[0]
            key = key_fn(head.request.node)
            deadline = head.request.arrival_s + policy.max_wait_s
            while True:
                matching = [
                    p
                    for p in self._items
                    if key_fn(p.request.node) == key
                ]
                if len(matching) >= policy.max_batch or self._closed:
                    break
                remaining = deadline - clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            # close() may have drained the queue while we waited.
            alive = {id(p) for p in self._items}
            batch = [p for p in matching if id(p) in alive][: policy.max_batch]
            if not batch:
                return None
            taken = {id(p) for p in batch}
            self._items = [p for p in self._items if id(p) not in taken]
            self._m_depth.set(len(self._items))
            now = clock()
            for p in batch:
                self._m_wait.observe(max(0.0, now - p.request.arrival_s))
            return batch

    def close(self) -> list[PendingRequest]:
        """Stop admitting; wake waiters; return still-queued requests.

        The caller (the server) decides whether to serve or reject the
        returned residue — the queue itself only stops intake.
        """
        with self._lock:
            self._closed = True
            residue = list(self._items)
            self._items = []
            self._m_depth.set(0)
            self._cond.notify_all()
            return residue

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        return (
            f"RequestQueue(depth={self.depth()}/{self.max_depth}, "
            f"closed={self.closed})"
        )
