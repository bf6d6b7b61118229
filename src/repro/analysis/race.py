"""Runtime race detection: :class:`RaceSentinel`.

The static lock-discipline pass sees the code; the sentinel sees the
*execution*.  It instruments a live object so that every attribute
mutation records the mutating thread, and a mutation from a second
thread that does **not** hold the object's lock raises
:class:`RaceError` at the exact write — turning a once-a-week torn
counter into a deterministic test failure.  The concurrent-gather
tests enable it around :class:`~repro.store.feature_store
.FeatureStore` so any future unguarded write fails loudly in CI.

Mechanics (no object cooperation required):

* the object's ``threading.Lock``/``RLock`` attribute is replaced with
  a :class:`TrackedLock` proxy that records the owning thread;
* the object's class is swapped for a dynamically created subclass
  whose ``__setattr__``/``__delattr__`` consult the sentinel before
  delegating, so *internal* ``self.x = ...`` writes are checked too;
* a write is legal when (a) the tracked lock is held by the writing
  thread, or (b) the writer is the thread that attached the sentinel
  (the *home* thread) and no other thread has ever written that
  attribute — the single-threaded construction/teardown phases every
  threaded object has.

``RaceSentinel(obj)`` is also a context manager; on exit the original
class and lock are restored.  Overhead is one dict lookup per setattr,
so it is strictly opt-in (tests), never production-path.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import ReproError

__all__ = ["RaceError", "RaceSentinel", "TrackedLock"]


class RaceError(ReproError):
    """An unsynchronized cross-thread mutation was detected."""


class TrackedLock:
    """Lock proxy recording the owning thread (supports Lock and RLock)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._owner: int | None = None
        self._depth = 0

    def acquire(self, *args, **kwargs) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._owner = threading.get_ident()
            self._depth += 1
        return acquired

    def release(self) -> None:
        self._depth -= 1
        if self._depth <= 0:
            self._owner = None
            self._depth = 0
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()


class RaceSentinel:
    """Attach per-mutation owner-thread checking to one object.

    Args:
        obj: the object to instrument (a normal Python object; classes
            with ``__slots__`` are not supported).
        lock_attr: name of the object's lock attribute (replaced by a
            :class:`TrackedLock` for the sentinel's lifetime).
        raise_on_race: raise :class:`RaceError` at the offending write
            (default); ``False`` only records into :attr:`violations`
            (for soak-style assertions at the end of a test).
        ignore: attribute names exempt from checking (scratch state the
            caller knows is thread-confined).

    Usage::

        with RaceSentinel(store, lock_attr="_lock") as sentinel:
            ... run threaded pipeline ...
        assert sentinel.violations == []
    """

    _SENTINEL_FIELD = "__race_sentinel__"

    def __init__(
        self,
        obj: Any,
        *,
        lock_attr: str = "_lock",
        raise_on_race: bool = True,
        ignore: tuple[str, ...] = (),
    ) -> None:
        self.obj = obj
        self.lock_attr = lock_attr
        self.raise_on_race = raise_on_race
        self.ignore = frozenset(ignore) | {self._SENTINEL_FIELD, lock_attr}
        self.home_thread = threading.get_ident()
        self.violations: list[str] = []
        self._writers: dict[str, set[int]] = {}
        self._original_class: type | None = None
        self._original_lock = None
        self._tracked: TrackedLock | None = None

    # ------------------------------------------------------------------
    def attach(self) -> "RaceSentinel":
        if getattr(self.obj, self._SENTINEL_FIELD, None) is not None:
            raise RaceError(
                f"{type(self.obj).__name__} already has a RaceSentinel"
            )
        lock = getattr(self.obj, self.lock_attr, None)
        if lock is None:
            raise RaceError(
                f"{type(self.obj).__name__} has no lock attribute "
                f"{self.lock_attr!r} to track"
            )
        self._original_lock = lock
        self._tracked = TrackedLock(lock)
        cls = type(self.obj)
        self._original_class = cls
        sentinel = self

        def checked_setattr(instance, name, value):
            sentinel._check(name)
            object.__setattr__(instance, name, value)

        def checked_delattr(instance, name):
            sentinel._check(name)
            object.__delattr__(instance, name)

        instrumented = type(
            f"Sentinel{cls.__name__}",
            (cls,),
            {
                "__setattr__": checked_setattr,
                "__delattr__": checked_delattr,
            },
        )
        object.__setattr__(self.obj, self.lock_attr, self._tracked)
        object.__setattr__(self.obj, self._SENTINEL_FIELD, self)
        self.obj.__class__ = instrumented
        return self

    def detach(self) -> None:
        if self._original_class is None:
            return
        self.obj.__class__ = self._original_class
        object.__setattr__(self.obj, self.lock_attr, self._original_lock)
        object.__delattr__(self.obj, self._SENTINEL_FIELD)
        self._original_class = None

    def __enter__(self) -> "RaceSentinel":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _check(self, name: str) -> None:
        if name in self.ignore:
            return
        ident = threading.get_ident()
        writers = self._writers.setdefault(name, set())
        if self._tracked is not None and (
            self._tracked.held_by_current_thread()
        ):
            writers.add(ident)
            return
        # Lock not held: legal only during the single-threaded phase —
        # the home thread writing an attribute no other thread has
        # written.
        if ident == self.home_thread and writers <= {self.home_thread}:
            writers.add(ident)
            return
        message = (
            f"unsynchronized cross-thread write to "
            f"{self._original_class.__name__}.{name}: thread {ident} "
            f"mutated it without holding "
            f"'{self.lock_attr}' (prior writers: {sorted(writers)}, "
            f"home thread: {self.home_thread})"
        )
        self.violations.append(message)
        if self.raise_on_race:
            raise RaceError(message)
        writers.add(ident)
