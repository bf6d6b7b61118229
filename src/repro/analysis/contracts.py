"""Concurrency contract vocabulary: ``@locks_required`` and guarded-by.

The interprocedural concurrency pass (:mod:`repro.analysis.concurrency`)
verifies two kinds of declared invariants instead of guessing them:

* ``@locks_required("_lock")`` — the decorated method assumes the named
  instance lock(s) are already held by the caller.  The static pass
  (a) seeds the method's entry held-set with the declaration so writes
  in its body count as guarded, and (b) checks every resolved call site
  actually holds the lock(s), flagging the ones that don't
  (construction-phase callers are exempt: objects are published to
  other threads only after ``__init__`` returns).

* ``# guarded-by: <guard>`` — a trailing comment on the line that
  first assigns ``self.attr`` (conventionally in ``__init__``), naming
  the discipline that protects the attribute.  When ``<guard>`` names a
  lock attribute of the same class (``_lock`` or ``self._lock``), every
  post-construction mutation must hold that lock.  Any other text
  (e.g. ``caller-thread (worker joined before rearm)`` or
  ``event hand-off (_done barrier)``) records a documented non-lock
  discipline: the attribute is exempt from the escape check, but the
  reasoning is greppable and reviewed instead of implicit.

The decorator is metadata-only at runtime — zero overhead, and the
function object is returned unchanged so bound-method identity is
preserved.  :func:`assert_holds` is an optional runtime spot-check for
tests and debugging.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["LOCKS_REQUIRED_ATTR", "locks_required", "assert_holds"]

#: Attribute under which the declared lock names are stored.
LOCKS_REQUIRED_ATTR = "__locks_required__"


def locks_required(*lock_attrs: str):
    """Declare that callers must hold ``self.<attr>`` for each name.

    Usage::

        @locks_required("_lock")
        def _note_resident(self, transient_bytes: int) -> None:
            ...  # body may assume self._lock is held

    Names are instance-attribute names relative to ``self``; a leading
    ``self.`` is accepted and stripped.
    """
    cleaned = []
    for attr in lock_attrs:
        name = str(attr)
        if name.startswith("self."):
            name = name[len("self."):]
        if not name.isidentifier():
            raise ReproError(
                f"locks_required expects lock attribute names, got {attr!r}"
            )
        cleaned.append(name)
    if not cleaned:
        raise ReproError("locks_required needs at least one lock name")

    def decorate(func):
        setattr(func, LOCKS_REQUIRED_ATTR, tuple(cleaned))
        return func

    return decorate


def assert_holds(obj, lock_attr: str = "_lock") -> None:
    """Runtime spot-check: raise unless ``obj.<lock_attr>`` is held.

    Works for ``threading.Lock``/``RLock`` (``locked()``); best-effort
    no-op for lock types that cannot report their state.
    """
    lock = getattr(obj, lock_attr)
    locked = getattr(lock, "locked", None)
    if callable(locked) and not locked():
        raise ReproError(
            f"{type(obj).__name__}.{lock_attr} must be held here "
            f"(declared via locks_required/guarded-by)"
        )
