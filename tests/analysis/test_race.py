"""RaceSentinel: runtime detection of unsynchronized cross-thread writes."""

import threading

import pytest

from repro.analysis.race import RaceError, RaceSentinel, TrackedLock


class Counter:
    """Minimal lock-owning object mirroring FeatureStore's discipline."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump_guarded(self):
        with self._lock:
            self.count += 1

    def bump_racy(self):
        self.count += 1  # repro: noqa[thread-escape] deliberate race: RaceSentinel's target


def run_in_thread(fn):
    error: list[BaseException] = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            error.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    return error


class TestTrackedLock:
    def test_records_owner_thread(self):
        lock = TrackedLock(threading.Lock())
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_rlock_depth(self):
        lock = TrackedLock(threading.RLock())
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()


class TestRaceSentinel:
    def test_cross_thread_unguarded_write_raises(self):
        obj = Counter()
        with RaceSentinel(obj) as sentinel:
            errors = run_in_thread(obj.bump_racy)
        assert len(errors) == 1
        assert isinstance(errors[0], RaceError)
        assert "count" in str(errors[0])
        assert sentinel.violations

    def test_guarded_writes_from_any_thread_pass(self):
        obj = Counter()
        with RaceSentinel(obj) as sentinel:
            obj.bump_guarded()
            assert run_in_thread(obj.bump_guarded) == []
            threads = [
                threading.Thread(target=obj.bump_guarded) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sentinel.violations == []
        assert obj.count == 10

    def test_home_thread_unguarded_write_passes(self):
        # Construction/teardown phases run unlocked on the owning thread.
        obj = Counter()
        with RaceSentinel(obj) as sentinel:
            obj.count = 5
            obj.bump_racy()
        assert sentinel.violations == []
        assert obj.count == 6

    def test_record_only_mode_collects_without_raising(self):
        obj = Counter()
        with RaceSentinel(obj, raise_on_race=False) as sentinel:
            assert run_in_thread(obj.bump_racy) == []
        assert len(sentinel.violations) == 1

    def test_detach_restores_class_and_lock(self):
        obj = Counter()
        original_class = type(obj)
        original_lock = obj._lock
        with RaceSentinel(obj):
            assert type(obj) is not original_class
            assert isinstance(obj._lock, TrackedLock)
        assert type(obj) is original_class
        assert obj._lock is original_lock

    def test_requires_a_lock_attribute(self):
        class Lockless:
            pass

        with pytest.raises(RaceError, match="no lock attribute"):
            RaceSentinel(Lockless()).attach()

    def test_double_instrumentation_is_rejected(self):
        obj = Counter()
        with RaceSentinel(obj):
            with pytest.raises(RaceError, match="already"):
                RaceSentinel(obj).attach()

    def test_ignored_attributes_are_exempt(self):
        obj = Counter()
        with RaceSentinel(obj, ignore=("count",)) as sentinel:
            assert run_in_thread(obj.bump_racy) == []
        assert sentinel.violations == []
