"""Whole-program concurrency pass: seeded bugs with exact locations.

Each fixture module seeds one finding family — a lock-order cycle or
self-deadlock, blocking under a held lock, an unguarded thread-escape
or lock-free write to a lock-protected attribute, and violated
``guarded-by`` contracts — and the tests pin the exact ``file:line``
the analyzer reports, plus the negative cases (condition-wrapped waits,
guarded writes, construction-phase writes, textual disciplines) that
must stay silent.
"""

from pathlib import Path

import pytest

from repro.analysis.runner import iter_source_files, run_lint

CONCURRENCY = [
    "lock-order",
    "blocking-under-lock",
    "thread-escape",
    "lock-contract",
]

#: ABBA deadlock inside one class: fwd() takes _la then _lb, bwd()
#: takes _lb then _la.
PAIR = """\
import threading


class Pair:
    def __init__(self):
        self._la = threading.Lock()
        self._lb = threading.Lock()

    def fwd(self):
        with self._la:
            with self._lb:
                pass

    def bwd(self):
        with self._lb:
            with self._la:
                pass
"""

#: Cross-module half-cycle: Store.sync holds Store._lock and calls
#: Registry.flush (takes Registry._lock)...
STORE = """\
import threading

from repro.core.fx_reg import Registry


class Store:
    def __init__(self, reg: Registry):
        self._lock = threading.Lock()
        self.reg = reg

    def sync(self):
        with self._lock:
            self.reg.flush()

    def append(self):
        with self._lock:
            pass
"""

#: ... while Registry.drain holds Registry._lock and calls
#: Store.append (takes Store._lock).  The cycle only exists in the
#: whole-program graph; neither module is cyclic alone.
REG = """\
import threading

from repro.core.fx_store import Store


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.store = None

    def bind(self, store: Store) -> None:
        self.store = store

    def flush(self):
        with self._lock:
            pass

    def drain(self):
        with self._lock:
            self.store.append()
"""

#: Blocking under a held lock: a direct queue wait, a transitive one
#: through _read()'s file I/O, and the canonical Condition idiom that
#: must NOT be flagged (wait() releases the wrapped lock).
BLOCK = """\
import queue
import threading


class Staging:
    def __init__(self):
        self._lock = threading.Lock()
        self._q = queue.Queue()

    def pull(self):
        with self._lock:
            return self._q.get()

    def load(self):
        with self._lock:
            return self._read()

    def _read(self):
        with open("weights.bin", "rb") as f:
            return f.read()


class CondOK:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._ready = False

    def wait_ready(self):
        with self._cond:
            while not self._ready:
                self._cond.wait()
"""

#: Thread-escape: _run is a Thread target, so Worker is shared; the
#: unguarded writes to _items and count must be flagged, the locked
#: write to _safe must not.
ESCAPE = """\
import threading


class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self.count = 0
        self._safe = []

    def start(self):
        worker = threading.Thread(target=self._run)
        worker.start()

    def _run(self):
        self._items.append(1)
        self.count += 1
        with self._lock:
            self._safe.append(2)
"""

#: Contract vocabulary: a guarded-by write without the lock, a helper
#: whose guarded write runs lock-free because one caller does not hold
#: the lock, a guard naming a nonexistent lock, and the exempt cases
#: (textual discipline, helper calls and writes under the lock).
CONTRACT = """\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0  # guarded-by: _lock
        self._m = 0  # guarded-by: _nope
        self._log = []  # guarded-by: caller-thread (single writer)

    def start(self):
        threading.Thread(target=self.spin).start()

    def spin(self):
        self.bump()

    def bump(self):
        self._n += 1

    def note(self):
        self._log.append("x")

    def _flush(self):
        self._n = 0

    def reset(self):
        self._flush()

    def wipe(self):
        self._m = 3

    def reset_locked(self):
        with self._lock:
            self._flush()
            self._n = 5
"""


def _lint(project, **kwargs):
    kwargs.setdefault("rules", CONCURRENCY)
    return project.lint(**kwargs)


def _locs(result, rule):
    return [(f.path, f.line) for f in result.findings if f.rule == rule]


class TestLockOrder:
    def test_abba_cycle_with_exact_location(self, project):
        project.write("src/repro/core/fx_pair.py", PAIR)
        result = _lint(project)
        assert _locs(result, "lock-order") == [
            ("src/repro/core/fx_pair.py", 11)
        ]
        (finding,) = [f for f in result.findings if f.rule == "lock-order"]
        assert "potential deadlock" in finding.message
        assert "Pair._la" in finding.message
        assert "Pair._lb" in finding.message

    def test_cross_module_cycle_is_interprocedural(self, project):
        project.write("src/repro/core/fx_store.py", STORE)
        project.write("src/repro/core/fx_reg.py", REG)
        result = _lint(project)
        (finding,) = [f for f in result.findings if f.rule == "lock-order"]
        assert "Store._lock" in finding.message
        assert "Registry._lock" in finding.message

    def test_consistent_order_is_clean(self, project):
        # Same two locks, both methods agree on the order: no cycle.
        project.write(
            "src/repro/core/fx_ok.py",
            PAIR.replace(
                "        with self._lb:\n            with self._la:",
                "        with self._la:\n            with self._lb:",
            ),
        )
        assert _lint(project).findings == []


class TestBlockingUnderLock:
    def test_direct_and_transitive_with_exact_locations(self, project):
        project.write("src/repro/core/fx_block.py", BLOCK)
        result = _lint(project)
        locs = _locs(result, "blocking-under-lock")
        assert ("src/repro/core/fx_block.py", 12) in locs  # queue get
        assert ("src/repro/core/fx_block.py", 16) in locs  # via _read()
        by_line = {
            f.line: f.message
            for f in result.findings
            if f.rule == "blocking-under-lock"
        }
        assert "queue wait" in by_line[12]
        assert "_read" in by_line[16] and "file I/O" in by_line[16]

    def test_condition_wait_under_wrapped_lock_is_exempt(self, project):
        cond_only = BLOCK[BLOCK.index("class CondOK") :]
        project.write(
            "src/repro/core/fx_cond.py", "import threading\n\n\n" + cond_only
        )
        assert _lint(project).findings == []


class TestThreadEscape:
    def test_unguarded_writes_with_exact_locations(self, project):
        project.write("src/repro/core/fx_escape.py", ESCAPE)
        result = _lint(project)
        assert _locs(result, "thread-escape") == [
            ("src/repro/core/fx_escape.py", 16),
            ("src/repro/core/fx_escape.py", 17),
        ]
        for f in result.findings:
            assert "shared across threads" in f.message
            assert "Worker._run" in f.message
        # The locked write to _safe (line 19) stays silent.
        assert all(f.line != 19 for f in result.findings)

    def test_unspawned_class_is_not_shared(self, project):
        # Same writes, but nothing ever starts a thread: no findings.
        project.write(
            "src/repro/core/fx_local.py",
            ESCAPE.replace(
                "        worker = threading.Thread(target=self._run)\n"
                "        worker.start()",
                "        self._run()",
            ),
        )
        assert _lint(project).findings == []

    def test_noqa_suppresses_only_that_rule(self, project):
        project.write(
            "src/repro/core/fx_sup.py",
            ESCAPE.replace(
                "        self._items.append(1)",
                "        self._items.append(1)"
                "  # repro: noqa[thread-escape] rearm-only",
            ),
        )
        result = _lint(project)
        assert result.suppressed == 1
        assert _locs(result, "thread-escape") == [
            ("src/repro/core/fx_sup.py", 17)
        ]


class TestLockContract:
    def test_contract_violations_with_exact_locations(self, project):
        project.write("src/repro/core/fx_contract.py", CONTRACT)
        result = _lint(project)
        assert _locs(result, "lock-contract") == [
            ("src/repro/core/fx_contract.py", 18),
            ("src/repro/core/fx_contract.py", 24),
            ("src/repro/core/fx_contract.py", 30),
        ]
        by_line = {
            f.line: f.message
            for f in result.findings
            if f.rule == "lock-contract"
        }
        # guarded-by write without the declared lock
        assert "guarded-by: _lock" in by_line[18]
        assert "without holding" in by_line[18]
        # reset() calls _flush() lock-free: its guarded write surfaces
        assert "self._n" in by_line[24]
        assert "without holding" in by_line[24]
        # guard naming a lock the class does not have
        assert "_nope" in by_line[30]
        assert "does not name a lock attribute" in by_line[30]

    def test_guards_are_checked_without_a_thread_target(self, project):
        # A lock-owning class no thread reaches still has its guards
        # checked: the same three writes surface.
        project.write(
            "src/repro/core/fx_unspawned.py",
            CONTRACT.replace(
                "threading.Thread(target=self.spin).start()", "pass"
            ),
        )
        result = _lint(project)
        assert [line for _, line in _locs(result, "lock-contract")] == [
            18,
            24,
            30,
        ]

    def test_calls_and_writes_under_the_lock_are_clean(self, project):
        # Keep only the compliant half: _flush() invoked inside the
        # lock, guarded writes performed while holding it.
        clean = CONTRACT.replace(
            "    def reset(self):\n        self._flush()\n\n", ""
        ).replace("    def wipe(self):\n        self._m = 3\n\n", "")
        clean = clean.replace(
            "    def bump(self):\n        self._n += 1",
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1",
        )
        project.write("src/repro/core/fx_clean.py", clean)
        assert _lint(project).findings == []


#: The per-class lock-discipline cases, run by the whole-program pass:
#: (id, fixture, expected (rule, line) findings, message fragment).
LOCK_DISCIPLINE_CASES = [
    (
        "write_outside_lock",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.hits = 0\n"
        "    def guarded(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n"
        "    def racy(self):\n"
        "        self.hits += 1\n",
        [("thread-escape", 10)],
        "self.hits",
    ),
    (
        "unguarded_container_mutation",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._staged = []\n"
        "    def guarded(self, x):\n"
        "        with self._lock:\n"
        "            self._staged.append(x)\n"
        "    def racy(self):\n"
        "        self._staged.clear()\n",
        [("thread-escape", 10)],
        "_staged",
    ),
    (
        "init_writes_are_exempt",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._hot = self._build()\n"
        "    def _build(self):\n"
        "        self.hits = 0\n"
        "        return []\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n",
        [],
        "",
    ),
    (
        # The FeatureStore._note_resident pattern: the private helper's
        # every post-construction call site holds the lock (the lock-free
        # call from __init__ runs before the object is published).
        "helper_called_under_lock",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.peak = 0\n"
        "        self._note(0)\n"
        "    def _note(self, n):\n"
        "        self.peak = max(self.peak, n)\n"
        "    def gather(self, n):\n"
        "        with self._lock:\n"
        "            self._note(n)\n"
        "    def reset(self):\n"
        "        with self._lock:\n"
        "            self.peak = 0\n",
        [],
        "",
    ),
    (
        "directly_nested_reacquire",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def f(self):\n"
        "        with self._lock:\n"
        "            with self._lock:\n"
        "                pass\n",
        [("lock-order", 7)],
        "self-deadlock",
    ),
    (
        "rlock_reacquire_is_fine",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "    def f(self):\n"
        "        with self._lock:\n"
        "            with self._lock:\n"
        "                pass\n",
        [],
        "",
    ),
    (
        # Reported where inner() re-acquires the lock outer() holds.
        "call_that_reacquires_held_lock",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def inner(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self.inner()\n",
        [("lock-order", 7)],
        "self-deadlock",
    ),
    (
        "abba_cycle",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def ab(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def ba(self):\n"
        "        with self._b:\n"
        "            with self._a:\n"
        "                pass\n",
        [("lock-order", 8)],
        "potential deadlock",
    ),
    (
        "consistent_order_passes",
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def ab(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def ab2(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n",
        [],
        "",
    ),
]


class TestLockDiscipline:
    @pytest.mark.parametrize(
        "source,expected,fragment",
        [case[1:] for case in LOCK_DISCIPLINE_CASES],
        ids=[case[0] for case in LOCK_DISCIPLINE_CASES],
    )
    def test_case(self, project, source, expected, fragment):
        project.write("src/repro/store/fx_lock.py", source)
        result = _lint(project)
        assert [(f.rule, f.line) for f in result.findings] == expected
        assert all(fragment in f.message for f in result.findings)


class TestRealRepo:
    def test_repo_runs_clean(self):
        # The acceptance bar: one `repro lint` over src/repro and tests,
        # every rule, zero unsuppressed findings.
        repo_root = Path(__file__).resolve().parents[2]
        walked = iter_source_files(repo_root)
        assert {p.relative_to(repo_root).parts[0] for p in walked} == {
            "src",
            "tests",
        }
        result = run_lint(repo_root)
        assert result.findings == [], [f.render() for f in result.findings]

    def test_shipped_threaded_modules_are_clean(self):
        # The serving and store modules spawn threads: the concurrency
        # family alone must find nothing in them.
        repo_root = Path(__file__).resolve().parents[2]
        result = run_lint(repo_root, rules=CONCURRENCY)
        assert result.rules == tuple(sorted(CONCURRENCY))
        assert result.files_checked > 0
        assert result.findings == [], [f.render() for f in result.findings]
