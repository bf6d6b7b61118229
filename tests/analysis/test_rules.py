"""Per-rule fixtures: each rule catches its seeded violation and stays
quiet on the idiomatic counterpart."""


def rules_of(findings):
    return [f.rule for f in findings]


class TestNoNondeterminism:
    def test_flags_wall_clock_and_global_rng(self, project):
        project.write(
            "src/repro/core/bad.py",
            "import time\n"
            "import random\n"
            "import numpy as np\n"
            "def f():\n"
            "    t = time.time()\n"
            "    x = random.random()\n"
            "    y = np.random.rand(3)\n"
            "    rng = np.random.default_rng()\n",
        )
        result = project.lint(rules=["no-nondeterminism"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 4
        assert any("wall-clock" in m for m in messages)
        assert any("process-global RNG state" in m for m in messages)
        assert any("global RNG" in m for m in messages)
        assert any("unseeded" in m for m in messages)

    def test_seeded_generators_and_perf_counter_pass(self, project):
        project.write(
            "src/repro/core/good.py",
            "import time\n"
            "import numpy as np\n"
            "def f(seed):\n"
            "    start = time.perf_counter()\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng, time.perf_counter() - start\n",
        )
        assert project.lint(rules=["no-nondeterminism"]).findings == []

    def test_import_alias_is_resolved(self, project):
        project.write(
            "src/repro/core/aliased.py",
            "from time import time as now\n"
            "def f():\n"
            "    return now()\n",
        )
        result = project.lint(rules=["no-nondeterminism"])
        assert rules_of(result.findings) == ["no-nondeterminism"]

    def test_out_of_scope_module_is_skipped(self, project):
        project.write(
            "src/repro/bench/timing.py",
            "import time\n"
            "def f():\n"
            "    return time.time()\n",
        )
        assert project.lint(rules=["no-nondeterminism"]).findings == []


class TestSpanLeak:
    def test_flags_span_never_entered(self, project):
        project.write(
            "src/repro/pipeline/bad.py",
            "from repro.obs.trace import get_tracer\n"
            "def f():\n"
            "    span = get_tracer().span('phase')\n"
            "    span.set_attr('k', 1)\n",
        )
        result = project.lint(rules=["span-leak"])
        assert rules_of(result.findings) == ["span-leak"]
        assert result.findings[0].line == 3

    def test_with_and_assign_then_with_pass(self, project):
        project.write(
            "src/repro/pipeline/good.py",
            "from repro.obs.trace import get_tracer\n"
            "def f():\n"
            "    with get_tracer().span('a'):\n"
            "        pass\n"
            "def g():\n"
            "    span = get_tracer().span('b')\n"
            "    with span:\n"
            "        pass\n",
        )
        assert project.lint(rules=["span-leak"]).findings == []


class TestMetricName:
    def test_flags_unregistered_buffalo_metric(self, project):
        project.write(
            "src/repro/core/bad.py",
            "from repro.obs.metrics import get_metrics\n"
            "def f():\n"
            "    get_metrics().counter('buffalo.no_such_metric').inc()\n",
        )
        result = project.lint(rules=["metric-name"])
        assert rules_of(result.findings) == ["metric-name"]
        assert "buffalo.no_such_metric" in result.findings[0].message

    def test_registered_and_non_buffalo_names_pass(self, project):
        project.write(
            "src/repro/core/good.py",
            "from repro.obs.metrics import get_metrics\n"
            "def f():\n"
            "    get_metrics().counter('buffalo.iterations').inc()\n"
            "    get_metrics().gauge('test.scratch').set(1)\n",
        )
        assert project.lint(rules=["metric-name"]).findings == []


class TestDtypePromotion:
    def test_flags_defaulted_and_explicit_float64(self, project):
        project.write(
            "src/repro/core/bad.py",
            "import numpy as np\n"
            "def f(x):\n"
            "    a = np.zeros(10)\n"
            "    b = np.full(4, 0.5)\n"
            "    c = np.empty(3, dtype=np.float64)\n"
            "    return x.astype(np.float64), a, b, c\n",
        )
        result = project.lint(rules=["dtype-promotion"])
        assert rules_of(result.findings) == ["dtype-promotion"] * 4

    def test_float32_and_integer_dtypes_pass(self, project):
        project.write(
            "src/repro/core/good.py",
            "import numpy as np\n"
            "from repro.config import FLOAT_DTYPE\n"
            "def f():\n"
            "    a = np.zeros(10, dtype=FLOAT_DTYPE)\n"
            "    b = np.zeros(10, dtype=np.int64)\n"
            "    c = np.ones(10, np.float32)\n"
            "    return a, b, c\n",
        )
        assert project.lint(rules=["dtype-promotion"]).findings == []


class TestErrorContext:
    def test_flags_pathless_store_error(self, project):
        project.write(
            "src/repro/store/bad.py",
            "from repro.errors import StoreError\n"
            "def f(count):\n"
            "    raise StoreError(f'bad shard count {count}')\n",
        )
        result = project.lint(rules=["error-context"])
        assert rules_of(result.findings) == ["error-context"]

    def test_path_bearing_message_and_reraise_pass(self, project):
        project.write(
            "src/repro/store/good.py",
            "from repro.errors import StoreError\n"
            "def f(path, exc):\n"
            "    if exc:\n"
            "        raise exc\n"
            "    raise StoreError(f'{path}: truncated shard')\n",
        )
        assert project.lint(rules=["error-context"]).findings == []


class TestMemmapCopy:
    def test_flags_copy_of_mapped_array(self, project):
        project.write(
            "src/repro/store/bad.py",
            "import numpy as np\n"
            "from repro.store.layout import load_mapped\n"
            "def f(root, manifest):\n"
            "    arr = load_mapped(root, 'x.npy', manifest)\n"
            "    dense = np.array(arr)\n"
            "    as64 = arr.astype(np.float64)\n"
            "    return dense, as64\n",
        )
        result = project.lint(rules=["memmap-copy"])
        assert rules_of(result.findings) == ["memmap-copy"] * 2

    def test_taint_follows_slices(self, project):
        project.write(
            "src/repro/store/sliced.py",
            "import numpy as np\n"
            "from repro.store.layout import load_mapped\n"
            "def f(root, manifest, n):\n"
            "    order = load_mapped(root, 'x.npy', manifest)\n"
            "    head = order[:n]\n"
            "    return np.asarray(head, dtype=np.int64)\n",
        )
        result = project.lint(rules=["memmap-copy"])
        assert rules_of(result.findings) == ["memmap-copy"]

    def test_view_and_noqa_pass(self, project):
        project.write(
            "src/repro/store/good.py",
            "import numpy as np\n"
            "from repro.store.layout import load_mapped\n"
            "def f(root, manifest, n):\n"
            "    arr = load_mapped(root, 'x.npy', manifest)\n"
            "    view = np.asarray(arr)\n"
            "    bounded = np.asarray(  # repro: noqa[memmap-copy] n rows\n"
            "        arr[:n], dtype=np.int64\n"
            "    )\n"
            "    return view, bounded\n",
        )
        result = project.lint(rules=["memmap-copy"])
        assert result.findings == []
        assert result.suppressed == 1


class TestHotAlloc:
    def test_flags_per_call_alloc_with_arena_guidance(self, project):
        project.write(
            "src/repro/kernels/bad_scratch.py",
            "import numpy as np\n"
            "def reduce_bucket(bucket, feats):\n"
            "    out = np.zeros((4, 4), dtype=feats.dtype)\n"
            "    return out\n",
        )
        result = project.lint(rules=["hot-alloc"])
        assert rules_of(result.findings) == ["hot-alloc"]
        assert "Workspace arena" in result.findings[0].message

    def test_arena_request_passes(self, project):
        project.write(
            "src/repro/kernels/good_scratch.py",
            "def reduce_block(workspace, shape, dtype):\n"
            "    scratch = workspace.request(\n"
            "        'reduce.scratch', shape, dtype\n"
            "    )\n"
            "    scratch[:] = 0\n"
            "    return scratch\n",
        )
        result = project.lint(rules=["hot-alloc"])
        assert result.findings == []
