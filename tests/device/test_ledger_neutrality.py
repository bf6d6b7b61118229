"""Ledger-neutrality pins: what the autograd tape registers on the device.

The device ledger tracks every ``Tensor.data`` and every ``.grad`` and
nothing else, so its integers are functions of shapes, not of float
values.  ``PINS`` was recorded on the commit before the autograd hot
path was optimised; an optimisation of tensor ops or of the tracker must
leave every one unchanged (one that changes the tracked set on purpose
must change ``gnn/footprint.py`` and these pins in the same PR).

Run ``python tests/device/test_ledger_neutrality.py`` to print the
current values in ``PINS`` form.
"""

import gc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import MicroBatchTrainer, generate_blocks_fast
from repro.core.api import build_model
from repro.core.grouping import BucketGroup
from repro.core.microbatch import MicroBatch
from repro.datasets import load
from repro.device import MemoryTracker, SimulatedGPU
from repro.device.profiler import Profiler
from repro.gnn.footprint import ModelSpec
from repro.graph import sample_batch
from repro.nn import LSTM, SGD
from repro.tensor import Tensor

# (aggregator, K) -> (peak_bytes, live_bytes after the iteration,
#                     buffers ever tracked during the iteration)
PINS = {
    ("lstm", 1): (4670284, 79296, 454),
    ("lstm", 3): (1845196, 79296, 1342),
    ("pool", 1): (1356876, 31424, 82),
    ("pool", 3): (555596, 31424, 226),
    ("mean", 1): (477664, 27072, 52),
    ("mean", 3): (214240, 27072, 144),
}


def _setup(aggregator, k, kernel_backend="reference"):
    """A seeded trainer on a fresh device and its ``k`` micro-batches."""
    dataset = load("ogbn_arxiv", scale=0.02, seed=0)
    batch = sample_batch(dataset.graph, dataset.train_nodes[:48], [4, 6], rng=0)
    spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, aggregator)
    model = build_model(spec, rng=3)
    device = SimulatedGPU(2**30)
    trainer = MicroBatchTrainer(
        model,
        spec,
        SGD(model.parameters(), lr=0.05),
        device,
        kernel_backend=kernel_backend,
    )
    micro_batches = [
        MicroBatch(
            blocks=generate_blocks_fast(batch, piece),
            seed_rows=piece,
            group=BucketGroup(),
        )
        for piece in np.array_split(np.arange(batch.n_seeds), k)
    ]
    return dataset, batch, trainer, micro_batches


def _iteration(aggregator, k):
    """One seeded iteration; returns the ledger's integers and the device."""
    dataset, batch, trainer, micro_batches = _setup(aggregator, k)
    device = trainer.device
    gc.collect()
    before = device.live_bytes

    tracked = 0
    charge = device.memory._charge

    def counting_charge(nbytes):
        nonlocal tracked
        charge(nbytes)
        tracked += 1

    device.memory._charge = counting_charge
    result = trainer.train_iteration(
        dataset, batch.node_map, micro_batches, list(reversed(batch.fanouts))
    )
    del device.memory._charge
    return (result.peak_bytes, device.live_bytes, tracked), before, trainer


@pytest.mark.parametrize("aggregator,k", sorted(PINS))
def test_tracked_set_is_pinned(aggregator, k):
    observed, _, _ = _iteration(aggregator, k)
    assert observed == PINS[aggregator, k]


@pytest.mark.parametrize("aggregator", ["lstm", "pool", "mean"])
def test_live_bytes_return_to_pre_iteration_value(aggregator):
    _, before, trainer = _iteration(aggregator, 3)
    device = trainer.device
    trainer.model.zero_grad()  # the optimizer step's installed gradients
    gc.collect()
    assert device.live_bytes == before
    parameter_bytes = sum(p.data.nbytes for p in trainer.model.parameters())
    assert before == parameter_bytes
    del trainer
    gc.collect()
    assert device.live_bytes == 0
    assert not device.memory._tracked


@contextmanager
def _collector_off(save_garbage=False):
    """No automatic collection inside the block; with ``save_garbage``
    a ``gc.collect()`` in it moves whatever was unreachable into the
    yielded ``gc.garbage`` instead of freeing it."""
    gc.collect()
    gc.disable()
    if save_garbage:
        gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestReleaseByRefcount:
    """``train_micro_batch`` frees the tape with ``del``, no collector.

    The collector is switched off *inside* each test (process-global
    state is the caller's, never the library's) so only reference
    counting can have returned the bytes.
    """

    @pytest.mark.parametrize("kernel_backend", ["reference", "fused"])
    @pytest.mark.parametrize("aggregator", ["lstm", "pool", "mean"])
    def test_ledger_is_back_after_every_micro_batch(
        self, aggregator, kernel_backend
    ):
        dataset, batch, trainer, micro_batches = _setup(
            aggregator, 3, kernel_backend
        )
        device = trainer.device
        cutoffs = list(reversed(batch.fanouts))
        trainer.begin_iteration()
        with _collector_off():
            before = device.live_bytes
            assert before == sum(
                p.data.nbytes for p in trainer.model.parameters()
            )
            for index, mb in enumerate(micro_batches):
                _, peak = trainer.train_micro_batch(
                    dataset,
                    batch.node_map,
                    mb,
                    cutoffs,
                    batch.n_seeds,
                    Profiler(),
                    index=index,
                )
                assert peak > before
                assert device.live_bytes == before

    def test_lstm_tape_leaves_nothing_for_the_cycle_collector(self):
        # The fact the deleted per-micro-batch gc.collect() rests on: an
        # LSTM forward + backward builds no reference cycle, so whoever
        # introduces one fails here and not as a silent OOM re-plan.
        device = SimulatedGPU(2**24)
        rng = np.random.default_rng(0)
        lstm = LSTM(8, 16, rng=1)
        lstm.to_device(device)
        parameter_bytes = device.live_bytes
        with _collector_off(save_garbage=True) as garbage:
            sequence = Tensor(
                rng.standard_normal((12, 5, 8)).astype(np.float32),
                requires_grad=True,
                device=device,
            )
            loss = lstm(sequence).sum()
            loss.backward()
            assert device.live_bytes > parameter_bytes
            del sequence, loss
            lstm.zero_grad()
            assert device.live_bytes == parameter_bytes
            gc.collect()
            assert garbage == []

    @pytest.mark.parametrize("kernel_backend", ["reference", "fused"])
    @pytest.mark.parametrize("aggregator", ["lstm", "pool", "mean"])
    def test_micro_batch_leaves_no_garbage(self, aggregator, kernel_backend):
        # Not a tape node, not a bucket's validation record: one
        # micro-batch of a K = 3 iteration builds no reference cycle.
        dataset, batch, trainer, micro_batches = _setup(
            aggregator, 3, kernel_backend
        )
        trainer.begin_iteration()
        with _collector_off(save_garbage=True) as garbage:
            trainer.train_micro_batch(
                dataset,
                batch.node_map,
                micro_batches[0],
                list(reversed(batch.fanouts)),
                batch.n_seeds,
                Profiler(),
            )
            gc.collect()
            assert garbage == []


class TestReleaseBookkeeping:
    def test_id_reuse_neither_leaks_nor_double_releases(self):
        tracker = MemoryTracker()
        seen = set()
        for _ in range(200):
            array = np.zeros(64, dtype=np.float32)
            seen.add(id(array))
            tracker.track(array)
            assert tracker.live_bytes == 256
            del array
            assert tracker.live_bytes == 0
        assert len(seen) < 200  # CPython did hand the same id out again
        assert not tracker._tracked

    def test_view_keeps_owner_charged_until_the_view_dies(self):
        tracker = MemoryTracker()
        owner = np.zeros(100, dtype=np.float32)
        view = owner[10:20]
        tracker.track(view)
        del owner
        assert tracker.live_bytes == 400
        del view
        assert tracker.live_bytes == 0

    def test_tracker_can_die_before_its_buffers(self):
        tracker = MemoryTracker()
        array = np.zeros(8, dtype=np.float32)
        tracker.track(array)
        del tracker
        gc.collect()
        del array  # the release callback must not raise into the void

    def test_tensor_graph_cycle_is_released_by_collect(self):
        device = SimulatedGPU(2**20)
        x = Tensor(np.ones((4, 4)), requires_grad=True, device=device)
        y = (x[:, 1:3].sigmoid() * 2.0).sum()
        y.backward()
        assert device.live_bytes > x.data.nbytes
        del y
        x.zero_grad()
        gc.collect()
        assert device.live_bytes == x.data.nbytes


if __name__ == "__main__":
    for aggregator in ("lstm", "pool", "mean"):
        for k in (1, 3):
            print(f'    ("{aggregator}", {k}): {_iteration(aggregator, k)[0]},')
