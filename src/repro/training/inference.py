"""Layer-wise full-graph inference with bounded memory.

Sampled evaluation (:func:`repro.training.evaluate.evaluate`) is fast
but stochastic.  For exact embeddings/predictions, GNN systems compute
them *layer by layer*: layer ``l``'s output is materialized for every
node (using each node's full neighborhood) before layer ``l + 1`` runs,
so the working set is one node-chunk at a time instead of an L-hop
neighborhood — the standard offline-inference pattern, here with degree
bucketing inside each chunk.
"""

from __future__ import annotations

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE
from repro.datasets.catalog import Dataset
from repro.errors import ReproError
from repro.gnn.block import Block
from repro.gnn.block_gen import assemble_blocks
from repro.gnn.gcn import GCNLayer
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import gather_rows as graph_gather_rows
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


def _chunk_block(graph: CSRGraph, chunk: np.ndarray) -> Block:
    """A single-layer block: dst = chunk, full (unsampled) neighbors."""
    (block,) = assemble_blocks(
        graph.n_nodes,
        chunk,
        lambda frontier: graph_gather_rows(graph, frontier),
        n_layers=1,
    )
    return block


def full_graph_inference(
    model: Module,
    dataset: Dataset,
    *,
    batch_size: int = 1024,
    device=None,
) -> np.ndarray:
    """Exact model outputs for **every** node of the dataset.

    Args:
        model: a :class:`GraphSAGE` / :class:`GAT` / :class:`GCN` whose
            ``layers`` attribute holds per-layer callables.
        dataset: supplies the graph and input features.
        batch_size: destination nodes materialized per chunk (bounds the
            working set).
        device: optional :class:`~repro.device.SimulatedGPU` whose
            ledger observes the per-chunk working set.

    Returns:
        ``(n_nodes, out_dim)`` array of final-layer outputs (logits).
    """
    if batch_size < 1:
        raise ReproError(f"batch_size must be >= 1, got {batch_size}")
    graph = dataset.graph
    n = graph.n_nodes
    model.eval()

    current = dataset.features.astype(FLOAT_DTYPE, copy=False)
    with no_grad():
        for layer in model.layers:
            outputs: list[np.ndarray] = []
            for start in range(0, n, batch_size):
                chunk = np.arange(
                    start, min(start + batch_size, n), dtype=INDEX_DTYPE
                )
                block = _chunk_block(graph, chunk)
                src_feats = Tensor(
                    current[block.src_nodes], device=device
                )
                cutoff = max(int(block.degrees.max(initial=0)), 1)
                if isinstance(layer, GCNLayer):
                    src_degrees = graph.degrees[block.src_nodes]
                    out = layer(
                        block,
                        src_feats,
                        cutoff,
                        None,
                        src_degrees,
                    )
                else:
                    out = layer(block, src_feats, cutoff)
                outputs.append(out.data)
            current = np.concatenate(outputs, axis=0)
    return current


def full_graph_accuracy(
    model: Module,
    dataset: Dataset,
    nodes: np.ndarray | None = None,
    *,
    batch_size: int = 1024,
) -> float:
    """Exact accuracy over ``nodes`` (default: every node)."""
    logits = full_graph_inference(model, dataset, batch_size=batch_size)
    if nodes is None:
        nodes = np.arange(dataset.n_nodes)
    predictions = logits[nodes].argmax(axis=1)
    return float((predictions == dataset.labels[nodes]).mean())
