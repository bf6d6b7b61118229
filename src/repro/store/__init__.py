"""Out-of-core dataset store: mmap graph, sharded features.

Buffalo's bucketization removes the *GPU* memory wall; this package
removes the *host* one.  A dataset converted with ``repro store build``
lives on disk in a chunked, checksummed layout (see
:mod:`repro.store.layout`), and training opens it through the exact
interfaces the in-memory path uses:

* :class:`GraphStore` — memory-mapped CSR arrays behind the standard
  :class:`~repro.graph.csr.CSRGraph` surface;
* :class:`FeatureStore` — ``gather(node_ids)`` over row shards, fronted
  by a degree-ordered hot-node cache.

``open_store_dataset`` assembles the pieces into a normal
:class:`~repro.datasets.catalog.Dataset`; every trainer, baseline, and
benchmark works on it unchanged, and training losses are bit-for-bit
identical to the in-memory path.
"""

from repro.store.builder import (
    build_store,
    describe_store,
    open_store_dataset,
    store_info,
)
from repro.store.feature_store import (
    DEFAULT_HOT_CACHE_BYTES,
    FeatureStore,
    FeatureStoreSnapshot,
)
from repro.store.graph_store import GraphStore
from repro.store.layout import (
    DEFAULT_SHARD_ROWS,
    MANIFEST_NAME,
    STORE_MAGIC,
    STORE_VERSION,
    StoreManifest,
    file_checksum,
    is_store_path,
    read_manifest,
    verify_files,
    write_manifest,
)

__all__ = [
    "DEFAULT_HOT_CACHE_BYTES",
    "DEFAULT_SHARD_ROWS",
    "FeatureStore",
    "FeatureStoreSnapshot",
    "GraphStore",
    "MANIFEST_NAME",
    "STORE_MAGIC",
    "STORE_VERSION",
    "StoreManifest",
    "build_store",
    "describe_store",
    "file_checksum",
    "is_store_path",
    "open_store_dataset",
    "read_manifest",
    "store_info",
    "verify_files",
    "write_manifest",
]
