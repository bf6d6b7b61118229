"""The ``split`` placement policy: bucket groups placed across a fleet.

Where the ``data`` policy replicates the feature matrix on the host and
round-robins micro-batches over the devices, the ``split`` policy
follows the GSplit/DistGNN direction: the feature matrix is
*partitioned* across devices in contiguous node-id blocks
(:func:`partition_nodes`), Algorithm 3's K-search is extended to a
joint (K, N) placement (:func:`ensure_group_count`,
:func:`plan_placement`) that assigns whole bucket groups to devices
under per-device Eq. 1-2 memory ledgers, and every micro-batch's input
features split into

* **local rows** — owned by the executing device, read from its
  resident shard at device-memory bandwidth
  (:meth:`~repro.device.fleet.DeviceFleet.shard_read`);
* **halo rows** — owned by peers, gathered over the interconnect
  (:meth:`~repro.device.fleet.DeviceFleet.exchange`, one latency charge
  per peer contacted).

A policy decides only *where a micro-batch runs* and *what staging its
input rows costs* (:class:`ShardStager`); execution, gradient reduction
and the optimizer step are :class:`~repro.core.api.BuffaloTrainer`'s
one iteration loop under either policy, so the simulated clocks are the
only thing N and the policy change.

Scheduling (sampling, block generation, the K-search, placement) stays
serial on the host, reproducing the paper's finding that only the
GPU-compute share of an iteration parallelizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grouping import mem_balanced_grouping, refine_balance
from repro.core.scheduler import SchedulePlan
from repro.core.splitting import split_explosion_bucket
from repro.device.fleet import DeviceFleet
from repro.errors import SchedulingError

__all__ = [
    "ShardStager",
    "SplitPlacement",
    "partition_nodes",
    "plan_placement",
    "ensure_group_count",
]


def partition_nodes(n_nodes: int, n_devices: int) -> np.ndarray:
    """Owner device of every global node id (contiguous blocks).

    Node ids are split into ``n_devices`` contiguous ranges of (nearly)
    equal size — the standard block partition of a feature matrix.
    Returns an int array of length ``n_nodes`` with values in
    ``[0, n_devices)``.
    """
    if n_devices < 1:
        raise SchedulingError(
            f"need at least 1 device, got {n_devices}"
        )
    if n_nodes < 0:
        raise SchedulingError(f"negative node count {n_nodes}")
    block = max(1, -(-n_nodes // n_devices))  # ceil division
    owner = np.arange(n_nodes, dtype=np.int64) // block
    return np.minimum(owner, n_devices - 1)


@dataclass
class SplitPlacement:
    """A joint (K, N) placement of bucket groups onto devices.

    Attributes:
        assignments: device index of each bucket group, in schedule
            order (``len == plan.k``).
        n_devices: fleet size N.
        owner: global-node-id -> owning device (the feature partition).
        input_sets: per-group *global* input node ids, schedule order.
        halo_sets: per-device sorted global node ids the device needs
            but does not own (the cross-partition intersection of its
            groups' input sets with other devices' partitions).
        per_device_bytes: per-device Eq. 1-2 ledger — the worst single
            group estimate placed on each device (groups execute
            sequentially, releasing activations in between).
        regrouped: True when Algorithm 3 returned K < N and the buckets
            were regrouped to K = N (the joint search's second axis).
    """

    assignments: list[int]
    n_devices: int
    owner: np.ndarray
    input_sets: list[np.ndarray]
    halo_sets: list[np.ndarray]
    per_device_bytes: list[float]
    regrouped: bool = False

    @property
    def halo_bytes_estimate(self) -> int:
        """Total halo rows across devices, in feature-matrix rows."""
        return int(sum(s.size for s in self.halo_sets))

    def groups_of(self, device: int) -> list[int]:
        """Schedule indices of the groups placed on ``device``."""
        return [
            i for i, d in enumerate(self.assignments) if d == device
        ]


def ensure_group_count(
    plan: SchedulePlan,
    n_devices: int,
    memory_constraint: float,
) -> tuple[SchedulePlan, bool]:
    """Joint (K, N) search: raise K to at least N when Algorithm 3
    returned fewer groups than devices.

    The K-search optimizes memory alone; with N devices a K < N plan
    would leave devices idle, so the final buckets are regrouped into
    ``max(K, N)`` groups with the same Algorithm 4 packer (splitting
    the largest buckets further when there are fewer buckets than
    devices).  Returns ``(plan, regrouped)`` — the original plan object
    when K >= N already.
    """
    if n_devices < 1:
        raise SchedulingError(
            f"need at least 1 device, got {n_devices}"
        )
    if plan.k >= n_devices:
        return plan, False
    buckets = list(plan.buckets)
    # More groups than buckets is impossible; cut the widest buckets
    # into halves until there is one granule per device (or every
    # bucket is a single output row).
    while len(buckets) < n_devices:
        widest = max(buckets, key=lambda b: b.volume)
        if widest.volume <= 1:
            break
        buckets.remove(widest)
        buckets.extend(split_explosion_bucket(widest, 2))
    k = min(n_devices, len(buckets))
    success, groups = mem_balanced_grouping(
        buckets, k, memory_constraint, plan.estimator
    )
    if not success:
        raise SchedulingError(
            f"no feasible K={k} regrouping for {n_devices} devices "
            f"under constraint {memory_constraint / 2**30:.2f} GiB"
        )
    if 1 < len(groups) <= 32:
        groups = refine_balance(groups, plan.estimator)
    return (
        SchedulePlan(
            groups=groups,
            k=len(groups),
            split_applied=True,
            buckets=buckets,
            estimator=plan.estimator,
        ),
        True,
    )


def plan_placement(
    plan: SchedulePlan,
    input_sets: list[np.ndarray],
    n_devices: int,
    memory_constraint: float,
    owner: np.ndarray,
) -> SplitPlacement:
    """Assign the plan's bucket groups to devices and derive halo sets.

    The assignment is the same LPT greedy Algorithm 4 uses for buckets,
    lifted one level: groups (largest Eq. 2 estimate first) go to the
    device with the least total estimated load, which balances the
    per-device compute streams.  Each device's memory ledger is the
    *maximum* group estimate it hosts — groups run sequentially with
    activations released in between — and must fit the constraint.

    ``input_sets`` are the groups' *global* input node ids in schedule
    order (``SchedulePlan.input_node_sets`` mapped through
    ``batch.node_map``); device ``d``'s halo is the union of its groups'
    input sets minus the nodes ``d`` owns under ``owner``.
    """
    estimates = plan.estimated_bytes
    oversize = [
        e for e in estimates if e > memory_constraint
    ]
    if oversize:
        raise SchedulingError(
            f"{len(oversize)} group(s) exceed the per-device budget "
            f"{memory_constraint / 2**30:.2f} GiB"
        )
    # LPT over groups: largest first onto the least-loaded device.
    order = sorted(
        range(plan.k), key=lambda i: estimates[i], reverse=True
    )
    load = [0.0] * n_devices
    worst = [0.0] * n_devices
    assignments = [0] * plan.k
    for i in order:
        target = min(range(n_devices), key=lambda d: load[d])
        assignments[i] = target
        load[target] += estimates[i]
        worst[target] = max(worst[target], estimates[i])

    halo_sets: list[np.ndarray] = []
    for d in range(n_devices):
        needed = [
            input_sets[i] for i in range(plan.k) if assignments[i] == d
        ]
        if not needed:
            halo_sets.append(np.empty(0, dtype=np.int64))
            continue
        union = np.unique(np.concatenate(needed))
        halo_sets.append(union[owner[union] != d])
    return SplitPlacement(
        assignments=assignments,
        n_devices=n_devices,
        owner=owner,
        input_sets=input_sets,
        halo_sets=halo_sets,
        per_device_bytes=worst,
    )


class ShardStager:
    """Feature staging policy pricing shard reads + halo exchange.

    Installed as :attr:`~repro.core.trainer.MicroBatchTrainer.stager`:
    ``stage(global_nodes)`` returns the simulated staging duration
    (the ``data`` policy leaves it ``None``: host->device transfer).
    Owned rows cost device-memory bandwidth on the executing device;
    halo rows cross the interconnect with one latency charge per peer
    that owns any of them.  Partitioning changes modeled time, never
    numerics — the host gather is identical either way.
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        device_index: int,
        owner: np.ndarray,
        row_bytes: int,
    ) -> None:
        self.fleet = fleet
        self.device_index = device_index
        self.owner = owner
        self.row_bytes = row_bytes

    def stage(self, global_nodes: np.ndarray) -> float:
        owners = self.owner[global_nodes]
        halo_mask = owners != self.device_index
        n_halo = int(halo_mask.sum())
        n_local = int(global_nodes.size - n_halo)
        duration = self.fleet.shard_read(
            self.device_index, n_local * self.row_bytes
        )
        if n_halo:
            n_peers = int(np.unique(owners[halo_mask]).size)
            duration += self.fleet.exchange(
                self.device_index,
                n_halo * self.row_bytes,
                n_peers=n_peers,
            )
        return duration
