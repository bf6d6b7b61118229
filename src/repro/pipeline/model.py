"""Per-micro-batch stage timings and the fleet makespan over them.

The engine (:mod:`repro.pipeline.engine`) measures, for every
micro-batch, how long each stage took: block generation (CPU wall),
feature staging (CPU wall), and compute (CPU wall for the numpy
forward/backward plus the simulated device seconds the cost model
charges for the transfer and kernels).  :func:`fleet_makespan` lays
those durations out over a device fleet's streams — the number the
``split_scaling`` experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class StageTiming:
    """Measured stage durations of one micro-batch, in seconds.

    Attributes:
        block_gen_s: wall seconds of fast block generation.
        staging_s: wall seconds of the host-side feature gather.
        compute_s: wall seconds of forward/backward plus the simulated
            device seconds (feature transfer + kernels) of this
            micro-batch.
    """

    block_gen_s: float
    staging_s: float
    compute_s: float


def fleet_makespan(
    timings: list[StageTiming], assignments: list[int]
) -> float:
    """Makespan of a split-parallel iteration across device streams.

    Host preparation (block generation + feature staging) stays serial
    in schedule order — the paper's finding — while each micro-batch's
    compute lands on its assigned device's stream::

        prep_done[i]   = prep_cursor + block_gen + staging
        start[i]       = max(prep_done[i], device_free[assignments[i]])
        device_free[d] = start[i] + compute

    The makespan is the slowest device stream; callers add the gradient
    all-reduce barrier separately (it is a property of the fleet clock,
    not of the schedule).
    """
    if len(timings) != len(assignments):
        raise ReproError(
            f"need one device assignment per timing: got "
            f"{len(assignments)} for {len(timings)} timings"
        )
    prep_cursor = 0.0
    device_free: dict[int, float] = {}
    for timing, device in zip(timings, assignments):
        prep_cursor += timing.block_gen_s + timing.staging_s
        start = max(prep_cursor, device_free.get(device, 0.0))
        device_free[device] = start + timing.compute_s
    return max(device_free.values(), default=0.0)
