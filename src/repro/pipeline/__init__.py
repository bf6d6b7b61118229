"""``repro.pipeline`` — the micro-batch iteration loop.

* :mod:`engine` — runs the K scheduled groups through *block generation
  → feature staging → compute*, in line on the caller thread and in
  schedule order, timing each stage per micro-batch;
* :mod:`model` — the stage-timing record and the fleet makespan the
  ``split_scaling`` experiment derives from it.

Gradient accumulation is bit-for-bit that of the sequential trainer
(and full-batch training).  See ``docs/pipeline.md``, which also
records why the threaded variant of this loop was deleted.
"""

from repro.pipeline.engine import PipelineEngine, PipelineReport
from repro.pipeline.model import StageTiming

__all__ = [
    "PipelineEngine",
    "PipelineReport",
    "StageTiming",
]
