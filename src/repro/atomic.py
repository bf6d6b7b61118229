"""The one atomic-write primitive behind every file this package persists.

Store shards and manifests, dataset archives, lint caches and
checkpoints all follow the same protocol: write the complete
payload to a temp sibling in the target directory, then rename it over
the target.  A reader therefore sees the previous file or the new one,
never a torn one, and a failed write leaves nothing behind.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[Path]:
    """Yield a temp sibling of ``path``; rename it over ``path`` on success.

    The body must write exactly the yielded path (writers that append a
    suffix to bare names, such as ``np.save``, take an open file
    object).  If the body raises, the temp file is removed and ``path``
    is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
