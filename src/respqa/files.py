"""Output files that appear whole or not at all."""

from __future__ import annotations

import contextlib
import errno
import os
import uuid
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def replaced_on_success(path: str | Path) -> Iterator[IO[str]]:
    """A new UTF-8 text file that replaces ``path`` when the block ends cleanly.

    The file is created on entry, beside ``path``, so a missing or unwritable
    directory fails before the block does any work, and so does a ``path``
    that is a directory. It is moved onto ``path`` with ``os.replace`` once
    the block ends without an exception; otherwise it is deleted and ``path``
    keeps what it held. Line endings are written as given.
    """
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(path.parent))
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))
    staging = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with staging.open("x", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(staging, path)
    except BaseException:
        with contextlib.suppress(OSError):
            staging.unlink()
        raise
