"""Atomic file output shared by the library and the CLI."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path, binary: bool = False):
    """Open a temp file beside `path` for writing and rename it over `path`
    when the block ends without error, so readers never see a partial file.

    Text mode writes "\\n" line endings on every platform."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", newline="\n")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
