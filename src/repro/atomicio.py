"""Crash-safe file writes: temp file + fsync + atomic rename.

A write that dies mid-stream must never leave a half-written file at the
destination path.  Everything in the repo that persists results — the
artifact store, profile serialisation, layout serialisation — funnels
through :func:`atomic_write_text` so a killed process leaves either the
old complete file or the new complete file, plus at worst an orphaned
``*.tmp`` sibling that readers ignore and the store garbage-collects.
A file found damaged is never deleted: :func:`quarantine_file` moves it
aside for post-mortem.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

#: Suffix of in-flight temporary files (cleaned up by the artifact store).
TMP_SUFFIX = ".tmp"


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically.

    The data is written to a unique temporary file in the destination
    directory, flushed and fsynced, then renamed over ``path`` —
    ``os.replace`` is atomic on POSIX and Windows, so concurrent readers
    observe either the previous content or the full new content, never a
    prefix.  On any failure the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def quarantine_file(path: Union[str, Path], directory: Union[str, Path]) -> Path:
    """Move ``path`` into ``directory`` and return where it went.

    The file keeps its name unless ``directory`` already holds one by
    that name; it is then named ``stem.N.suffix`` for the first free N,
    so nothing quarantined earlier is overwritten.
    """
    path, directory = Path(path), Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dest = directory / path.name
    counter = 0
    while dest.exists():
        counter += 1
        dest = directory / f"{path.stem}.{counter}{path.suffix}"
    path.replace(dest)
    return dest
