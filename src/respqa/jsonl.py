"""The one reader of the package's JSONL inputs: corpus, dataset, vectors and scripts."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .errors import RespqaError


def read_jsonl(
    path: str | Path, error: type[RespqaError], keys: tuple[str, ...]
) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:lineno", row)`` for each non-blank line of a UTF-8 JSONL file.

    Raises ``error`` for a missing or unreadable file, and, naming the line,
    for a line that is not UTF-8 JSON or a row that is not an object with ``keys``.
    Lines are read as bytes and decoded one by one: text mode decodes in
    chunks and cannot say which line holds a bad byte.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                row = json.loads(line)
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                raise error(f"{where}: not UTF-8 JSON ({exc})") from exc
            if not isinstance(row, dict):
                raise error(f"{where}: expected an object")
            missing = [key for key in keys if key not in row]
            if missing:
                raise error(f"{where}: missing key(s): {', '.join(missing)}")
            yield where, row
