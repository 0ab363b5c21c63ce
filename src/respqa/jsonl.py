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
    for a line that ``parse_row`` refuses.
    """
    for where, line in jsonl_lines(path, error):
        row = parse_row(where, line, error, keys)
        if row is not None:
            yield where, row


def jsonl_lines(path: str | Path, error: type[RespqaError]) -> Iterator[tuple[str, bytes]]:
    """Yield ``("path:lineno", line)`` for each line of a file, the line as bytes.

    Raises ``error`` for a missing or unreadable file. Lines stay bytes, to be
    decoded one by one: text mode decodes in chunks and cannot say which line
    holds a bad byte.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise error(f"file not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            yield f"{path}:{lineno}", line


def parse_row(
    where: str, line: bytes, error: type[RespqaError], keys: tuple[str, ...]
) -> dict | None:
    """The object on one line as ``json.loads`` reads it, or None for a blank line.

    Raises ``error``, naming the line, for a line that is not UTF-8 JSON or is
    nested too deeply for the parser, and for a row that is not an object
    with ``keys``.
    """
    try:
        text = line.decode("utf-8")
        if not text.strip():
            return None
        row = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise error(f"{where}: not UTF-8 JSON ({exc})") from exc
    except RecursionError:
        raise error(f"{where}: JSON nested too deeply to parse") from None
    if not isinstance(row, dict):
        raise error(f"{where}: expected an object")
    missing = [key for key in keys if key not in row]
    if missing:
        raise error(f"{where}: missing key(s): {', '.join(missing)}")
    return row
