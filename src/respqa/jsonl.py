"""The one reader of the package's JSONL inputs: corpus, dataset, vectors and scripts,
and the one check that a string read from outside the package is UTF-8 text."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator

from .errors import RespqaError


def read_jsonl(
    path: str | Path, error: type[RespqaError], keys: tuple[str, ...]
) -> Iterator[tuple[str, tuple]]:
    """Yield ``("path:lineno", values)`` for each non-blank line of a UTF-8 JSONL
    file, ``values`` being the row's values under ``keys``, in that order.

    Raises ``error`` for a missing or unreadable file, and, naming the line,
    for a line that ``parse_row`` refuses and for a string under a key, or in
    a list under a key, that ``require_utf8`` refuses. Other values are left
    to the caller.
    """
    for where, line in jsonl_lines(path, error):
        row = parse_row(where, line, error, keys)
        if row is None:
            continue
        values = tuple(row[key] for key in keys)
        for key, value in zip(keys, values):
            for text in value if isinstance(value, list) else (value,):
                if isinstance(text, str):
                    require_utf8(text, f"{where}: {key!r}", error)
        yield where, values


def jsonl_lines(path: str | Path, error: type[RespqaError]) -> Iterator[tuple[str, bytes]]:
    """Yield ``("path:lineno", line)`` for each line of a file, the line as bytes.

    Raises ``error`` for a missing or unreadable file. Lines stay bytes, to be
    decoded one by one: text mode decodes in chunks and cannot say which line
    holds a bad byte. The file is read through a 64 KB buffer, not the 8 KB
    default: iterating 1000 rows of 768 full-precision doubles (16-17 MB)
    takes ~6-7 ms in place of ~20-22 ms, as a long line needs far fewer reads.
    """
    try:
        handle = open(path, "rb", buffering=1 << 16)
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


def require_utf8(text: str, name: str, error: Callable[[str], Exception]) -> None:
    """Raise ``error`` if ``text`` holds a lone surrogate, which UTF-8 cannot encode.

    JSON reads one from a ``\\ud800`` escape, and an argv byte that is not
    UTF-8 decodes to one. ``name`` says where the text came from.
    """
    if text.isascii():  # no surrogate; CPython reads this from a flag
        return
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(
            f"{name} holds a lone surrogate {exc.object[exc.start]!r}, which UTF-8 cannot encode"
        ) from None
