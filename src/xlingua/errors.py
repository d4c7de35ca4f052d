"""Exception types shared across the package, and the text-file opener
that every loader uses to turn undecodable bytes into one of them."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, TextIO


class XlinguaError(Exception):
    """Base class for all package errors."""


class ParseError(XlinguaError):
    """A file could not be parsed (malformed line or record)."""


class ValidationError(XlinguaError):
    """Parsed input violates a structural invariant."""


class ConfigError(XlinguaError):
    """Missing or inconsistent configuration (e.g. unknown language pair)."""


@contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading.

    Bytes that are not UTF-8 raise a ``ParseError`` naming the file and the
    first line that holds them, instead of a ``UnicodeDecodeError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{_first_undecodable(path)}: not UTF-8 text ({exc.reason})") from exc


def _first_undecodable(path: str) -> str:
    """``path:line`` of the first line that is not UTF-8, else ``path``.

    A newline byte never occurs inside a multi-byte UTF-8 sequence, so the
    file can be decoded line by line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}:{lineno}"
    return path
