"""Small shared helpers: hashing, seed derivation, JSON, line reading."""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Iterator


class ParseError(ValueError):
    """A malformed line of a text input; ``.line`` is its 1-based number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of text that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_fields(fields: Iterable[str], error: Exception, parse: Callable = int) -> list:
    """Each field through ``parse`` (int unless given); raises ``error``,
    the caller's message for its line or flag, for the first that does
    not parse."""
    try:
        return [parse(x) for x in fields]
    except (ValueError, ZeroDivisionError):
        raise error from None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(parts) -> bytes:
    """SHA-256 of the parts joined by colons, so the derivation is stable
    across platforms and Python versions, and distinct part tuples give
    independent child streams."""
    return hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()


def derive_seed(*parts) -> int:
    """Derive a 64-bit child seed from integer/string parts, reproducibly."""
    return int.from_bytes(_digest(parts)[:8], "big")


def derive_key128(*parts) -> tuple[int, int]:
    """derive_seed's word and the next 64 bits: a counter-RNG key."""
    digest = _digest(parts)
    return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")


def dump_json(doc) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=True) + "\n"
