"""Small shared helpers: hashing, seed derivation, JSON."""

from __future__ import annotations

import hashlib
import json


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_seed(*parts) -> int:
    """Derive a 64-bit child seed from integer/string parts, reproducibly.

    SHA-256 based so the derivation is stable across platforms and Python
    versions, and child streams for distinct part tuples are independent.
    """
    token = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_key128(*parts) -> tuple[int, int]:
    """Like derive_seed but returns two 64-bit words (counter-RNG key)."""
    token = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[:8], "big"),
        int.from_bytes(digest[8:16], "big"),
    )


def dump_json(doc) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=True) + "\n"
