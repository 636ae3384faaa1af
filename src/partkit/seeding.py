"""Stable sub-seed derivation.

Python's builtin ``hash`` is salted per process, so labeled sub-seeds are
derived with blake2b instead; results are identical across runs and
platforms.
"""

from __future__ import annotations

try:
    # hashlib serves blake2b from this builtin module too, but importing
    # hashlib also loads OpenSSL's libcrypto (about 3.4 MB per process)
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def derive_seed(base: int, label: str) -> int:
    """A 64-bit sub-seed determined by (base, label) alone."""
    digest = blake2b(f"{base}:{label}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")
