"""Deterministic seed derivation for parallel Monte-Carlo runs.

Child streams are derived by hashing (master seed, labels...) so that results
do not depend on execution order or worker count, and so that the same trial
index yields the same draws regardless of which sweep row it belongs to.

SHA-256 comes from CPython's builtin module, as ``random`` takes its SHA-512,
so no process loads OpenSSL; the digests are the same as ``hashlib``'s.
"""

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(master: int, *parts) -> int:
    """Derive a 64-bit child seed from a master seed and a label tuple.

    Stable across processes and platforms (unlike hash()): SHA-256 of the
    label text, whichever module computes it.
    """
    text = repr((int(master),) + tuple(parts))
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
