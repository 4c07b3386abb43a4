"""Deterministic RNG stream derivation.

Substreams are derived from a master seed plus string tokens (stratum keys,
cell names, tree indices) so that per-stratum / per-cell draws do not depend
on iteration order. Token hashing uses SHA-256, not Python's salted hash().
"""

from __future__ import annotations

import hashlib

import numpy as np


def token_hash(*tokens: object) -> int:
    """Stable 64-bit hash of a token tuple."""
    h = hashlib.sha256("\x1f".join(str(t) for t in tokens).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def substream(seed: int, *tokens: object) -> np.random.Generator:
    """Generator for the substream named by ``tokens`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, token_hash(*tokens)]))


def draw_sorted(members, k: int, seed: int, *tokens: object) -> list:
    """``k`` of ``sorted(members)``, drawn without replacement from the
    substream named by ``tokens`` (none or all of them, drawing nothing, when
    ``k`` is 0 or their count), so the draw ignores the order of ``members``."""
    ordered = sorted(members)
    if k == 0 or k == len(ordered):
        return ordered[:k]
    return [ordered[i] for i in substream(seed, *tokens).choice(len(ordered), size=k, replace=False).tolist()]
