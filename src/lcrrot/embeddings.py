"""Pretrained word vectors with frozen rows and reproducible OOV handling.

Embedding file format: plain text, one entry per line,
``token v1 v2 ... vd`` with whitespace separation. Tokens are lowercased
before lookup. An unknown token gets a row from U(-0.1, 0.1), drawn by a
PCG64 generator seeded from the table seed and a blake2b digest of the
token, so the row depends on ``(seed, token)`` alone and not on the order
of lookups. The row is cached at first lookup.

Rows are never modified by training: ``lookup`` returns copies.
"""

from __future__ import annotations

import hashlib
import math
from typing import IO

import numpy as np

from .errors import ConfigError, FormatError


class EmbeddingTable:
    def __init__(self, dim: int = 300, seed: int = 1):
        if dim < 1:
            raise ConfigError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self.seed = seed
        self.rows: dict[str, np.ndarray] = {}
        self.oov_log: set[str] = set()

    def __len__(self):
        return len(self.rows)

    def lookup(self, token: str) -> np.ndarray:
        """Return the vector for ``token``, materializing an OOV row if needed."""
        if not token:
            raise ValueError("lookup of an empty token")
        key = token.lower()
        row = self.rows.get(key)
        if row is None:
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            rng = np.random.default_rng([self.seed, int.from_bytes(digest, "little")])
            row = self.rows[key] = rng.uniform(-0.1, 0.1, self.dim)
            self.oov_log.add(key)
        return row.copy()

    def embed_sequence(self, tokens) -> np.ndarray:
        """Embed a token sequence into an [n, d] array (n may be 0)."""
        if not tokens:
            return np.zeros((0, self.dim))
        return np.stack([self.lookup(t) for t in tokens])

    def matrix_hash(self) -> int:
        """Order-sensitive hash of all tokens and rows; used to assert the freeze invariant."""
        return hash(tuple((key, row.tobytes()) for key, row in self.rows.items()))


def load_pretrained(source: IO[str], dim: int, seed: int = 1) -> EmbeddingTable:
    """Parse an embedding stream into a table.

    Duplicate tokens keep their first occurrence. A line whose numeric
    count differs from ``dim``, with an unparsable or non-finite number, or
    whose numbers sum beyond the float range, raises FormatError naming the
    1-based line number.
    """
    table = EmbeddingTable(dim=dim, seed=seed)
    for lineno, line in enumerate(source, start=1):
        parts = line.split()
        if not parts:
            continue
        token = parts[0].lower()
        if len(parts) - 1 != dim:
            raise FormatError(
                f"line {lineno}: expected {dim} values, found {len(parts) - 1}")
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: unparsable number ({exc})") from None
        if not math.isfinite(sum(values)):  # NaN and inf carry through the sum
            raise FormatError(f"line {lineno}: non-finite value for {token!r}")
        table.rows.setdefault(token, np.array(values))
    return table
