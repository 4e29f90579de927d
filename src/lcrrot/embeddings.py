"""Pretrained word vectors with frozen rows and reproducible OOV handling.

Embedding file format: plain text, one entry per line,
``token v1 v2 ... vd`` with whitespace separation. Tokens are lowercased
before lookup. Unknown tokens get a row drawn from U(-0.1, 0.1) at first
lookup, cached so repeated lookups return the identical vector. The RNG
is numpy's PCG64, seeded at table construction, so the full OOV sequence
is reproducible given the same corpus traversal order and seed.

Rows are never modified by training: ``lookup`` returns copies.
"""

from __future__ import annotations

from typing import IO

import numpy as np

from .errors import ConfigError, FormatError


class EmbeddingTable:
    def __init__(self, dim: int = 300, seed: int = 1):
        if dim < 1:
            raise ConfigError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self.vocab: dict[str, int] = {}
        self.rows: list[np.ndarray] = []
        self.oov_log: set[str] = set()
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def __len__(self):
        return len(self.rows)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.vocab

    def lookup(self, token: str) -> np.ndarray:
        """Return the vector for ``token``, materializing an OOV row if needed."""
        if not token:
            raise ValueError("lookup of an empty token")
        key = token.lower()
        idx = self.vocab.get(key)
        if idx is None:
            row = self._rng.uniform(-0.1, 0.1, self.dim)
            idx = len(self.rows)
            self.rows.append(row)
            self.vocab[key] = idx
            self.oov_log.add(key)
        return self.rows[idx].copy()

    def embed_sequence(self, tokens) -> np.ndarray:
        """Embed a token sequence into an [n, d] array (n may be 0)."""
        if not tokens:
            return np.zeros((0, self.dim))
        return np.stack([self.lookup(t) for t in tokens])

    def matrix_hash(self) -> int:
        """Order-sensitive hash of all rows; used to assert the freeze invariant."""
        h = 0
        for row in self.rows:
            h = hash((h, row.tobytes()))
        return h


def load_pretrained(source: IO[str], dim: int, seed: int = 1) -> EmbeddingTable:
    """Parse an embedding stream into a table.

    Duplicate tokens keep their first occurrence. A line whose numeric
    count differs from ``dim``, or with an unparsable number, raises
    FormatError naming the 1-based line number.
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
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: unparsable number ({exc})") from None
        if token not in table.vocab:
            table.vocab[token] = len(table.rows)
            table.rows.append(vec)
    return table
