"""Pretrained word vectors with frozen rows and reproducible OOV handling.

Embedding file format: plain text, one entry per line,
``token v1 v2 ... vd`` with whitespace separation. Tokens are lowercased
before lookup. An unknown token gets a row from U(-0.1, 0.1), drawn by a
PCG64 generator seeded from the table seed and a blake2b digest of the
token, so the row depends on ``(seed, token)`` alone and not on the order
of lookups. The row is cached at first lookup.

Rows are never modified by training: ``lookup`` returns copies. A file is
read ``CHUNK_LINES`` lines at a time, each chunk's numbers parsed by one
numpy call, so loading holds at most one chunk beyond the table; the rows
and the errors are those of a line-by-line parse (see ``load_pretrained``).

A parsed file's table is kept beside it, if the directory takes it, in
``<file>.lcrrot``: a JSON line (``format_version`` 2, the sha256 ``digest`` of
the file's bytes, ``dim``, the ``tokens`` in order), then C-order ``<f8`` rows
as in a checkpoint, 8 x rows x dim bytes. It may be deleted at any time. A
copy of another version (version 1 held a blake2b digest) is not read: the
file is parsed once again and the copy rewritten. The OOV seed keeps blake2b.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import suppress
from itertools import islice
from typing import IO

import numpy as np

from .errors import ConfigError, FormatError

CHUNK_LINES = 512  # lines per numpy parse
COPY_SUFFIX, COPY_VERSION = ".lcrrot", 2  # the binary copy beside a vector file


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


def load_pretrained(source: IO[str], dim: int, seed: int = 1) -> EmbeddingTable:
    """Parse an embedding stream into a table.

    Duplicate tokens keep their first occurrence. A line whose numeric
    count differs from ``dim``, with an unparsable or non-finite number, or
    whose numbers sum beyond the float range, raises FormatError naming the
    1-based line number.

    numpy parses ``CHUNK_LINES`` non-blank lines per call, so the memory in
    use beyond the table is one chunk. A chunk it rejects is parsed again
    line by line, which accepts what ``float`` accepts (``1_0``, non-ASCII
    digits) and raises the first fault in file order, as before.

    A regular file read as strict UTF-8 from its start loads from its copy if
    that matches its bytes and ``dim`` and holds exactly its rows, all finite;
    else it is parsed and the copy rewritten unless the file changed meanwhile.
    """
    table = EmbeddingTable(dim=dim, seed=seed)
    if (found := _hash_file(source)) and (rows := _read_copy(found[0], found[2], dim)) is not None:
        table.rows = rows
        return table
    numbered = ((n, line) for n, line in enumerate(source, start=1) if line.strip())
    while chunk := list(islice(numbered, CHUNK_LINES)):
        heads = [line.split(None, 1) for _, line in chunk]
        try:
            block = np.loadtxt([rest for _, rest in heads], comments=None, ndmin=2)
        except ValueError:  # also a token-only line, which fails to unpack
            block = None
        # cumsum sums each row left to right, as the line-by-line check does;
        # a row that overflows is not warned about here, but named below
        with np.errstate(all="ignore"):
            fast = (block is not None and block.shape == (len(chunk), dim)
                    and np.isfinite(np.cumsum(block, axis=1)[:, -1]).all())
        if fast:
            for (token, _), row in zip(heads, block):
                table.rows.setdefault(token.lower(), row)
            continue
        for lineno, line in chunk:
            parts = line.split()
            token = parts[0].lower()
            if len(parts) - 1 != dim:
                raise FormatError(
                    f"line {lineno}: expected {dim} values, found {len(parts) - 1}")
            try:
                values = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: unparsable number ({exc})") from None
            total = 0.0  # left to right, as the chunk's cumsum; 3.12's sum() compensates
            for value in values:
                total += value
            if not math.isfinite(total):  # NaN and inf carry through the sum
                raise FormatError(f"line {lineno}: non-finite value for {token!r}")
            table.rows.setdefault(token, np.array(values))
    if found:
        name, key, digest = found
        tmp = f"{name}{COPY_SUFFIX}.{os.getpid()}.tmp"
        try:
            if ((now := os.stat(name)).st_size, now.st_mtime_ns, now.st_ino) == key:
                with open(tmp, "wb") as fh:
                    fh.write(json.dumps({"format_version": COPY_VERSION, "digest": digest,
                                         "dim": dim, "tokens": list(table.rows)}).encode())
                    fh.writelines([b"\n", *(np.asarray(r, "<f8") for r in table.rows.values())])
                os.replace(tmp, name + COPY_SUFFIX)
        except OSError:
            with suppress(OSError):
                os.remove(tmp)
    return table


def _hash_file(source):
    """The name, (size, mtime, inode) and sha256 hex digest of the regular
    file ``source`` reads as strict UTF-8 from its start, else None. OpenSSL's
    sha256 uses the CPU's SHA extensions, where there are any."""
    with suppress(AttributeError, OSError, TypeError, ValueError):
        if (isinstance(source.name, str) and os.path.isfile(source.name) and source.tell() == 0
                and source.errors == "strict" and source.encoding.lower() in ("utf-8", "utf8")):
            with open(source.name, "rb") as fh:
                if os.path.samestat(st := os.fstat(fh.fileno()), os.fstat(source.fileno())):
                    digest, block = hashlib.sha256(), memoryview(bytearray(1 << 20))
                    while size := fh.readinto(block):
                        digest.update(block[:size])
                    return source.name, (st.st_size, st.st_mtime_ns, st.st_ino), digest.hexdigest()
    return None  # StringIO, a pipe: no name, encoding, position or regular file


def _read_copy(name: str, digest: str, dim: int):
    """The rows of the copy if it was written for these bytes and ``dim`` and is whole."""
    with suppress(KeyError, OSError, TypeError, ValueError):  # missing or garbled
        with open(name + COPY_SUFFIX, "rb") as fh:
            head, size = json.loads(fh.readline()), os.fstat(fh.fileno()).st_size - fh.tell()
            tokens = head["tokens"]  # the size is checked before the rows are allocated
            if (type(tokens) is list and [head["format_version"], head["digest"], head["dim"]]
                    == [COPY_VERSION, digest, dim] and 8 * len(tokens) * dim == size):
                rows = dict(zip(tokens, block := np.empty((len(tokens), dim), "<f8")))
                if (fh.readinto(block) == size and np.isfinite(block).all()
                        and len(rows) == len(tokens) and all(type(t) is str for t in rows)):
                    return rows
    return None
