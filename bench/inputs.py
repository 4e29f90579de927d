"""Seeded synthetic inputs, written in the formats lcrrot reads.

Corpora are 3-line ``$T$`` records (sentence, target, label); the vector
file is plain text, ``token v1 ... vd`` per line. Words are named by their
frequency rank (``w0`` is the commonest) and drawn from a Zipf
distribution. A share of the rarer types is left out of the vector file,
so the program has to draw random out-of-vocabulary rows for them.

The held-out corpus is built so that exactly ``heldout_absent`` of its
examples, at fixed positions, contain a word absent from the vector file;
the others use covered words only. Each of those examples holds one word
(``u<j>``) that occurs in no other corpus. The training corpus always holds
an absent word too, so the training table has drawn at least one
out-of-vocabulary row before it first sees a ``u`` word, and the fresh
table of an eval run draws the ``u`` words at different positions of its
random stream. How many held-out examples are affected by the
out-of-vocabulary draw order is therefore fixed by the spec, whatever the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABELS = ("-1", "0", "1")
LABEL_SHARES = (0.25, 0.20, 0.55)   # every corpus has these class shares, rounded


@dataclass(frozen=True)
class InputSpec:
    dim: int
    vocab: int              # word types the corpora draw from
    absent_share: float     # share of types, all outside the top tenth, missing from the vector file
    filler_rows: int        # vector-file rows for words no corpus uses
    n_train: int
    n_dev: int
    n_heldout: int
    heldout_absent: int     # held-out examples holding a word absent from the vector file
    context: tuple[int, int]  # token-count range of a non-empty left or right context
    empty_share: float      # share of left contexts, and of right contexts, that are empty
    target: tuple[int, int] = (1, 3)
    zipf: float = 1.0


@dataclass(frozen=True)
class Example:
    left: tuple[str, ...]
    target: tuple[str, ...]
    right: tuple[str, ...]
    label: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return self.left + self.target + self.right


@dataclass(frozen=True)
class Inputs:
    train: Path
    dev: Path
    heldout: Path
    vectors: Path
    vector_words: frozenset[str]
    train_examples: tuple[Example, ...]
    dev_examples: tuple[Example, ...]
    heldout_examples: tuple[Example, ...]


class _Generator:
    """Draws words by seed; lengths, empty contexts and labels come from fixed
    multisets that the seed only shuffles, so every seed gives the same amount
    of work."""

    def __init__(self, spec: InputSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        ranks = np.arange(spec.vocab)
        p = 1.0 / (ranks + 1.0) ** spec.zipf
        self.p_all = p / p.sum()
        n_absent = round(spec.absent_share * spec.vocab)
        self.absent = rng.choice(ranks[spec.vocab // 10:], n_absent, replace=False)
        covered = np.ones(spec.vocab, dtype=bool)
        covered[self.absent] = False
        self.covered = covered
        p_cov = np.where(covered, p, 0.0)
        self.p_covered = p_cov / p_cov.sum()

    def _spread(self, n: int, lo: int, hi: int) -> np.ndarray:
        """n integers spread evenly over [lo, hi], in seeded order."""
        return self.rng.permutation(lo + (np.arange(n) * (hi - lo + 1)) // n)

    def _context_lengths(self, n: int) -> np.ndarray:
        n_empty = round(self.spec.empty_share * n)
        lengths = np.zeros(n, dtype=int)
        lengths[self.rng.permutation(n)[n_empty:]] = self._spread(n - n_empty, *self.spec.context)
        return lengths

    def _words(self, n: int, covered_only: bool) -> tuple[str, ...]:
        p = self.p_covered if covered_only else self.p_all
        return tuple(f"w{r}" for r in self.rng.choice(self.spec.vocab, n, p=p))

    def examples(self, n: int, covered_only) -> list[Example]:
        """``covered_only[i]`` keeps example i to words in the vector file."""
        lefts, rights = self._context_lengths(n), self._context_lengths(n)
        targets = self._spread(n, *self.spec.target)
        counts = np.floor(np.cumsum((0.0,) + LABEL_SHARES) * n + 0.5).astype(int)
        labels = self.rng.permutation(np.repeat(LABELS, np.diff(counts)))
        return [Example(left=self._words(lefts[i], covered_only[i]),
                        target=self._words(targets[i], covered_only[i]),
                        right=self._words(rights[i], covered_only[i]),
                        label=str(labels[i]))
                for i in range(n)]

    def replace_one(self, ex: Example, word: str) -> Example:
        """Put ``word`` in place of one random token of a non-empty segment."""
        parts = {"left": ex.left, "target": ex.target, "right": ex.right}
        seg = self.rng.choice([k for k, v in parts.items() if v])
        tokens = list(parts[seg])
        tokens[int(self.rng.integers(len(tokens)))] = word
        parts[seg] = tuple(tokens)
        return Example(label=ex.label, **parts)


def _write_corpus(path: Path, examples) -> None:
    lines = []
    for ex in examples:
        lines.append(" ".join(ex.left + ("$T$",) + ex.right))
        lines.append(" ".join(ex.target))
        lines.append(ex.label)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write(spec: InputSpec, seed: int, out_dir: Path) -> Inputs:
    """Generate the corpora and the vector file for ``seed`` into ``out_dir``."""
    rng = np.random.default_rng(seed)
    gen = _Generator(spec, rng)

    train = gen.examples(spec.n_train, [False] * spec.n_train)
    train[0] = gen.replace_one(train[0], f"w{gen.absent[0]}")
    dev = gen.examples(spec.n_dev, [False] * spec.n_dev)

    stride = spec.n_heldout // spec.heldout_absent
    with_absent = [i % stride == 0 and i // stride < spec.heldout_absent
                   for i in range(spec.n_heldout)]
    heldout = gen.examples(spec.n_heldout, [not a for a in with_absent])
    for i in range(spec.n_heldout):
        if with_absent[i]:
            heldout[i] = gen.replace_one(heldout[i], f"u{i // stride}")

    vector_words = [f"w{r}" for r in range(spec.vocab) if gen.covered[r]]
    vector_words += [f"f{j}" for j in range(spec.filler_rows)]
    values = rng.normal(0.0, 0.3, (len(vector_words), spec.dim))
    row_fmt = " ".join(["%.5f"] * spec.dim)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / f"{name}.txt" for name in ("train", "dev", "heldout", "vectors")}
    with open(paths["vectors"], "w", encoding="utf-8") as fh:
        for word, row in zip(vector_words, values):
            fh.write(word + " " + row_fmt % tuple(row) + "\n")
    _write_corpus(paths["train"], train)
    _write_corpus(paths["dev"], dev)
    _write_corpus(paths["heldout"], heldout)
    return Inputs(vector_words=frozenset(vector_words),
                  train_examples=tuple(train), dev_examples=tuple(dev),
                  heldout_examples=tuple(heldout), **paths)
