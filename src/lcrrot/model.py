"""The LCR-Rot network and its four ablation variants.

A sentence is split around the target phrase; three Bi-LSTMs encode left
context, target phrase and right context separately. A two-stage rotatory
attention then runs target2context (pooled target as query, producing
attended context representations) followed by context2target (attended
contexts as queries, producing left-aware and right-aware target
representations). The four component vectors are concatenated and fed to
a softmax classifier.

The variants differ only in which attention stages run, and in what order;
``STAGES`` below says so for each, and drives the parameters, the forward
pass and the classifier width. ``no_target_learned`` also has no center
Bi-LSTM: its target query is the mean of the raw target embeddings.

``forward`` runs a list of examples as one batch: each segment is embedded
into a zero-padded [B, n, d] block with its lengths, each Bi-LSTM is one
packed ``tensor.bilstm_sequence`` node over the whole batch, both
directions in one step loop over stacked weights, pooling is a
masked mean, and attention a masked softmax over stacks of row vectors
[B, 1, h], so an empty context gives a zero vector; a segment empty in every
example is a zero-width block [B, 0, k]. One example runs as a batch of one,
and its result is squeezed to one example's shapes; there is no second
code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .corpus import LABELS, Example
from .embeddings import EmbeddingTable
from .errors import ConfigError, DomainError
from .tensor import Tensor


class Variant(str, Enum):
    LCR_ROT = "lcr_rot"
    NO_TARGET_ATTENTION = "no_target_attention"
    NO_TARGET_LEARNED = "no_target_learned"
    NO_ATTENTION = "no_attention"
    ATTENTION_REVERSE = "attention_reverse"


ALL_VARIANTS = tuple(Variant)

# The attention stages of each variant, in run order. "t2c" (target2context)
# attends over each context with a target query; "c2t" (context2target)
# attends over the target with each context vector as the query. The first
# t2c takes the pooled target as its query, a later one the attended
# targets; the first c2t takes the context means, a later one the attended
# contexts.
STAGES: dict[Variant, tuple[str, ...]] = {
    Variant.LCR_ROT: ("t2c", "c2t"),
    Variant.NO_TARGET_ATTENTION: ("t2c",),
    Variant.NO_TARGET_LEARNED: ("t2c",),
    Variant.NO_ATTENTION: (),
    Variant.ATTENTION_REVERSE: ("c2t", "t2c"),
}


@dataclass(frozen=True)
class VariantConfig:
    variant: Variant = Variant.LCR_ROT


@dataclass(frozen=True)
class Dimensions:
    d: int = 300        # word embedding size
    d_h: int = 300      # LSTM hidden size per direction

    def __post_init__(self):
        for name in ("d", "d_h"):  # type(): a bool is an int, a JSON header may hold one
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")

    @property
    def hidden(self) -> int:
        """Bi-LSTM state size (both directions concatenated)."""
        return 2 * self.d_h


@dataclass
class BiLstmParams:
    """Both directions of a Bi-LSTM, stacked: slice 0 is forward, slice 1
    backward, and each stacks its gate rows as input, forget, output,
    candidate."""
    w: Tensor  # [2, 4 d_h, d]
    u: Tensor  # [2, 4 d_h, d_h]
    b: Tensor  # [2, 4 d_h]


@dataclass
class ModelParams:
    variant: Variant
    dims: Dimensions
    left: BiLstmParams
    right: BiLstmParams
    center: Optional[BiLstmParams]
    attention: dict[str, Tensor]
    clf_w: Tensor
    clf_b: Tensor

    def named(self) -> Iterator[tuple[str, Tensor]]:
        """All trainable tensors in a fixed, deterministic order."""
        encoders = [("left", self.left), ("right", self.right)]
        if self.center is not None:
            encoders.append(("center", self.center))
        for enc_name, enc in encoders:
            for f in fields(BiLstmParams):
                yield f"{enc_name}.{f.name}", getattr(enc, f.name)
        for name in sorted(self.attention):
            yield f"attention.{name}", self.attention[name]
        yield "clf.w", self.clf_w
        yield "clf.b", self.clf_b

    @classmethod
    def from_named(cls, variant: Variant, dims: Dimensions,
                   arrays: dict[str, np.ndarray]) -> "ModelParams":
        """The inverse of ``named()``: trainable tensors over arrays keyed by name."""
        t = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
        enc = {e: BiLstmParams(t[f"{e}.w"], t[f"{e}.u"], t[f"{e}.b"])
               for e in ("left", "right", "center") if f"{e}.w" in t}
        return cls(variant, dims, enc["left"], enc["right"], enc.get("center"),
                   {n.split(".", 1)[1]: x for n, x in t.items() if n.startswith("attention.")},
                   t["clf.w"], t["clf.b"])

    def zero_grad(self):
        for _, t in self.named():
            t.zero_grad()


def check_variant(params: ModelParams, cfg: VariantConfig) -> None:
    """Raise ConfigError unless ``params`` were built for ``cfg``'s variant."""
    if params.variant is not cfg.variant:
        raise ConfigError(
            f"params built for {params.variant.value}, config asks {cfg.variant.value}")


def is_bias(name: str) -> bool:
    """Whether the parameter of this ``ModelParams.named()`` name is a bias."""
    return name.endswith(".b") or ".b_" in name


def param_shapes(variant: Variant, dims: Dimensions) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter of a variant at dims, in ``ModelParams.named()`` order."""
    stages, h, g = STAGES[variant], dims.hidden, 4 * dims.d_h
    encoders = ("left", "right") if variant is Variant.NO_TARGET_LEARNED else (
        "left", "right", "center")
    shapes = {f"{e}.{k}": shape for e in encoders
              for k, shape in (("w", (2, g, dims.d)), ("u", (2, g, dims.d_h)), ("b", (2, g)))}
    q = h if "center" in encoders else dims.d  # the target query's width, in v without c2t
    weights = {}
    if "t2c" in stages:
        weights.update(w_cl=(h, q), w_cr=(h, q))
    if "c2t" in stages:
        weights.update(w_tl=(h, h), w_tr=(h, h))
    attention = weights | {"b" + name[1:]: () for name in weights}
    shapes.update((f"attention.{name}", attention[name]) for name in sorted(attention))
    shapes["clf.w"] = (len(LABELS), 4 * h if "c2t" in stages else 2 * h + q)
    shapes["clf.b"] = (len(LABELS),)
    return shapes


def init_params(dims: Dimensions, cfg: VariantConfig,
                rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: weight matrices from U(-0.1, 0.1), biases zero. The
    weights are drawn in ``named()`` order, except that each Bi-LSTM draws
    forward w, forward u, backward w, backward u (one draw per matrix yields
    the same numbers as one draw per gate, in gate order)."""
    arrays = {name: np.empty(shape) for name, shape in param_shapes(cfg.variant, dims).items()}
    for name, a in arrays.items():
        if name.endswith(".w") and f"{name[:-2]}.u" in arrays:  # a Bi-LSTM
            u = arrays[f"{name[:-2]}.u"]
            for k in range(2):
                a[k] = rng.uniform(-0.1, 0.1, a.shape[1:])
                u[k] = rng.uniform(-0.1, 0.1, u.shape[1:])
        elif not name.endswith(".u"):
            a[...] = 0.0 if is_bias(name) else rng.uniform(-0.1, 0.1, a.shape)
    return ModelParams.from_named(cfg.variant, dims, arrays)


def encode_bilstm(embedded: np.ndarray, p: BiLstmParams, lengths: np.ndarray) -> Tensor:
    """Encode a zero-padded batch [B, n, d], whose sequence j is its first
    lengths[j] rows, into hidden states [B, n, 2*d_h], zero at padding.

    Position i concatenates the forward state after tokens 1..i with the
    backward state after tokens n..i, both from one ``T.bilstm_sequence``
    node. When no sequence has a token, n is 0 and so is the result's width.
    """
    return T.bilstm_sequence(Tensor(embedded), p.w, p.u, p.b, lengths)


def pool_target(hidden: Tensor, lengths: np.ndarray) -> Tensor:
    """Average pooling over each example's target hidden states: [B, 1, h]."""
    if lengths.min() < 1:
        raise DomainError("pool_target requires at least one hidden state")
    return T.mean_rows(hidden, lengths)


def attend(hidden: Tensor, query: Tensor, w: Tensor, b: Tensor,
           lengths: np.ndarray) -> tuple[Tensor, Tensor]:
    """Bilinear attention: score_i = tanh(h_i . W . q + b), weights softmax.

    hidden [B, n, h] holds lengths[j] states of example j, query is [B, 1, q]
    and w [h, q]. Returns (alpha [B, 1, n], r [B, 1, h]) with r the weighted
    combination of hidden states. An empty sequence (a length of 0, or n = 0
    for the whole batch) yields zero weights and a zero vector, so a missing
    context degrades gracefully instead of erroring.
    """
    wq = T.matmul(query, T.transpose(w))
    scores = T.tanh(T.add(T.matmul(wq, T.transpose(hidden)), b))
    alpha = T.softmax(scores, np.arange(hidden.data.shape[1]) < lengths[:, None, None])
    return alpha, T.matmul(alpha, hidden)


def dropout(v: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout: mask + rescale; rate 0 returns v and draws nothing.

    A batch [B, k] draws its mask in one call, which gives the same numbers
    as B draws of k in row order.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return v
    if rng is None:
        raise ValueError("dropout needs an rng")
    mask = (rng.random(v.data.shape) >= rate) / (1.0 - rate)
    return T.mul(v, Tensor(mask))


def _embed_batch(table: EmbeddingTable, segments) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded [B, n, d] embeddings of token sequences, and their lengths."""
    lengths = [len(tokens) for tokens in segments]
    out = np.zeros((len(segments), max(lengths, default=0), table.dim))
    for row, tokens in zip(out, segments):
        row[:len(tokens)] = table.embed_sequence(tokens)
    return out, np.array(lengths)


@dataclass
class AttentionRecord:
    """Attention weights and the context and attended target vectors of one
    forward pass. t2c gives alpha_l and alpha_r, and c2t gives alpha_tl,
    alpha_tr, r_tl and r_tr; each is None when the variant runs no such stage.
    For a batch every array has a leading batch axis, and weights are 0 at
    padding; a weight array is also None when it has no columns, its segment
    empty in every example. For one example the batch axis is squeezed away."""
    alpha_l: Optional[np.ndarray]
    alpha_r: Optional[np.ndarray]
    alpha_tl: Optional[np.ndarray]
    alpha_tr: Optional[np.ndarray]
    r_l: np.ndarray
    r_r: np.ndarray
    r_tl: Optional[np.ndarray]
    r_tr: Optional[np.ndarray]


@dataclass
class ForwardResult:
    probs: Tensor            # [B, len(LABELS)] (or [len(LABELS)]), rows sum to 1
    sentence_vec: Tensor     # v, before the classifier (after dropout in train mode)
    record: AttentionRecord


def forward(ex: Example | list[Example], table: EmbeddingTable,
            params: ModelParams, cfg: VariantConfig, mode: str = "eval",
            rng: Optional[np.random.Generator] = None,
            dropout_rate: float = 0.0) -> ForwardResult:
    """Run a list of examples as one batch through the network; one example
    runs as a batch of one, with the batch axis squeezed from its result.

    In train mode, inverted dropout is applied to the sentence vector
    before the classifier (rng required when dropout_rate > 0).
    """
    batch = [ex] if isinstance(ex, Example) else ex
    check_variant(params, cfg)
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not batch:
        raise DomainError("forward of an empty batch")

    stages = STAGES[params.variant]
    a = params.attention

    (left_emb, len_l), (target_emb, len_t), (right_emb, len_r) = (
        _embed_batch(table, [getattr(e, segment) for e in batch])
        for segment in ("left", "target", "right"))

    hid_l = encode_bilstm(left_emb, params.left, len_l)
    hid_r = encode_bilstm(right_emb, params.right, len_r)
    hid_t = (None if params.center is None
             else encode_bilstm(target_emb, params.center, len_t))

    alpha_l = alpha_r = alpha_tl = alpha_tr = None
    r_l = r_r = r_tl = r_tr = r_t = None
    first = stages[0] if stages else None
    if first != "t2c":  # the context means are the first context vectors
        r_l, r_r = T.mean_rows(hid_l, len_l), T.mean_rows(hid_r, len_r)
    if first != "c2t":  # the pooled target: the first t2c query, or a component of v
        r_t = (T.mean_rows(Tensor(target_emb), len_t) if params.center is None
               else pool_target(hid_t, len_t))

    for stage in stages:
        if stage == "t2c":
            alpha_l, r_l = attend(hid_l, r_t if r_tl is None else r_tl,
                                  a["w_cl"], a["b_cl"], len_l)
            alpha_r, r_r = attend(hid_r, r_t if r_tr is None else r_tr,
                                  a["w_cr"], a["b_cr"], len_r)
        else:
            alpha_tl, r_tl = attend(hid_t, r_l, a["w_tl"], a["b_tl"], len_t)
            alpha_tr, r_tr = attend(hid_t, r_r, a["w_tr"], a["b_tr"], len_t)
    v = T.concat([r_l, r_t, r_r] if r_tl is None else [r_l, r_tl, r_tr, r_r])

    v = T.index(v, (slice(None), 0))  # [B, 1, v] -> [B, v]
    if mode == "train":
        v = dropout(v, dropout_rate, rng)
    probs = T.softmax(T.add(T.matmul(v, T.transpose(params.clf_w)), params.clf_b))

    def rows(t):  # [B, 1, k] -> [B, k]; no stage, or no columns, is None
        return None if t is None or t.data.shape[-1] == 0 else t.data[:, 0].copy()

    record = AttentionRecord(
        alpha_l=rows(alpha_l), alpha_r=rows(alpha_r),
        alpha_tl=rows(alpha_tl), alpha_tr=rows(alpha_tr),
        r_l=rows(r_l), r_r=rows(r_r), r_tl=rows(r_tl), r_tr=rows(r_tr),
    )
    if batch is ex:  # a list runs as given
        return ForwardResult(probs=probs, sentence_vec=v, record=record)
    return ForwardResult(  # one example: squeeze the batch of one
        probs=T.index(probs, 0), sentence_vec=T.index(v, 0),
        record=AttentionRecord(**{k: None if a is None else a[0] for k, a in vars(record).items()}))
