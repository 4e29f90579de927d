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
into a zero-padded [B, n, d] block with its lengths, each LSTM direction is
one packed ``tensor.lstm_sequence`` node over the whole batch, pooling is a
masked mean, and attention a masked softmax over stacks of row vectors
[B, 1, h], so an empty context still gives a zero vector. One example runs
as a batch of one, and its result is squeezed to one example's shapes;
there is no second code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .corpus import Example
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
    n_classes: int = 3

    def __post_init__(self):
        if min(self.d, self.d_h, self.n_classes) < 1:
            raise ConfigError(f"every dimension must be at least 1, got {self}")

    @property
    def hidden(self) -> int:
        """Bi-LSTM state size (both directions concatenated)."""
        return 2 * self.d_h


def sentence_vector_dim(variant: Variant, dims: Dimensions) -> int:
    """Dimension of the concatenated sentence representation v: both context
    vectors, and both attended targets or else the target query, which is a
    raw embedding mean when there is no center Bi-LSTM."""
    if "c2t" in STAGES[variant]:
        return 4 * dims.hidden
    return 2 * dims.hidden + (dims.d if variant is Variant.NO_TARGET_LEARNED else dims.hidden)


@dataclass
class LstmParams:
    """One LSTM direction; gate rows stacked as input, forget, output, candidate."""
    w: Tensor  # [4 d_h, d]
    u: Tensor  # [4 d_h, d_h]
    b: Tensor  # [4 d_h]


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams


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
            for dir_name, p in (("fwd", enc.fwd), ("bwd", enc.bwd)):
                for f in fields(LstmParams):
                    yield f"{enc_name}.{dir_name}.{f.name}", getattr(p, f.name)
        for name in sorted(self.attention):
            yield f"attention.{name}", self.attention[name]
        yield "clf.w", self.clf_w
        yield "clf.b", self.clf_b

    def zero_grad(self):
        for _, t in self.named():
            t.zero_grad()


def _init_lstm(d_in: int, d_h: int, rng: np.random.Generator) -> LstmParams:
    # one draw per matrix yields the same numbers as one draw per gate, in gate order
    return LstmParams(
        w=Tensor(rng.uniform(-0.1, 0.1, (4 * d_h, d_in)), requires_grad=True),
        u=Tensor(rng.uniform(-0.1, 0.1, (4 * d_h, d_h)), requires_grad=True),
        b=Tensor(np.zeros(4 * d_h), requires_grad=True))


def _init_bilstm(d_in, d_h, rng) -> BiLstmParams:
    return BiLstmParams(fwd=_init_lstm(d_in, d_h, rng), bwd=_init_lstm(d_in, d_h, rng))


def init_params(dims: Dimensions, cfg: VariantConfig,
                rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: weight matrices from U(-0.1, 0.1), biases zero."""
    variant = cfg.variant
    stages = STAGES[variant]
    h = dims.hidden
    left = _init_bilstm(dims.d, dims.d_h, rng)
    right = _init_bilstm(dims.d, dims.d_h, rng)
    center = (None if variant is Variant.NO_TARGET_LEARNED
              else _init_bilstm(dims.d, dims.d_h, rng))

    def mat(shape):
        return Tensor(rng.uniform(-0.1, 0.1, shape), requires_grad=True)

    # drawn in this order whatever order the stages run in
    attention: dict[str, Tensor] = {}
    if "t2c" in stages:
        q = dims.d if center is None else h  # the width of the target query
        attention.update(w_cl=mat((h, q)), w_cr=mat((h, q)))
    if "c2t" in stages:
        attention.update(w_tl=mat((h, h)), w_tr=mat((h, h)))
    for name in list(attention):
        attention["b" + name[1:]] = Tensor(0.0, requires_grad=True)

    v_dim = sentence_vector_dim(variant, dims)
    clf_w = mat((dims.n_classes, v_dim))
    clf_b = Tensor(np.zeros(dims.n_classes), requires_grad=True)
    return ModelParams(variant=variant, dims=dims, left=left, right=right,
                       center=center, attention=attention,
                       clf_w=clf_w, clf_b=clf_b)


def encode_bilstm(embedded: np.ndarray, p: BiLstmParams,
                  lengths: np.ndarray) -> Optional[Tensor]:
    """Encode a zero-padded batch [B, n, d], whose sequence j is its first
    lengths[j] rows, into hidden states [B, n, 2*d_h], zero at padding.

    Position i concatenates the forward state after tokens 1..i with the
    backward state after tokens n..i. Returns None when no sequence has a
    token.
    """
    if embedded.shape[1] == 0:
        return None
    x = Tensor(embedded)
    return T.concat([T.lstm_sequence(x, p.fwd.w, p.fwd.u, p.fwd.b, lengths),
                     T.lstm_sequence(x, p.bwd.w, p.bwd.u, p.bwd.b, lengths, reverse=True)])


def pool_target(hidden: Optional[Tensor], lengths: np.ndarray) -> Tensor:
    """Average pooling over each example's target hidden states: [B, 1, h]."""
    if hidden is None or lengths.min() < 1:
        raise DomainError("pool_target requires at least one hidden state")
    return T.mean_rows(hidden, lengths)


def attend(hidden: Optional[Tensor], query: Tensor, w: Tensor, b: Tensor,
           lengths: np.ndarray) -> tuple[Optional[Tensor], Tensor]:
    """Bilinear attention: score_i = tanh(h_i . W . q + b), weights softmax.

    hidden [B, n, h] holds lengths[j] states of example j, query is [B, 1, q]
    and w [h, q]. Returns (alpha [B, 1, n], r [B, 1, h]) with r the weighted
    combination of hidden states. An empty sequence (hidden is None, or a
    length of 0) yields zero weights and a zero vector, so a missing context
    degrades gracefully instead of erroring.
    """
    if hidden is None:
        return None, Tensor(np.zeros((len(lengths), 1, w.shape[0])))
    wq = T.matmul(query, T.transpose(w))
    scores = T.tanh(T.add(T.matmul(wq, T.transpose(hidden)), b))
    alpha = T.softmax(scores, np.arange(hidden.data.shape[1]) < lengths[:, None, None])
    return alpha, T.matmul(alpha, hidden)


def _mean_or_zero(hidden: Optional[Tensor], size: int, lengths: np.ndarray) -> Tensor:
    if hidden is None:
        return Tensor(np.zeros((len(lengths), 1, size)))
    return T.mean_rows(hidden, lengths)


def dropout(v: Tensor, rate: float, mode: str,
            rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout: identity in eval mode, mask + rescale in train mode.

    A batch [B, k] draws its mask in one call, which gives the same numbers
    as B draws of k in row order.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return v
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
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
    """Attention weights and component representations from one forward pass.

    For a batch every array has a leading batch axis, and weights are 0 at
    padding; a weight array is None when its segment is empty in every
    example. For one example the batch axis is squeezed away.
    """
    alpha_l: Optional[np.ndarray]
    alpha_r: Optional[np.ndarray]
    alpha_tl: Optional[np.ndarray]
    alpha_tr: Optional[np.ndarray]
    r_l: np.ndarray
    r_r: np.ndarray
    r_tl: Optional[np.ndarray]
    r_tr: Optional[np.ndarray]
    r_t: Optional[np.ndarray]


@dataclass
class ForwardResult:
    probs: Tensor            # [B, n_classes] (or [n_classes]), rows sum to 1
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
    if params.variant is not cfg.variant:
        raise ConfigError(
            f"params built for {params.variant.value}, config asks {cfg.variant.value}")
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
        r_l = _mean_or_zero(hid_l, params.dims.hidden, len_l)
        r_r = _mean_or_zero(hid_r, params.dims.hidden, len_r)
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
    if mode == "train" and dropout_rate > 0.0:
        v = dropout(v, dropout_rate, mode, rng)
    probs = T.softmax(T.add(T.matmul(v, T.transpose(params.clf_w)), params.clf_b))

    def rows(t):  # [B, 1, k] -> [B, k]
        return None if t is None else t.data[:, 0].copy()

    record = AttentionRecord(
        alpha_l=rows(alpha_l), alpha_r=rows(alpha_r),
        alpha_tl=rows(alpha_tl), alpha_tr=rows(alpha_tr),
        r_l=rows(r_l), r_r=rows(r_r), r_tl=rows(r_tl), r_tr=rows(r_tr), r_t=rows(r_t),
    )
    if batch is ex:  # a list runs as given
        return ForwardResult(probs=probs, sentence_vec=v, record=record)
    return ForwardResult(  # one example: squeeze the batch of one
        probs=T.index(probs, 0), sentence_vec=T.index(v, 0),
        record=AttentionRecord(**{k: None if a is None else a[0] for k, a in vars(record).items()}))
