"""Loss, SGD-with-momentum, the epoch loop and checkpointing.

Loss per instance is cross entropy against the one-hot label plus an L2
penalty over the full trainable parameter set (embeddings excluded; the
penalty covers biases by default, with a flag for the conventional
weights-only variant), one ``tensor.sumsq`` node. Batch loss is the mean
cross entropy over the batch plus the penalty added once.

Each mini-batch runs as one forward (``model.forward`` on the list of
examples) and one backward, which consumes the graph; one example is a
batch of one. Dropout draws one [B, v] mask per batch, the same numbers as
one draw per example. Accuracy passes use ``evalreport.predict_all``, which
runs chunks of examples without recording a graph.

Checkpoint format 3: one JSON line holding ``format_version``, ``variant``,
``hyperparams``, ``dims`` and the parameter names (``params``, in
``ModelParams.named()`` order), then one raw ``.npy`` record per parameter,
so the round trip is bit-exact. Saves write ``<path>.tmp`` and rename it
into place, so a failed save leaves an earlier file at ``path`` intact.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .corpus import Example
from .embeddings import EmbeddingTable
from .errors import CheckpointError, ConfigError, DomainError, ShapeError
from .evalreport import predict_all
from .model import (Dimensions, ModelParams, Variant, VariantConfig, forward,
                    init_params)
from .tensor import Tensor

CHECKPOINT_VERSION = 3
LOG_EPS = 1e-12  # floor inside log() so a saturated softmax cannot yield -inf


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.1
    l2_weight: float = 1e-5
    dropout_rate: float = 0.5
    momentum: float = 0.9
    batch_size: int = 25
    max_epochs: int = 20
    seed: int = 1
    regularize_biases: bool = True

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning rate must be positive and finite")
        if not 0 <= self.l2_weight < math.inf:
            raise ConfigError("L2 weight must be finite and not negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be at least 1")
        if self.max_epochs < 0:
            raise ConfigError("epoch count must not be negative")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")


class OptimizerState:
    """Per-parameter velocity tensors for classical (heavy-ball) momentum."""

    def __init__(self, params: ModelParams):
        self.velocity = {name: np.zeros(t.data.shape) for name, t in params.named()}


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """-log p_true with the probability floored at LOG_EPS: a scalar for one
    probability vector, one value per row for a batch [B, n_classes]."""
    key = labels if probs.data.ndim == 1 else (np.arange(len(labels)), np.asarray(labels))
    return T.scale(T.log(T.clip_min(T.index(probs, key), LOG_EPS)), -1.0)


def l2_penalty(params: ModelParams, lam: float,
               include_biases: bool = True) -> Tensor:
    return T.scale(T.sumsq(*(t for name, t in params.named() if include_biases
                             or not (".b_" in name or name.endswith(".b")))), lam)


def loss(probs: Tensor, label_index: int, params: ModelParams, lam: float,
         include_biases: bool = True) -> Tensor:
    """Single-instance loss: cross entropy + lam * ||Theta||^2."""
    return T.add(cross_entropy(probs, label_index),
                 l2_penalty(params, lam, include_biases))


def batch_loss(probs: Tensor, label_indices, params: ModelParams, lam: float,
               include_biases: bool = True) -> Tensor:
    """Mean cross entropy over the rows of probs [B, n_classes], plus the penalty once."""
    return T.add(T.tmean(cross_entropy(probs, label_indices)),
                 l2_penalty(params, lam, include_biases))


def sgd_momentum_step(params: ModelParams, state: OptimizerState,
                      lr: float, momentum: float):
    """vel <- mu*vel - lr*grad; theta <- theta + vel, in place. Missing grads count as zero."""
    for name, t in params.named():
        grad = t.grad if t.grad is not None else np.zeros(t.data.shape)
        if grad.shape != t.data.shape:
            raise ShapeError(
                f"{name}: gradient shape {grad.shape} != parameter shape {t.data.shape}")
        vel = state.velocity[name]
        vel *= momentum
        vel -= lr * grad
        t.data += vel


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    dev_acc: Optional[float] = None

    def as_line(self) -> str:
        cols = [str(self.epoch), repr(self.train_loss), repr(self.train_acc)]
        if self.dev_acc is not None:
            cols.append(repr(self.dev_acc))
        return "\t".join(cols)


def evaluate_accuracy(examples, table, params, cfg) -> float:
    predicted = predict_all(examples, table, params, cfg)
    return sum(p == ex.label for p, ex in zip(predicted, examples)) / len(examples)


def train(examples: list[Example], table: EmbeddingTable, cfg: VariantConfig,
          hp: Hyperparams, dims: Dimensions,
          dev_examples: Optional[list[Example]] = None,
          log: Optional[Callable[[str], None]] = None,
          ) -> tuple[ModelParams, list[EpochMetrics]]:
    """Run the full training loop; deterministic given inputs and seed.

    Examples are reshuffled every epoch with the seeded generator and
    processed in mini-batches (the last batch may be smaller). When a dev
    set is given, the best-dev-accuracy epoch's parameters are returned;
    otherwise the final parameters.
    """
    if not examples:
        raise DomainError("training on an empty corpus")
    if dev_examples is not None and not dev_examples:
        raise DomainError("the dev corpus is empty")
    rng = np.random.Generator(np.random.PCG64(hp.seed))
    params = init_params(dims, cfg, rng)
    state = OptimizerState(params)

    metrics: list[EpochMetrics] = []
    best_dev = -1.0
    best_params = None
    order = np.arange(len(examples))

    for epoch in range(hp.max_epochs):
        rng.shuffle(order)
        total_ce = 0.0
        for start in range(0, len(order), hp.batch_size):
            batch = [examples[i] for i in order[start:start + hp.batch_size]]
            res = forward(batch, table, params, cfg, mode="train", rng=rng,
                          dropout_rate=hp.dropout_rate)
            bl = batch_loss(res.probs, [ex.label_index for ex in batch], params,
                            hp.l2_weight, include_biases=hp.regularize_biases)
            bl.backward()
            sgd_momentum_step(params, state, hp.learning_rate, hp.momentum)
            params.zero_grad()  # free the gradients before the next batch allocates its own
            total_ce += float(bl.data) * len(batch)

        # accuracy measured at epoch end in eval mode, so `eval` on the same
        # corpus reports the same number as the final metrics line
        m = EpochMetrics(epoch=epoch,
                         train_loss=total_ce / len(examples),
                         train_acc=evaluate_accuracy(examples, table, params, cfg))
        if dev_examples:
            m.dev_acc = evaluate_accuracy(dev_examples, table, params, cfg)
            if m.dev_acc > best_dev:
                best_dev = m.dev_acc
                best_params = copy_params(params)
        metrics.append(m)
        if log is not None:
            log(m.as_line())

    if best_params is not None:
        params = best_params
    return params, metrics


def copy_params(params: ModelParams) -> ModelParams:
    out = copy.deepcopy(params)
    for _, t in out.named():
        t.zero_grad()
    return out


def save_checkpoint(params: ModelParams, cfg: VariantConfig, hp: Hyperparams,
                    path):
    header = {
        "format_version": CHECKPOINT_VERSION,
        "variant": cfg.variant.value,
        "hyperparams": asdict(hp),
        "dims": asdict(params.dims),
        "params": [name for name, _ in params.named()],
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, t in params.named():
                np.save(fh, t.data, allow_pickle=False)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[ModelParams, VariantConfig, Hyperparams]:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            if header["format_version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported version {header['format_version']!r}")
            variant = Variant(header["variant"])
            cfg = VariantConfig(variant=variant)
            hp = Hyperparams(**header["hyperparams"])
            # rebuild the parameter skeleton, then overwrite every tensor
            params = init_params(Dimensions(**header["dims"]), cfg, np.random.default_rng(0))
            if header["params"] != [name for name, _ in params.named()]:
                raise ValueError(f"parameter names do not match a {variant.value} model")
            for name, t in params.named():
                arr = np.load(fh, allow_pickle=False)
                if (arr.shape != t.data.shape or arr.dtype != t.data.dtype
                        or not np.isfinite(arr).all()):
                    raise ValueError(f"{name} is not a finite {t.data.dtype} array "
                                     f"of shape {t.data.shape}")
                t.data = arr
            if fh.read(1):
                raise ValueError("trailing bytes after the last parameter")
        except (KeyError, TypeError, ValueError, EOFError) as exc:
            raise CheckpointError(f"{path}: bad checkpoint ({exc})") from None
    return params, cfg, hp
