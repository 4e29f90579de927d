"""End-to-end finite-difference verification of the analytic gradients."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .corpus import Example
from .embeddings import EmbeddingTable
from .model import (Dimensions, ModelParams, VariantConfig, forward, init_params,
                    is_bias)
from .training import loss

STEP = 1e-5  # central-difference step


def _loss_value(ex, table, params, cfg, lam) -> float:
    with T.no_grad():
        res = forward(ex, table, params, cfg, mode="eval")
        return float(loss(res.probs, ex.label_index, params, lam).data)


def gradient_errors(ex: Example, table: EmbeddingTable, params: ModelParams,
                    cfg: VariantConfig, lam: float = 1e-5) -> dict[str, float]:
    """Per parameter, the max discrepancy between its analytic and its
    central-difference gradient.

    The discrepancy per entry is |analytic - fd| / max(|analytic|, |fd|, 1e-3);
    the floor keeps finite-difference roundoff noise on near-zero gradients
    from dominating the ratio. A NaN in either gradient makes the result NaN,
    which fails every ``err < tolerance`` check.
    """
    res = forward(ex, table, params, cfg, mode="eval")
    params.zero_grad()
    loss(res.probs, ex.label_index, params, lam).backward()

    errors = {}
    for name, t in params.named():
        grad = t.grad if t.grad is not None else np.zeros(t.data.shape)
        flat = t.data.reshape(-1)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = _loss_value(ex, table, params, cfg, lam)
            flat[i] = orig - STEP
            lo = _loss_value(ex, table, params, cfg, lam)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * STEP)
        # np.maximum and np.max propagate NaN, where max() would drop it
        errors[name] = float(np.max(
            np.abs(gflat - fd) / np.maximum(np.maximum(np.abs(gflat), np.abs(fd)), 1e-3)))
    return errors


def worst(errors: dict[str, float]) -> tuple[str, float]:
    """The parameter with the largest error, and that error; NaN counts as largest."""
    name = max(errors, key=lambda n: math.inf if math.isnan(errors[n]) else errors[n])
    return name, errors[name]


def max_gradient_error(ex: Example, table: EmbeddingTable, params: ModelParams,
                       cfg: VariantConfig, lam: float = 1e-5) -> float:
    """The largest of ``gradient_errors``; NaN if any of them is NaN."""
    return worst(gradient_errors(ex, table, params, cfg, lam))[1]


def tiny_setup(variant, seed: int = 7, d: int = 4, d_h: int = 3,
               left_len: int = 3, target_len: int = 2, right_len: int = 2,
               stressed: bool = False):
    """A small random example + parameters for quick gradient checks.

    At the initial point the attention scores are about 1e-6 and the
    weights nearly uniform, so the loss barely depends on the attention
    matrices. ``stressed`` moves to a point where it does: every weight
    times 10, every bias plus U(-0.5, 0.5), and N(0, 1) word vectors.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = Dimensions(d=d, d_h=d_h)
    cfg = VariantConfig(variant=variant)
    params = init_params(dims, cfg, rng)
    table = EmbeddingTable(dim=d, seed=seed)

    left = tuple(f"l{i}" for i in range(left_len))
    target = tuple(f"t{i}" for i in range(target_len))
    right = tuple(f"r{i}" for i in range(right_len))
    ex = Example(left=left, target=target, right=right, label="positive")
    if stressed:
        for name, t in params.named():  # in place, so a 0-d bias stays an array
            if is_bias(name):
                t.data += rng.uniform(-0.5, 0.5, t.data.shape)
            else:
                t.data *= 10.0
        for token in left + target + right:
            table.rows[token] = rng.standard_normal(d)
    return ex, table, params, cfg
