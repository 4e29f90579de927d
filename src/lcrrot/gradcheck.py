"""End-to-end finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .corpus import Example
from .embeddings import EmbeddingTable
from .model import Dimensions, ModelParams, VariantConfig, forward, init_params
from .training import loss

STEP = 1e-5  # central-difference step


def _loss_value(ex, table, params, cfg, lam) -> float:
    with T.no_grad():
        res = forward(ex, table, params, cfg, mode="eval")
        return float(loss(res.probs, ex.label_index, params, lam).data)


def max_gradient_error(ex: Example, table: EmbeddingTable, params: ModelParams,
                       cfg: VariantConfig, lam: float = 1e-5) -> float:
    """Max discrepancy between analytic and central-difference gradients.

    The discrepancy per entry is |analytic - fd| / max(|analytic|, |fd|, 1e-3);
    the floor keeps finite-difference roundoff noise on near-zero gradients
    from dominating the ratio.
    """
    res = forward(ex, table, params, cfg, mode="eval")
    params.zero_grad()
    loss(res.probs, ex.label_index, params, lam).backward()

    worst = 0.0
    for _, t in params.named():
        grad = t.grad if t.grad is not None else np.zeros(t.data.shape)
        flat = t.data.reshape(-1)
        gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            hi = _loss_value(ex, table, params, cfg, lam)
            flat[i] = orig - STEP
            lo = _loss_value(ex, table, params, cfg, lam)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * STEP)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-3)
            worst = max(worst, err)
    return worst


def tiny_setup(variant, seed: int = 7, d: int = 4, d_h: int = 3,
               left_len: int = 3, target_len: int = 2, right_len: int = 2):
    """A small random example + parameters for quick gradient checks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = Dimensions(d=d, d_h=d_h)
    cfg = VariantConfig(variant=variant)
    params = init_params(dims, cfg, rng)
    table = EmbeddingTable(dim=d, seed=seed)

    left = tuple(f"l{i}" for i in range(left_len))
    target = tuple(f"t{i}" for i in range(target_len))
    right = tuple(f"r{i}" for i in range(right_len))
    ex = Example(left=left, target=target, right=right, label="positive")
    return ex, table, params, cfg
