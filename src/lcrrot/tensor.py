"""Minimal reverse-mode autodiff on dense float64 arrays.

The computation graph is recorded implicitly: every operation links its
output tensor back to its inputs together with a closure that propagates
the output gradient. ``Tensor.backward()`` topologically sorts the graph
and runs the closures in reverse order. Gradients accumulate additively,
so a leaf feeding several nodes (shared attention matrices, reused hidden
states) is handled correctly; callers zero gradients between optimizer
steps via ``zero_grad``.

A second ``backward()`` through the same output raises instead of silently
doubling gradients.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DomainError, ShapeError

# When False, ops compute values only and record no graph. Used by the
# finite-difference checker, which needs thousands of cheap forward passes.
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array node in the recorded computation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad and _grad_enabled
        self._backward = None
        self._prev = ()
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every tensor this scalar depends on."""
        if self.data.ndim != 0:
            raise DomainError(f"backward requires a scalar, got shape {self.data.shape}")
        if self._consumed:
            raise RuntimeError("backward already ran through this node")
        self._consumed = True

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(1.0)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, inputs, backward):
    out = Tensor(data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(inputs)
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product: 2d@2d, 2d@1d, 1d@2d and 1d@1d (dot)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError(f"matmul needs arrays, got shapes {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            if a.data.ndim == 1 and b.data.ndim == 1:
                a._accumulate(g * b.data)
            elif b.data.ndim == 1:
                a._accumulate(np.outer(g, b.data))
            elif a.data.ndim == 1:
                a._accumulate(b.data @ g)
            else:
                a._accumulate(g @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 1 and b.data.ndim == 1:
                b._accumulate(g * a.data)
            elif b.data.ndim == 1:
                b._accumulate(a.data.T @ g)
            elif a.data.ndim == 1:
                b._accumulate(np.outer(a.data, g))
            else:
                b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward)


def _check_binary_shapes(op, a, b):
    # scalar operands broadcast; otherwise shapes must match exactly
    if a.data.ndim != 0 and b.data.ndim != 0 and a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


def _reduce_to(g, shape):
    return g.sum() if shape == () else g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes("add", a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product; scalar operands broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes("mul", a, b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accumulate(g * c)

    return _make(a.data * c, (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - y * y))

    return _make(y, (a,), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    # split by sign to avoid exp overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _logistic(a.data)

    def backward(g):
        a._accumulate(g * y * (1.0 - y))

    return _make(y, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; subgradient 0 where clipped."""
    a = _as_tensor(a)
    mask = a.data > floor

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.maximum(a.data, floor), (a,), backward)


def softmax(a) -> Tensor:
    """Numerically stable softmax over a 1-d tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.data.shape[0] < 1:
        raise DomainError(f"softmax requires a non-empty vector, got shape {a.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def backward(g):
        a._accumulate(y * (g - np.dot(g, y)))

    return _make(y, (a,), backward)


def tmean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise DomainError("mean of an empty tensor")

    def backward(g):
        a._accumulate(np.full(a.data.shape, g / n))

    return _make(a.data.mean(), (a,), backward)


def sumsq(a) -> Tensor:
    """Sum of squared entries (the L2 regularizer building block)."""
    a = _as_tensor(a)

    def backward(g):
        a._accumulate(2.0 * g * a.data)

    return _make((a.data * a.data).sum(), (a,), backward)


def index(a, i: int) -> Tensor:
    """Scalar entry a[i] of a 1-d tensor."""
    a = _as_tensor(a)

    def backward(g):
        grad = np.zeros(a.data.shape)
        grad[i] = g
        a._accumulate(grad)

    return _make(a.data[i], (a,), backward)


def concat(parts) -> Tensor:
    """Concatenate tensors along their last axis, preserving order."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DomainError("concat of no operands")
    sizes = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[..., lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), backward)


def stack(parts) -> Tensor:
    """Stack scalars into a 1-d tensor, or 1-d tensors into rows of a 2-d one."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DomainError("stack of no operands")

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(g[i])

    return _make(np.stack([p.data for p in parts]), tuple(parts), backward)


def mean_rows(a) -> Tensor:
    """Mean over axis 0 of a 2-d tensor: the average-pooling primitive."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[0] == 0:
        raise DomainError(f"mean_rows requires a non-empty 2-d tensor, got shape {a.shape}")
    n = a.data.shape[0]

    def backward(g):
        a._accumulate(np.tile(g / n, (n, 1)))

    return _make(a.data.mean(axis=0), (a,), backward)


def lstm_sequence(x, w, u, b, reverse: bool = False) -> Tensor:
    """One LSTM direction over the rows of x [n, d], from a zero state, as one node.

    w [4d_h, d], u [4d_h, d_h] and b [4d_h] stack the gates as input, forget,
    output, candidate. Returns h [n, d_h]; with ``reverse`` the steps run from
    the last row, and row i is still the state after reading row i.
    """
    x, w, u, b = (_as_tensor(t) for t in (x, w, u, b))
    d_h = u.shape[-1]
    if x.data.ndim != 2 or w.shape != (4 * d_h, x.shape[1]) or u.shape != (4 * d_h, d_h) \
            or b.shape != (4 * d_h,):
        raise ShapeError(f"lstm_sequence: x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}")
    n = x.shape[0]
    xs = x.data[::-1] if reverse else x.data
    pre = xs @ w.data.T + b.data  # the input projection of every step in one GEMM
    gates = np.empty((n, 4 * d_h))  # i, f, o after the sigmoid, g after tanh
    cells, hs = np.zeros((n + 1, d_h)), np.zeros((n + 1, d_h))  # row t + 1: after step t
    for t in range(n):
        z = pre[t] + u.data @ hs[t]
        gates[t] = np.concatenate([_logistic(z[:3 * d_h]), np.tanh(z[3 * d_h:])])
        i, f, o, g = gates[t].reshape(4, d_h)
        cells[t + 1] = f * cells[t] + i * g
        hs[t + 1] = o * np.tanh(cells[t + 1])
    tanh_c = np.tanh(cells[1:])

    def backward(grad):
        # backpropagation through time, then the weight gradients as GEMMs
        dh_out = grad[::-1] if reverse else grad
        dpre = gates * (1.0 - gates)
        dpre[:, 3 * d_h:] = 1.0 - gates[:, 3 * d_h:] ** 2
        dz = np.empty((n, 4 * d_h))
        dh, dc = np.zeros(d_h), np.zeros(d_h)
        for t in range(n - 1, -1, -1):
            i, f, o, g = gates[t].reshape(4, d_h)
            dh = dh + dh_out[t]
            dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
            dz[t] = np.concatenate([dc * g, dc * cells[t], dh * tanh_c[t], dc * i]) * dpre[t]
            dc, dh = dc * f, dz[t] @ u.data
        if w.requires_grad:
            w._accumulate(dz.T @ xs)
        if u.requires_grad:
            u._accumulate(dz.T @ hs[:-1])
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        if x.requires_grad:
            x._accumulate((dz @ w.data)[::-1] if reverse else dz @ w.data)

    h = hs[1:]
    return _make(h[::-1] if reverse else h, (x, w, u, b), backward)
