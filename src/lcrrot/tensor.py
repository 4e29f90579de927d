"""Minimal reverse-mode autodiff on dense float64 arrays.

The computation graph is recorded implicitly: every operation links its
output tensor back to its inputs together with a closure that propagates
the output gradient. ``Tensor.backward()`` topologically sorts the graph
and runs the closures in reverse order. Gradients accumulate additively,
so a leaf feeding several nodes (shared attention matrices, reused hidden
states) is handled correctly; callers zero gradients between optimizer
steps via ``zero_grad``.

Backward consumes the graph: once a node's closure has run, the node drops
its closure and its inputs, so the arrays the forward pass kept for it are
freed before ``backward()`` returns. Leaf gradients stay. A second
``backward()`` through a consumed node raises instead of silently doubling
or dropping gradients.

Batched ops carry the batch on the leading axis: ``lstm_sequence`` runs a
zero-padded batch of sequences in a packed layout, ``softmax`` takes a
mask, and ``einsum`` covers the batched products of attention and the
classifier.
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
        """Populate ``grad`` on every tensor this scalar depends on, consuming the graph."""
        if self.data.ndim != 0:
            raise DomainError(f"backward requires a scalar, got shape {self.data.shape}")
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
            if node._consumed:
                raise RuntimeError("backward already ran through this node")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(1.0)
        while topo:  # reverse post-order; a node leaves the list once its closure ran
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._prev, node._consumed = None, (), True
        self._consumed = True


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
    # an operand whose shape ends the other's (a scalar, a bias row) broadcasts
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa[len(sa) - len(sb):] != sb and sb[len(sb) - len(sa):] != sa:
        raise ShapeError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


def _reduce_to(g, shape):
    return g if g.shape == shape else g.reshape(-1, *shape).sum(axis=0)


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
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def softmax(a, mask=None) -> Tensor:
    """Numerically stable softmax over the last axis.

    Entries where the boolean ``mask`` is False get weight 0; a row with no
    entry left is all 0.
    """
    a = _as_tensor(a)
    if a.data.ndim < 1 or a.data.shape[-1] < 1:
        raise DomainError(f"softmax requires a non-empty last axis, got shape {a.shape}")
    if mask is None:
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
    else:
        top = np.max(a.data, axis=-1, keepdims=True, where=mask, initial=-np.inf)
        e = np.exp(a.data - np.where(np.isfinite(top), top, 0.0), where=mask,
                   out=np.zeros(a.data.shape))
        total = e.sum(axis=-1, keepdims=True)
        y = e / np.where(total > 0.0, total, 1.0)

    def backward(g):
        a._accumulate(y * (g - (g * y).sum(axis=-1, keepdims=True)))

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


def index(a, key) -> Tensor:
    """Entries a[key] under numpy indexing: a[i] of a vector, or
    a[rows, cols] to pick one entry per row of a matrix."""
    a = _as_tensor(a)

    def backward(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, key, g)
        a._accumulate(grad)

    return _make(a.data[key], (a,), backward)


def einsum(spec: str, a, b) -> Tensor:
    """Two-operand ``np.einsum``, e.g. ``"bnh,bh->bn"`` for a batch of
    matrix-vector products. Every index of an operand must appear in the
    other operand or in the output."""
    a, b = _as_tensor(a), _as_tensor(b)
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out},{sb}->{sa}", g, b.data, optimize=True))
        if b.requires_grad:
            b._accumulate(np.einsum(f"{sa},{out}->{sb}", a.data, g, optimize=True))

    return _make(np.einsum(spec, a.data, b.data, optimize=True), (a, b), backward)


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


def _packing(lengths: np.ndarray, reverse: bool):
    """Packed order of a batch of sequences: step by step, the sequences
    still running, longest first, so that they are a prefix of the sorted
    batch. Returns the sequences running at each step and the
    (sequence, position) of every packed row."""
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max(initial=0))
    sizes = np.count_nonzero(lengths[order][None, :] > steps[:, None], axis=1)
    starts = np.cumsum(sizes) - sizes
    rows = np.arange(sizes.sum())
    seq = order[rows - np.repeat(starts, sizes)]
    pos = np.repeat(steps, sizes)
    return sizes, seq, lengths[seq] - 1 - pos if reverse else pos


def lstm_sequence(x, w, u, b, reverse: bool = False, lengths=None) -> Tensor:
    """One LSTM direction from a zero state, as one node.

    x is one sequence [n, d], or with ``lengths`` a zero-padded batch
    [B, n, d] whose sequence j is its first lengths[j] rows. w [4d_h, d],
    u [4d_h, d_h] and b [4d_h] stack the gates as input, forget, output,
    candidate. Returns h [n, d_h] (or [B, n, d_h], zero at padding); with
    ``reverse`` each sequence is read from its last row, and row i is still
    the state after reading row i.

    The rows run packed (``_packing``): the k_t sequences still running at
    step t are a prefix of the packed rows of step t - 1, so a step is one
    [k_t, d_h]·[d_h, 4d_h] product, the weight gradients are one product
    over every real row each, and padding is never computed or stored.
    """
    x, w, u, b = (_as_tensor(t) for t in (x, w, u, b))
    d_h = u.shape[-1]
    single = lengths is None
    if not single:
        lengths = np.asarray(lengths)
    if x.data.ndim != (2 if single else 3) or w.shape != (4 * d_h, x.shape[-1]) \
            or u.shape != (4 * d_h, d_h) or b.shape != (4 * d_h,) or not single and (
                lengths.shape != x.shape[:1] or lengths.max(initial=0) > x.shape[1]):
        raise ShapeError(f"lstm_sequence: x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}, "
                         f"lengths {None if single else lengths.tolist()}")
    if single:  # one sequence: the packed rows are its rows, read from the end if reverse
        starts = list(range(x.shape[0] + 1))
        pack = unpack = (lambda a: a[::-1]) if reverse else (lambda a: a)
    else:
        sizes, seq, pos = _packing(lengths, reverse)

        def pack(a):
            return a[seq, pos]

        def unpack(rows):
            out = np.zeros(x.shape[:2] + rows.shape[1:])
            out[seq, pos] = rows
            return out
        starts = [0] + np.cumsum(sizes).tolist()
    xs = pack(x.data)
    # The input projection of every row in one GEMM. Each step adds u·h to its
    # rows and turns them into the gate values in place: i, f, o after the
    # sigmoid, g after tanh.
    gates = xs @ w.data.T
    gates += b.data
    cells, hs = np.empty((len(xs), d_h)), np.empty((len(xs), d_h))
    u_t, prev = u.data.T, None
    for lo, hi in zip(starts[:-1], starts[1:]):
        z = gates[lo:hi]
        if prev is not None:
            z += hs[prev:prev + hi - lo] @ u_t
        z[:, :3 * d_h] = _logistic(z[:, :3 * d_h])
        np.tanh(z[:, 3 * d_h:], out=z[:, 3 * d_h:])
        i, f, o, g = z.reshape(hi - lo, 4, d_h).swapaxes(0, 1)
        c = cells[lo:hi]
        np.multiply(i, g, out=c)
        if prev is not None:
            c += f * cells[prev:prev + hi - lo]
        np.multiply(o, np.tanh(c), out=hs[lo:hi])
        prev = lo
    out = unpack(hs)
    del xs, hs  # backward packs them again from x and out: less to keep until then

    def backward(grad):
        # backpropagation through time, then the weight gradients as GEMMs
        dh_out, tanh_c = pack(grad), np.tanh(cells)
        dz = 1.0 - gates  # the gates' derivatives; row by row, they become dz
        dz *= gates
        dz[:, 3 * d_h:] = 1.0 - gates[:, 3 * d_h:] ** 2
        dh_next = dc_next = None  # carried to the k_t running sequences of step t - 1
        for t in range(len(starts) - 2, -1, -1):
            lo, hi = starts[t], starts[t + 1]
            k = hi - lo
            i, f, o, g = gates[lo:hi].reshape(k, 4, d_h).swapaxes(0, 1)
            dh = dh_out[lo:hi].copy()
            if dh_next is not None:
                dh[:len(dh_next)] += dh_next
            dc = dh * o * (1.0 - tanh_c[lo:hi] ** 2)
            if dc_next is not None:
                dc[:len(dc_next)] += dc_next
            c_prev = cells[starts[t - 1]:starts[t - 1] + k] if t else 0.0
            dz[lo:hi] *= np.concatenate([dc * g, dc * c_prev, dh * tanh_c[lo:hi], dc * i], axis=1)
            if t:
                dc_next, dh_next = dc * f, dz[lo:hi] @ u.data
        if w.requires_grad:
            w._accumulate(dz.T @ pack(x.data))
        if u.requires_grad:
            # the state each row after step 0 read: k_{t-1} rows back
            sizes = np.diff(starts)
            first = sizes[:1].sum()
            rows = np.arange(first, len(dz)) - np.repeat(sizes[:-1], sizes[1:])
            u._accumulate(dz[first:].T @ pack(out)[rows])
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        if x.requires_grad:
            x._accumulate(unpack(dz @ w.data))

    return _make(out, (x, w, u, b), backward)
