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

Every op works on a batch, carried on the leading axis: ``bilstm_sequence``
runs both directions of a Bi-LSTM over a zero-padded batch of sequences in
a packed layout, as one node with stacked weights, ``mean_rows`` and
``softmax`` take the batch's lengths or mask, and ``matmul`` follows
``np.matmul``, so a stack of row vectors [B, 1, k] goes through the
products of attention and the classifier; one example is a batch of one.
"""

from __future__ import annotations

import contextlib
import functools

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
    # an input with no entries has no gradient to carry, so it links no edge
    if _grad_enabled and any(t.requires_grad and t.data.size for t in inputs):
        out.requires_grad = True
        out._prev = tuple(inputs)
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product under ``np.matmul`` rules: a 1-d operand is promoted to
    a matrix and the added axis dropped from the result, and stacks of
    matrices broadcast when one's stack shape ends the other's.

    A right operand of at most two axes, such as a weight shared by a stack,
    meets every row of the left operand in one product, forward and
    backward, instead of one product per matrix of the stack.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError(f"matmul needs arrays, got shapes {a.shape} and {b.shape}")
    am = ad if ad.ndim > 1 else ad[None]
    bm = bd if bd.ndim > 1 else bd[:, None]
    if bm.ndim == 2:
        am = am.reshape(-1, am.shape[-1])
    sa, sb = am.shape[:-2], bm.shape[:-2]
    if am.shape[-1] != bm.shape[-2] or (sa[len(sa) - len(sb):] != sb
                                        and sb[len(sb) - len(sa):] != sa):
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = am @ bm

    def backward(g):
        g = g.reshape(out.shape)
        if a.requires_grad:
            a._accumulate(_reduce_to(g @ bm.swapaxes(-1, -2), am.shape).reshape(ad.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(am.swapaxes(-1, -2) @ g, bm.shape).reshape(bd.shape))

    # the longer stack, then a's rows and b's columns, each unless promoted
    shape = max(ad.shape[:-2], bd.shape[:-2], key=len) + ad.shape[-2:-1] + bd.shape[1:][-1:]
    return _make(out.reshape(shape), (a, b), backward)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)

    def backward(g):
        a._accumulate(g.swapaxes(-1, -2))

    return _make(a.data.swapaxes(-1, -2), (a,), backward)


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
    entry left is all 0. With a mask, the last axis may be empty.
    """
    a = _as_tensor(a)
    if a.data.ndim < 1 or (a.data.shape[-1] < 1 and mask is None):
        raise DomainError(f"softmax requires a non-empty last axis, got shape {a.shape}")
    # masked entries become -inf, so exp gives them 0; a row with nothing left gets
    # a finite maximum and the floor 1 as its sum, which every other row reaches
    z = a.data if mask is None else np.where(mask, a.data, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True, initial=np.finfo(np.float64).min))
    y = e / np.maximum(e.sum(axis=-1, keepdims=True), 1.0)

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


def sumsq(*tensors) -> Tensor:
    """Sum of the squared entries of every operand, added operand by operand
    in order: the L2 penalty as one node."""
    tensors = [_as_tensor(t) for t in tensors]
    total = sum((t.data * t.data).sum() for t in tensors)

    def backward(g):
        for t in tensors:
            if t.requires_grad:
                t._accumulate(2.0 * g * t.data)

    return _make(total, tensors, backward)


def index(a, key) -> Tensor:
    """Entries a[key] under numpy indexing: a[i] of a vector, or
    a[rows, cols] to pick one entry per row of a matrix."""
    a = _as_tensor(a)

    def backward(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, key, g)
        a._accumulate(grad)

    return _make(a.data[key], (a,), backward)


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


def _batch_lengths(x: Tensor, lengths, op: str) -> np.ndarray:
    """``lengths`` as an array, checked against the zero-padded batch x [B, n, k]."""
    lengths = np.asarray(lengths, dtype=np.intp)
    values = lengths.tolist()
    if x.data.ndim != 3 or lengths.shape != x.data.shape[:1] \
            or not 0 <= min(values, default=0) <= max(values, default=0) <= x.data.shape[1]:
        raise ShapeError(f"{op}: a batch of shape {x.shape} with lengths {values}")
    return lengths


def mean_rows(a, lengths) -> Tensor:
    """Mean of each batch element's rows: element j of a [B, n, k] holds its
    first lengths[j] rows, and the result [B, 1, k] is 0 where it holds none.

    The rows are summed in order and the sum divided by the length, which is
    what ``np.mean(axis=0)`` of the element's rows computes.
    """
    a = _as_tensor(a)
    lengths = _batch_lengths(a, lengths, "mean_rows")
    keep = np.arange(a.data.shape[1])[:, None] < lengths[:, None, None]
    n = np.maximum(lengths, 1)[:, None, None]

    def backward(g):
        a._accumulate(keep * (g / n))

    return _make((a.data * keep).sum(axis=1, keepdims=True) / n, (a,), backward)


@functools.lru_cache(maxsize=128)
def _packing(key: bytes):
    """Packed order of a batch of sequences with lengths ``key`` (intp
    bytes): step by step, the sequences still running, longest first, so
    that they are a prefix of the sorted batch.

    Returns the first packed row of every step (and the row count at the
    end), then for every packed row its sequence, its positions [2, rows]
    (the row it reads forward, which is its step, then the row it reads in
    reverse) and its rank in the sorted batch. The arrays are read-only.
    """
    lengths = np.frombuffer(key, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(max(lengths.tolist(), default=0) + 1)
    step, rank = np.nonzero(steps[:-1, None] < lengths[order])  # step by step, longest first
    seq = order[rank]
    pos = np.stack([step, lengths[seq] - 1 - step])
    for arr in (seq, pos, rank):
        arr.setflags(write=False)
    return tuple(np.searchsorted(step, steps).tolist()), seq, pos, rank


def bilstm_sequence(x, w, u, b, lengths) -> Tensor:
    """Both directions of a Bi-LSTM from a zero state, as one node.

    x is a zero-padded batch [B, n, d] whose sequence j is its first
    lengths[j] rows. w [2, 4d_h, d], u [2, 4d_h, d_h] and b [2, 4d_h] hold
    the forward direction in slice 0 and the backward one in slice 1, gates
    stacked as input, forget, output, candidate. Returns [B, n, 2d_h] (n may
    be 0), zero at padding: row i is the forward state after reading rows
    0..i, then the backward state after reading the sequence from its end
    down to i.

    The rows run packed (``_packing``): the k_t sequences still running at
    step t are a prefix of the packed rows of step t - 1, in both
    directions. So a step is one stacked product [2, k_t, d_h]·[2, d_h, 4d_h],
    the input projection and each weight gradient are one stacked product
    over every real row, and padding is never computed or stored.
    """
    x, w, u, b = _as_tensor(x), _as_tensor(w), _as_tensor(u), _as_tensor(b)
    lengths = _batch_lengths(x, lengths, "bilstm_sequence")
    d_h = u.data.shape[-1]
    if w.data.shape != (2, 4 * d_h, x.data.shape[-1]) or u.data.shape != (2, 4 * d_h, d_h) \
            or b.data.shape != (2, 4 * d_h):
        raise ShapeError(f"bilstm_sequence: x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}")
    starts, seq, pos, rank = _packing(lengths.tobytes())
    batch, side = x.data.shape[:2], np.arange(2)[:, None]  # side: each packed row's direction

    def pack(a):  # [B, n, 2d_h] -> [2, rows, d_h], each direction in packed order
        return a.reshape(*batch, 2, d_h)[seq, pos, side]

    # The input projection of every row in one stacked GEMM. Each step adds
    # u·h and turns its rows into the gate values in place with one tanh:
    # sigmoid(z) = (1 + tanh(z / 2)) / 2 for i, f, o (halving is exact).
    gates = x.data[seq, pos] @ w.data.swapaxes(1, 2)
    gates += b.data[:, None]
    cells, hs = np.empty((2, len(seq), d_h)), np.empty((2, len(seq), d_h))
    u_t, prev = u.data.swapaxes(1, 2), None
    for lo, hi in zip(starts[:-1], starts[1:]):
        z = gates[:, lo:hi]
        if prev is not None:
            z += hs[:, prev:prev + hi - lo] @ u_t
        z[..., :3 * d_h] *= 0.5
        np.tanh(z, out=z)
        z[..., :3 * d_h] *= 0.5
        z[..., :3 * d_h] += 0.5
        i, f, o, g = z.reshape(2, hi - lo, 4, d_h).transpose(2, 0, 1, 3)
        c = cells[:, lo:hi]
        np.multiply(i, g, out=c)
        if prev is not None:
            c += f * cells[:, prev:prev + hi - lo]
        np.multiply(o, np.tanh(c), out=hs[:, lo:hi])
        prev = lo
    out = np.zeros((*batch, 2 * d_h))
    out.reshape(*batch, 2, d_h)[seq, pos, side] = hs
    del hs  # backward packs it again from out: less to keep until then

    def backward(grad):
        # backpropagation through time, then the weight gradients as GEMMs
        dh_out, tanh_c = pack(grad), np.tanh(cells)
        dz = 1.0 - gates  # the gates' derivatives; row by row, they become dz
        dz *= gates
        dz[..., 3 * d_h:] = 1.0 - gates[..., 3 * d_h:] ** 2
        dh_next = dc_next = None  # carried to the k_t running sequences of step t - 1
        for t in range(len(starts) - 2, -1, -1):
            lo, hi = starts[t], starts[t + 1]
            k = hi - lo
            i, f, o, g = gates[:, lo:hi].reshape(2, k, 4, d_h).transpose(2, 0, 1, 3)
            dh = dh_out[:, lo:hi]  # each step reads its rows once, so they can be added to
            if dh_next is not None:
                dh[:, :dh_next.shape[1]] += dh_next
            dc = dh * o * (1.0 - tanh_c[:, lo:hi] ** 2)
            if dc_next is not None:
                dc[:, :dc_next.shape[1]] += dc_next
            c_prev = cells[:, starts[t - 1]:starts[t - 1] + k] if t else 0.0
            dz[:, lo:hi] *= np.concatenate([dc * g, dc * c_prev, dh * tanh_c[:, lo:hi], dc * i],
                                           axis=-1)
            if t:
                dc_next, dh_next = dc * f, dz[:, lo:hi] @ u.data
        if w.requires_grad:
            w._accumulate(dz.swapaxes(1, 2) @ x.data[seq, pos])
        if u.requires_grad:
            # the state each row after step 0 read: its sequence's row of the step before
            first = starts[1] if len(starts) > 1 else 0
            prev = np.asarray(starts)[pos[0, first:] - 1] + rank[first:]
            u._accumulate(dz[:, first:].swapaxes(1, 2) @ pack(out)[:, prev])
        if b.requires_grad:
            b._accumulate(dz.sum(axis=1))
        if x.requires_grad:
            dx = np.zeros(x.data.shape)
            np.add.at(dx, (seq, pos), dz @ w.data)  # the directions read each row once each
            x._accumulate(dx)

    return _make(out, (x, w, u, b), backward)
