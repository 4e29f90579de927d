"""Test oracles built on the engine: the two-node Bi-LSTM path that
``tensor.bilstm_sequence`` replaced, one LSTM direction per graph node, each
with its own weights, as ``model.encode_bilstm`` ran it before both
directions shared one node and one stacked layout; and the ``sigmoid`` and
``stack`` ops that only the per-step oracles use.
"""

import numpy as np

from lcrrot import tensor as T
from lcrrot.errors import DomainError, ShapeError
from lcrrot.tensor import Tensor


def _logistic(x: np.ndarray) -> np.ndarray:
    # split by sign to avoid exp overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = T._as_tensor(a)
    y = _logistic(a.data)

    def backward(g):
        a._accumulate(g * y * (1.0 - y))

    return T._make(y, (a,), backward)


def stack(parts) -> Tensor:
    """Stack scalars into a 1-d tensor, or 1-d tensors into rows of a 2-d one."""
    parts = [T._as_tensor(p) for p in parts]
    if not parts:
        raise DomainError("stack of no operands")

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(g[i])

    return T._make(np.stack([p.data for p in parts]), tuple(parts), backward)


def lstm_sequence(x, w, u, b, lengths, reverse: bool = False) -> Tensor:
    """One LSTM direction from a zero state, as one node.

    x is a zero-padded batch [B, n, d] whose sequence j is its first
    lengths[j] rows. w [4d_h, d], u [4d_h, d_h] and b [4d_h] stack the gates
    as input, forget, output, candidate. Returns h [B, n, d_h], zero at
    padding; with ``reverse`` each sequence is read from its last row, and
    row i is still the state after reading row i.

    The rows run packed (``tensor._packing``): the k_t sequences still running at
    step t are a prefix of the packed rows of step t - 1, so a step is one
    [k_t, d_h]·[d_h, 4d_h] product, the weight gradients are one product
    over every real row each, and padding is never computed or stored.
    """
    x, w, u, b = (T._as_tensor(a) for a in (x, w, u, b))
    lengths = T._batch_lengths(x, lengths, "lstm_sequence")
    d_h = u.data.shape[-1]
    if w.data.shape != (4 * d_h, x.data.shape[-1]) or u.data.shape != (4 * d_h, d_h) \
            or b.data.shape != (4 * d_h,):
        raise ShapeError(f"lstm_sequence: x {x.shape}, w {w.shape}, u {u.shape}, b {b.shape}")
    starts, seq, (step, reverse_pos), rank = T._packing(lengths.tobytes())
    pos = reverse_pos if reverse else step

    def unpack(rows):
        out = np.zeros(x.data.shape[:2] + rows.shape[1:])
        out[seq, pos] = rows
        return out

    xs = x.data[seq, pos]
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
        dh_out, tanh_c = grad[seq, pos], np.tanh(cells)
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
            w._accumulate(dz.T @ x.data[seq, pos])
        if u.requires_grad:
            # the state each row after step 0 read: its sequence's row of the step before
            first = starts[1] if len(starts) > 1 else 0
            prev = np.asarray(starts)[step[first:] - 1] + rank[first:]
            u._accumulate(dz[first:].T @ out[seq[prev], pos[prev]])
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))
        if x.requires_grad:
            x._accumulate(unpack(dz @ w.data))

    return T._make(out, (x, w, u, b), backward)


def two_node_bilstm(x, fwd, bwd, lengths) -> Tensor:
    """Both directions of a Bi-LSTM as two ``lstm_sequence`` nodes and a concat;
    fwd and bwd are each a direction's (w, u, b)."""
    return T.concat([lstm_sequence(x, *fwd, lengths),
                     lstm_sequence(x, *bwd, lengths, reverse=True)])
