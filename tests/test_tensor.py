import math
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcrrot import tensor as T
from lcrrot.errors import DomainError, ShapeError
from lcrrot.tensor import Tensor
from lstm_oracle import sigmoid, stack, two_node_bilstm


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestMatmul:
    def test_identity(self):
        a = rng().uniform(-1, 1, (3, 3))
        out = T.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_zero(self):
        a = rng().uniform(-1, 1, (3, 4))
        out = T.matmul(Tensor(a), Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_triple_loop_oracle(self):
        g = rng(1)
        a, b = g.uniform(-1, 1, (3, 4)), g.uniform(-1, 1, (4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for p in range(4):
                    expected[i, j] += a[i, p] * b[p, j]
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_vector_cases(self):
        g = rng(2)
        m, v, u = g.uniform(-1, 1, (3, 4)), g.uniform(-1, 1, 4), g.uniform(-1, 1, 3)
        np.testing.assert_allclose(T.matmul(Tensor(m), Tensor(v)).data, m @ v)
        np.testing.assert_allclose(T.matmul(Tensor(u), Tensor(m)).data, u @ m)
        np.testing.assert_allclose(T.matmul(Tensor(v), Tensor(v)).data, v @ v)

    @pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3,), (3, 4)), ((4,), (4,)),
                                        ((4,), (2, 4, 3)), ((2, 3), (5, 3, 2))],
                             ids=["matrix_vector", "vector_matrix", "dot", "vector_stack",
                                  "matrix_stack"])
    def test_promoted_and_broadcast_gradients(self, shapes):
        # a 1-d operand is promoted to a matrix; an operand without a stack
        # is shared by every matrix of the other's stack
        g = rng(3)
        a, b = (Tensor(g.uniform(-1, 1, shape), requires_grad=True) for shape in shapes)
        np.testing.assert_array_equal(T.matmul(a, b).data, np.matmul(a.data, b.data))
        _fd_check(lambda: T.tmean(T.tanh(T.matmul(a, b))), [a, b])


class TestEltwise:
    def test_zero_cases(self):
        assert T.tanh(Tensor(0.0)).data == 0.0
        assert sigmoid(Tensor(0.0)).data == 0.5

    def test_add_identity(self):
        x = rng().uniform(-1, 1, 5)
        np.testing.assert_array_equal(T.add(Tensor(x), Tensor(np.zeros(5))).data, x)

    def test_tanh_matches_scalar_loop(self):
        x = rng(3).uniform(-3, 3, 16)
        out = T.tanh(Tensor(x))
        for i, xi in enumerate(x):
            assert abs(out.data[i] - math.tanh(xi)) <= 1e-15

    def test_bounds(self):
        x = rng(4).uniform(-50, 50, 100)
        assert np.all(np.abs(T.tanh(Tensor(x)).data) <= 1.0)
        s = sigmoid(Tensor(x)).data
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.isfinite(s))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))


class TestSoftmax:
    def test_symmetric(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1 / 3))

    def test_matches_direct_formula(self):
        import mpmath
        x = [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            exps = [mpmath.e**xi for xi in x]
            total = sum(exps)
            expected = [float(e / total) for e in exps]
        np.testing.assert_allclose(T.softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_sums_to_one(self):
        for seed in range(20):
            x = rng(seed).uniform(-5, 5, 7)
            out = T.softmax(Tensor(x)).data
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out > 0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.floats(-100, 100))
    # Adding c rounds -2.2e-16 + 3.0 to 3.0: the shifted input is a tie, so
    # the two argmaxes differ while both softmaxes are right.
    @example(xs=[-2.220446049250313e-16, 0.0], c=3.0)
    def test_shift_invariance(self, xs, c):
        shifted = np.array(xs) + c
        a = T.softmax(Tensor(xs)).data
        b = T.softmax(Tensor(shifted)).data
        # Order is kept relative to the input each call actually received.
        for v, p in ((np.array(xs), a), (shifted, b)):
            assert np.all(np.diff(p[np.argsort(v, kind="stable")]) >= 0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_overflow_on_large_inputs(self):
        out = T.softmax(Tensor([1000.0, 1001.0, 999.0])).data
        assert np.all(np.isfinite(out))

    def test_empty_vector_rejected(self):
        with pytest.raises(DomainError):
            T.softmax(Tensor(np.zeros(0)))

    def test_empty_last_axis_with_mask(self):
        # a segment empty in every example of a batch: rows with no entry
        out = T.softmax(Tensor(np.zeros((2, 1, 0))), np.zeros((2, 1, 0), dtype=bool))
        assert out.data.shape == (2, 1, 0)

    def test_full_mask_is_the_unmasked_softmax(self):
        x = rng(6).uniform(-5, 5, (3, 4))
        assert T.softmax(Tensor(x), np.ones((3, 4), dtype=bool)).data.tobytes() == \
            T.softmax(Tensor(x)).data.tobytes()

    def test_rows_with_mask(self):
        x = rng(3).uniform(-5, 5, (3, 4))
        mask = np.array([[True, True, False, False], [True] * 4, [False] * 4])
        out = T.softmax(Tensor(x), mask).data
        np.testing.assert_allclose(out[0, :2], T.softmax(Tensor(x[0, :2])).data, atol=1e-15)
        np.testing.assert_allclose(out[1], T.softmax(Tensor(x[1])).data, atol=1e-15)
        # masked entries and a row with nothing left get weight 0
        assert not out[0, 2:].any() and not out[2].any()

    def test_masked_gradient_matches_finite_differences(self):
        x = Tensor(rng(4).uniform(-2, 2, (3, 4)), requires_grad=True)
        mask = np.array([[True, False, True, True], [True] * 4, [False] * 4])
        weights = Tensor(rng(5).uniform(-1, 1, (3, 4)))
        _fd_check(lambda: T.tmean(T.mul(T.softmax(x, mask), weights)), [x])
        x.zero_grad()
        T.tmean(T.mul(T.softmax(x, mask), weights)).backward()
        assert not x.grad[~mask].any()


class TestReduce:
    def test_mean_single_vector(self):
        x = rng().uniform(-1, 1, 4)
        np.testing.assert_array_equal(T.mean_rows(Tensor(x[None, None, :]), [1]).data[0, 0], x)

    def test_concat_lengths_and_order(self):
        parts = [rng(s).uniform(-1, 1, n) for s, n in enumerate((2, 3, 1, 4))]
        out = T.concat([Tensor(p) for p in parts])
        assert out.data.shape == (10,)
        np.testing.assert_array_equal(out.data, np.concatenate(parts))
        rows = [rng(s).uniform(-1, 1, (3, n)) for s, n in enumerate((2, 4))]
        out = T.concat([Tensor(r) for r in rows])
        np.testing.assert_array_equal(out.data, np.hstack(rows))

    def test_mean_matches_accumulate_and_divide(self):
        vecs = rng(5).uniform(-1, 1, (6, 4))
        acc = np.zeros(4)
        for v in vecs:
            acc += v
        np.testing.assert_allclose(T.mean_rows(Tensor(vecs[None]), [6]).data[0, 0], acc / 6,
                                   atol=1e-12)

    def test_masked_mean_of_a_ragged_batch(self):
        lengths = [3, 0, 5, 1]
        a = Tensor(rng(6).uniform(-1, 1, (4, 6, 3)), requires_grad=True)
        out = T.mean_rows(a, lengths).data
        assert out.shape == (4, 1, 3)
        for j, n in enumerate(lengths):
            # the rows in order, then one division: what np.mean computes
            expected = a.data[j, :n].mean(axis=0) if n else np.zeros(3)
            assert out[j, 0].tolist() == expected.tolist()
        _fd_check(lambda: T.tmean(T.tanh(T.mean_rows(a, lengths))), [a])
        T.tmean(T.mean_rows(a, lengths)).backward()
        assert not a.grad[1].any() and not a.grad[0, 3:].any()
        with pytest.raises(ShapeError):
            T.mean_rows(a, [3, 0, 7, 1])

    def test_sumsq_of_several_operands(self):
        parts = [Tensor(rng(s).uniform(-1, 1, shape), requires_grad=True)
                 for s, shape in enumerate(((2, 3), (4,), ()))]
        total = 0.0
        for p in parts:
            total = total + (p.data * p.data).sum()
        assert float(T.sumsq(*parts).data) == total
        _fd_check(lambda: T.scale(T.sumsq(*parts), 0.5), parts)

    def test_no_operands(self):
        with pytest.raises(DomainError):
            T.concat([])
        with pytest.raises(DomainError):
            stack([])


class TestBatchOps:
    def test_matmul_stacks_match_numpy_and_finite_differences(self):
        # the products of attention: a weight shared by a stack of row
        # vectors, and a stack of row vectors against a stack of matrices
        hidden = Tensor(rng(6).uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        query = Tensor(rng(7).uniform(-1, 1, (2, 1, 5)), requires_grad=True)
        w = Tensor(rng(8).uniform(-1, 1, (4, 5)), requires_grad=True)
        wq = T.matmul(query, T.transpose(w))
        np.testing.assert_allclose(wq.data[:, 0], [w.data @ query.data[b, 0] for b in range(2)],
                                   rtol=0, atol=1e-15)
        scores = T.matmul(wq, T.transpose(hidden))
        assert scores.shape == (2, 1, 3)
        np.testing.assert_allclose(scores.data[:, 0], [hidden.data[b] @ wq.data[b, 0]
                                                       for b in range(2)], rtol=0, atol=1e-15)

        def build():
            wq = T.matmul(query, T.transpose(w))
            return T.tmean(T.tanh(T.matmul(T.tanh(T.matmul(wq, T.transpose(hidden))), hidden)))

        _fd_check(build, [hidden, query, w])
        with pytest.raises(ShapeError):
            T.matmul(hidden, Tensor(np.zeros((3, 4, 2))))

    def test_add_broadcasts_a_bias_row(self):
        x = Tensor(rng(8).uniform(-1, 1, (3, 2)), requires_grad=True)
        b = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        np.testing.assert_array_equal(T.add(x, b).data, x.data + b.data)
        _fd_check(lambda: T.tmean(T.tanh(T.add(x, b))), [x, b])
        with pytest.raises(ShapeError):
            T.add(x, Tensor(np.zeros(3)))

    def test_index_picks_one_entry_per_row(self):
        p = Tensor(rng(9).uniform(0.1, 1, (4, 3)), requires_grad=True)
        key = (np.arange(4), np.array([2, 0, 2, 1]))
        np.testing.assert_array_equal(T.index(p, key).data, p.data[key])
        _fd_check(lambda: T.tmean(T.log(T.index(p, key))), [p])


class TestBackward:
    def test_tanh_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        T.tanh(x).backward()
        assert x.grad == 1.0

    def test_constant_leaf_gets_no_gradient(self):
        x = Tensor(1.0, requires_grad=True)
        c = Tensor(2.0)
        T.mul(x, c).backward()
        assert c.grad is None
        assert x.grad == 2.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(DomainError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_second_backward_errors(self):
        x = Tensor(0.5, requires_grad=True)
        y = T.tanh(x)
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_shared_leaf_accumulates_additively(self):
        x = Tensor(3.0, requires_grad=True)
        # y = x*x + 2x  =>  dy/dx = 2x + 2 = 8
        y = T.add(T.mul(x, x), T.scale(x, 2.0))
        y.backward()
        assert x.grad == pytest.approx(8.0, abs=1e-12)

    def test_backward_releases_the_graph(self):
        w = Tensor(rng(10).uniform(-1, 1, (2, 3)), requires_grad=True)
        x = Tensor(rng(11).uniform(-1, 1, 3), requires_grad=True)
        hidden = T.tanh(T.matmul(w, x))
        loss = T.tmean(T.mul(hidden, hidden))
        loss.backward()
        for node in (hidden, loss):
            assert node._prev == () and node._backward is None
        expected = np.outer(2 * hidden.data * (1 - hidden.data ** 2) / 2, x.data)
        np.testing.assert_allclose(w.grad, expected, atol=1e-15)
        assert x.grad is not None
        with pytest.raises(RuntimeError):
            loss.backward()
        # another loss over a released node cannot silently lose its gradient
        with pytest.raises(RuntimeError):
            T.tmean(hidden).backward()

    def test_zeroing_between_steps(self):
        x = Tensor(1.0, requires_grad=True)
        T.mul(x, x).backward()
        first = float(x.grad)
        x.zero_grad()
        T.mul(x, x).backward()
        assert float(x.grad) == first


def _fd_check(build, tensors, step=1e-6, tol=1e-4):
    """Central finite differences against analytic gradients."""
    out = build()
    out.backward()
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros(t.data.shape)
        flat = t.data.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(build().data)
            flat[i] = orig - step
            lo = float(build().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3) < tol
        t.zero_grad()


class TestGradientProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_composition_matches_finite_differences(self, seed):
        g = rng(seed)
        w = Tensor(g.uniform(-1, 1, (3, 4)), requires_grad=True)
        x = Tensor(g.uniform(-1, 1, 4), requires_grad=True)
        b = Tensor(g.uniform(-1, 1, 3), requires_grad=True)

        def build():
            h = T.tanh(T.add(T.matmul(w, x), b))
            p = T.softmax(T.mul(h, sigmoid(h)))
            return T.add(T.tmean(p), T.scale(T.sumsq(w), 0.1))

        _fd_check(build, [w, x, b])

    def test_index_clip_log_chain(self):
        x = Tensor([0.2, 0.5, 0.3], requires_grad=True)

        def build():
            return T.scale(T.log(T.clip_min(T.index(T.softmax(x), 1), 1e-12)), -1.0)

        _fd_check(build, [x])


def per_step_lstm(xs, w, u, b, reverse):
    """Reference LSTM direction: a graph per timestep over per-gate leaves
    cut from row slices of the stacked w, u and b (gate order i, f, o, g).

    Returns the [n, d_h] output and the leaves (x rows, w, u and b gates).
    """
    d_h = u.shape[1]
    leaf = lambda a: Tensor(a.copy(), requires_grad=True)
    gates = lambda m: [leaf(m[k * d_h:(k + 1) * d_h]) for k in range(4)]
    x_rows = [leaf(x) for x in xs]
    ws, us, bs = gates(w), gates(u), gates(b)
    h, c = Tensor(np.zeros(d_h)), Tensor(np.zeros(d_h))
    out = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        z = [T.add(T.add(T.matmul(ws[k], x_rows[t]), T.matmul(us[k], h)), bs[k])
             for k in range(4)]
        i, f, o = (sigmoid(zk) for zk in z[:3])
        g = T.tanh(z[3])
        c = T.add(T.mul(f, c), T.mul(i, g))
        h = T.mul(o, T.tanh(c))
        out[t] = h
    return stack(out), (x_rows, ws, us, bs)


def lstm_case(seed, n, d=5, d_h=3):
    g = rng(seed)
    return (g.uniform(-1, 1, (n, d)), g.uniform(-0.5, 0.5, (4 * d_h, d)),
            g.uniform(-0.5, 0.5, (4 * d_h, d_h)), g.uniform(-0.5, 0.5, 4 * d_h),
            g.uniform(-1, 1, (n, d_h)))


def one_direction(w, u, b, reverse, seed=99):
    """Stacked Bi-LSTM leaves whose slice for the direction ``reverse`` names
    (0 forward, 1 backward) holds w, u and b, and whose other slice holds
    other random weights."""
    g = rng(seed)
    leaves = []
    for a in (w, u, b):
        stacked = g.uniform(-0.5, 0.5, (2, *a.shape))
        stacked[int(reverse)] = a
        leaves.append(Tensor(stacked, requires_grad=True))
    return leaves


def on_half(weights, reverse):
    """Loss weights [..., d_h] placed on the half of a Bi-LSTM output [..., 2d_h]
    that the direction ``reverse`` names, doubled, so that the mean over the
    whole output equals the mean over that half; 0 on the other half."""
    zero = np.zeros(weights.shape)
    return np.concatenate([zero, 2 * weights] if reverse else [2 * weights, zero], axis=-1)


class TestLstmSequence:
    """``bilstm_sequence``, one direction at a time: ``reverse`` names the
    slice that holds the case's weights and the half of the output the loss
    reads."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 15])
    def test_matches_per_step_graph(self, n, reverse):
        xs, w, u, b, weights = lstm_case(n, n)
        ref, (x_rows, ws, us, bs) = per_step_lstm(xs, w, u, b, reverse)
        T.tmean(T.mul(ref, Tensor(weights))).backward()

        x = Tensor(xs[None], requires_grad=True)
        leaves = one_direction(w, u, b, reverse)
        out = T.bilstm_sequence(x, *leaves, [n])
        T.tmean(T.mul(out, Tensor(on_half(weights, reverse)[None]))).backward()

        d_h = u.shape[1]
        half = out.data[0, :, d_h:] if reverse else out.data[0, :, :d_h]
        np.testing.assert_allclose(half, ref.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, np.stack([p.grad for p in x_rows])[None],
                                   rtol=0, atol=1e-10)
        for got, parts in zip(leaves, (ws, us, bs)):
            np.testing.assert_allclose(got.grad[int(reverse)],
                                       np.concatenate([p.grad for p in parts]),
                                       rtol=0, atol=1e-10)
            assert not got.grad[1 - int(reverse)].any()  # the other half is not read

    @pytest.mark.parametrize("reverse", [False, True])
    def test_central_differences(self, reverse):
        xs, w, u, b, weights = lstm_case(20, 4)
        leaves = [Tensor(xs[None], requires_grad=True), *one_direction(w, u, b, reverse)]
        # both halves read, the named one more heavily
        scale = Tensor(on_half(weights, reverse)[None] + 0.1)

        def build():
            return T.tmean(T.mul(T.tanh(T.bilstm_sequence(*leaves, [4])), scale))

        _fd_check(build, leaves)

    def test_constant_input_gets_no_gradient(self):
        xs, w, u, b, _ = lstm_case(21, 3)
        x = Tensor(xs[None])
        wt, ut, bt = one_direction(w, u, b, False)
        ut.requires_grad = bt.requires_grad = False
        T.tmean(T.bilstm_sequence(x, wt, ut, bt, [3])).backward()
        assert x.grad is None and wt.grad is not None
        assert ut.grad is None and bt.grad is None

    def test_shape_mismatch(self):
        xs, w, u, b, _ = lstm_case(22, 3)
        x = Tensor(xs[None])
        wt, ut, bt = one_direction(w, u, b, False)
        with pytest.raises(ShapeError):
            T.bilstm_sequence(x, Tensor(wt.data[..., :-1]), ut, bt, [3])
        with pytest.raises(ShapeError):
            T.bilstm_sequence(x, wt, ut, Tensor(bt.data[:, :-1]), [3])
        with pytest.raises(ShapeError):  # one sequence without its batch axis
            T.bilstm_sequence(Tensor(xs), wt, ut, bt, [3])
        with pytest.raises(ShapeError):  # one direction's weights, not stacked
            T.bilstm_sequence(x, Tensor(w), Tensor(u), Tensor(b), [3])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_batch_matches_single_sequences(self, reverse):
        g = rng(23)
        lengths = [4, 0, 7, 1, 7, 3]
        d, d_h, width = 5, 3, 8  # one padded row more than the longest sequence
        w, u, b = (Tensor(g.uniform(-0.5, 0.5, shape), requires_grad=True)
                   for shape in ((2, 4 * d_h, d), (2, 4 * d_h, d_h), (2, 4 * d_h)))
        xs = g.uniform(-1, 1, (len(lengths), width, d))
        # both halves read, the named one more heavily
        weights = on_half(g.uniform(-1, 1, (len(lengths), width, d_h)), reverse) + 0.1

        def weighted_sum(out, weights):
            return T.scale(T.tmean(T.mul(out, Tensor(weights))), out.data.size)

        # the batch's loss is the sum of the sequences' losses
        expected_out = np.zeros((len(lengths), width, 2 * d_h))
        expected_dx = np.zeros(xs.shape)
        for j, n in enumerate(lengths):  # each sequence as a batch of one
            if n:
                x = Tensor(xs[j:j + 1, :n], requires_grad=True)
                out = T.bilstm_sequence(x, w, u, b, [n])
                weighted_sum(out, weights[j:j + 1, :n]).backward()
                expected_out[j, :n], expected_dx[j, :n] = out.data[0], x.grad[0]
        expected_grads = [t.grad for t in (w, u, b)]
        for t in (w, u, b):
            t.zero_grad()
        x = Tensor(xs, requires_grad=True)
        out = T.bilstm_sequence(x, w, u, b, lengths)
        weighted_sum(out, weights).backward()

        np.testing.assert_allclose(out.data, expected_out, rtol=0, atol=1e-12)
        for got, want in zip((w, u, b), expected_grads):
            np.testing.assert_allclose(got.grad, want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(x.grad, expected_dx, rtol=0, atol=1e-10)

    def test_zero_width_batch(self):
        """Sequences all empty: a [B, 0, 2d_h] block, and a backward that
        gives every operand a zero gradient of its own shape."""
        g = rng(26)
        d, d_h = 4, 3
        w, u, b = (Tensor(g.uniform(-0.5, 0.5, shape), requires_grad=True)
                   for shape in ((2, 4 * d_h, d), (2, 4 * d_h, d_h), (2, 4 * d_h)))
        x = Tensor(np.zeros((2, 0, d)), requires_grad=True)
        out = T.bilstm_sequence(x, w, u, b, [0, 0])
        assert out.data.shape == (2, 0, 2 * d_h)
        # an op whose only gradient input has no entries links no edge ...
        assert not T.mean_rows(out, [0, 0]).requires_grad
        # ... so the loss reads w too, which links it to the block's node
        T.sumsq(out, w).backward()
        np.testing.assert_array_equal(w.grad, 2.0 * w.data)
        for t in (u, b, x):
            assert t.grad.shape == t.data.shape and not t.grad.any()

    def test_lengths_longer_than_the_block_rejected(self):
        xs, w, u, b, _ = lstm_case(24, 3)
        leaves = one_direction(w, u, b, False)
        with pytest.raises(ShapeError):
            T.bilstm_sequence(Tensor(xs[None]), *leaves, [4])
        with pytest.raises(ShapeError):
            T.bilstm_sequence(Tensor(xs[None]), *leaves, [1, 2])
        with pytest.raises(ShapeError):
            T.bilstm_sequence(Tensor(xs[None]), *leaves, [-1])


# lengths and block width of each batch, for the comparison with the two-node path
TWO_NODE_BATCHES = {
    "ragged": ([4, 0, 7, 1, 7, 3], 8),
    "single": ([5], 5),
    "length_one": ([1, 1, 0], 1),
    "all_empty": ([0, 0], 2),
}


@pytest.mark.parametrize("batch", TWO_NODE_BATCHES)
def test_bilstm_matches_two_node_path(batch):
    """One fused node against the two lstm_sequence nodes and the concat it
    replaced, on the same parameters: outputs within 1e-12, gradients within
    1e-10, the stacked ones slice by slice against fwd.* and bwd.*."""
    lengths, width = TWO_NODE_BATCHES[batch]
    g = rng(25)
    d, d_h = 5, 3
    w, u, b = (Tensor(g.uniform(-0.5, 0.5, shape), requires_grad=True)
               for shape in ((2, 4 * d_h, d), (2, 4 * d_h, d_h), (2, 4 * d_h)))
    xs = g.uniform(-1, 1, (len(lengths), width, d))
    weights = Tensor(g.uniform(-1, 1, (len(lengths), width, 2 * d_h)))

    x = Tensor(xs, requires_grad=True)
    out = T.bilstm_sequence(x, w, u, b, lengths)
    T.tmean(T.mul(T.tanh(out), weights)).backward()

    x_ref = Tensor(xs, requires_grad=True)
    fwd, bwd = (tuple(Tensor(t.data[k].copy(), requires_grad=True) for t in (w, u, b))
                for k in range(2))
    ref = two_node_bilstm(x_ref, fwd, bwd, lengths)
    T.tmean(T.mul(T.tanh(ref), weights)).backward()

    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x.grad, x_ref.grad, rtol=0, atol=1e-10)
    for k, leaves in enumerate((fwd, bwd)):
        for stacked, leaf in zip((w, u, b), leaves):
            np.testing.assert_allclose(stacked.grad[k], leaf.grad, rtol=0, atol=1e-10)


def ragged_bilstm_case(seed=27):
    """Leaves of a Bi-LSTM over a ragged batch with an empty sequence; x requires grad."""
    g = rng(seed)
    lengths, d, d_h = [4, 0, 7, 1, 7, 3], 5, 3
    leaves = [Tensor(g.uniform(-0.5, 0.5, shape), requires_grad=True)
              for shape in ((len(lengths), 8, d), (2, 4 * d_h, d), (2, 4 * d_h, d_h),
                            (2, 4 * d_h))]
    return leaves, lengths, Tensor(g.uniform(-1, 1, (len(lengths), 8, 2 * d_h)))


def run_bilstm(leaves, lengths, weights):
    """The output and every leaf's gradient of a weighted Bi-LSTM loss, as bytes."""
    for t in leaves:
        t.zero_grad()
    out = T.bilstm_sequence(*leaves, lengths)
    T.tmean(T.mul(T.tanh(out), weights)).backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


class TestTwoThreadDirections:
    """``bilstm_sequence`` with its directions on two threads: the cut is
    lowered so that tiny dims take that path."""

    def test_matches_stacked_bytes(self, monkeypatch, worker_halves):
        case = ragged_bilstm_case()
        monkeypatch.setattr(T, "SPLIT_D_H", 10 ** 9)
        stacked = run_bilstm(*case)
        monkeypatch.setattr(T, "SPLIT_D_H", 1)
        assert run_bilstm(*case) == stacked  # x's gradient through np.add.at too
        assert worker_halves == [slice(1, 2)] * 2

    def test_no_rows_run_inline(self, monkeypatch, worker_halves):
        monkeypatch.setattr(T, "SPLIT_D_H", 1)
        (x, *weights), _, _ = ragged_bilstm_case()
        T.sumsq(T.bilstm_sequence(Tensor(x.data[:2, :0]), *weights, [0, 0]), weights[0]).backward()
        assert not worker_halves

    @pytest.mark.parametrize("in_backward", [False, True])
    def test_worker_exception_reaches_caller(self, in_backward, monkeypatch, worker_halves):
        """An exception raised in the worker's half, forward or backward,
        reaches the caller as itself, and the next call still works."""
        class WorkerFault(Exception):
            pass

        def failing(run, s):
            run(s)
            raise WorkerFault

        monkeypatch.setattr(T, "SPLIT_D_H", 1)
        leaves, lengths, _ = case = ragged_bilstm_case()
        expected = run_bilstm(*case)
        out = T.bilstm_sequence(*leaves, lengths) if in_backward else None
        with monkeypatch.context() as m:
            m.setattr(T._worker, "submit",
                      lambda run, s: ThreadPoolExecutor.submit(T._worker, failing, run, s))
            with pytest.raises(WorkerFault):
                if in_backward:
                    T.tmean(out).backward()
                else:
                    T.bilstm_sequence(*leaves, lengths)
        assert run_bilstm(*case) == expected

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
    def test_forked_child_splits_on_a_worker_of_its_own(self, monkeypatch, worker_halves):
        """A child forked after the worker thread ran has no thread behind the
        parent's pool: it must not wait on it forever."""
        monkeypatch.setattr(T, "SPLIT_D_H", 1)
        case = ragged_bilstm_case()
        expected = run_bilstm(*case)
        child = multiprocessing.get_context("fork").Process(
            target=lambda: os._exit(0 if run_bilstm(*case) == expected else 1))
        with warnings.catch_warnings():  # Python 3.12+ warns on forking a threaded process
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        child.join(60)
        if child.exitcode is None:
            child.kill()
            child.join()
        assert child.exitcode == 0

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_core_takes_stacked_path(self, affinity, monkeypatch, worker_halves):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:  # where the platform has no affinity, the core count decides
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(T, "SPLIT_D_H", 1)
        threads = threading.active_count()
        run_bilstm(*ragged_bilstm_case())
        assert not worker_halves and threading.active_count() == threads
