import math

import numpy as np
import pytest

from lcrrot import model as M
from lcrrot import tensor as T
from lcrrot.corpus import Example
from lcrrot.embeddings import EmbeddingTable
from lcrrot.errors import ConfigError, DomainError
from lcrrot.model import (ALL_VARIANTS, Dimensions, Variant, VariantConfig,
                          attend, encode_bilstm, forward, init_params,
                          pool_target)
from lcrrot.tensor import Tensor
from lcrrot.training import batch_loss, cross_entropy, l2_penalty, loss
from lstm_oracle import stack, two_node_bilstm


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def stacked_bilstm(d, d_h, draw):
    """Bi-LSTM parameters: direction k (0 forward, 1 backward) is slice k."""
    return M.BiLstmParams(w=Tensor(draw((2, 4 * d_h, d))), u=Tensor(draw((2, 4 * d_h, d_h))),
                          b=Tensor(draw((2, 4 * d_h))))


def zero_bilstm(d, d_h):
    return stacked_bilstm(d, d_h, np.zeros)


def random_bilstm(d, d_h, g):
    return stacked_bilstm(d, d_h, lambda shape: g.uniform(-0.5, 0.5, shape))


def direction(bp, k):
    """Direction k of a Bi-LSTM as its (w, u, b) arrays."""
    return bp.w.data[k], bp.u.data[k], bp.b.data[k]


def lstm_step_oracle(x, h, c, p):
    """Scalar-arithmetic reference for one LSTM cell update; p is one
    direction's (w, u, b).

    Gate k (input, forget, output, candidate) of unit j is row k*d_h + j
    of the stacked w, u and b.
    """
    d_h = len(h)
    w, u, b = p
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))

    def pre(k, j):
        r = k * d_h + j
        return sum(w[r, m] * x[m] for m in range(len(x))) + \
            sum(u[r, m] * h[m] for m in range(d_h)) + b[r]

    h_new, c_new = np.zeros(d_h), np.zeros(d_h)
    for j in range(d_h):
        zi, zf, zo, zg = (pre(k, j) for k in range(4))
        c_new[j] = sig(zf) * c[j] + sig(zi) * math.tanh(zg)
        h_new[j] = sig(zo) * math.tanh(c_new[j])
    return h_new, c_new


def run_lstm(xs, bp):
    """The forward direction of bp over one sequence: [n, d_h]."""
    return encode_one(xs, bp)[:, :bp.u.data.shape[-1]]


def encode_one(x, bp):
    """encode_bilstm of one [n, d] sequence, run as a batch of one: [n, 2*d_h]."""
    return encode_bilstm(x[None], bp, np.array([len(x)])).data[0]


class TestLstmStep:
    def test_all_zero_parameters(self):
        # o = 1/2 everywhere, so h = 0 means c = 0 too
        h = run_lstm(rng().uniform(-1, 1, (3, 3)), zero_bilstm(3, 2))
        np.testing.assert_array_equal(h, np.zeros((3, 2)))

    def test_output_strictly_inside_unit_interval(self):
        g = rng(1)
        h = run_lstm(g.uniform(-2, 2, (5, 3)), random_bilstm(3, 4, g))
        assert np.all(np.abs(h) < 1.0)

    def test_matches_scalar_arithmetic_oracle(self):
        # steps after the first start from the nonzero state the oracle carries
        g = rng(2)
        bp = random_bilstm(2, 2, g)
        xs = g.uniform(-1, 1, (3, 2))
        h, c = np.zeros(2), np.zeros(2)
        expected = []
        for x in xs:
            h, c = lstm_step_oracle(x, h, c, direction(bp, 0))
            expected.append(h)
        np.testing.assert_allclose(run_lstm(xs, bp), expected, atol=1e-12)


class TestEncodeBilstm:
    def test_single_token(self):
        g = rng(3)
        bp = random_bilstm(3, 2, g)
        x = g.uniform(-1, 1, (1, 3))
        out = encode_one(x, bp)
        fh, _ = lstm_step_oracle(x[0], np.zeros(2), np.zeros(2), direction(bp, 0))
        bh, _ = lstm_step_oracle(x[0], np.zeros(2), np.zeros(2), direction(bp, 1))
        np.testing.assert_allclose(out[0], np.concatenate([fh, bh]), atol=1e-12)

    def test_empty_sequence(self):
        g = rng(3)
        bp = random_bilstm(3, 2, g)
        out = encode_bilstm(np.zeros((2, 0, 3)), bp, np.array([0, 0]))
        assert out.data.shape == (2, 0, 4)

    def test_reversal_swaps_directions(self):
        g = rng(4)
        p = random_bilstm(3, 2, g)
        # shared weights make the symmetry exact
        bp = M.BiLstmParams(*(Tensor(np.stack([t.data[0]] * 2)) for t in (p.w, p.u, p.b)))
        x = g.uniform(-1, 1, (4, 3))
        fwd_out = encode_one(x, bp)
        rev_out = encode_one(x[::-1].copy(), bp)
        for i in range(4):
            np.testing.assert_allclose(fwd_out[i, :2], rev_out[3 - i, 2:], atol=1e-12)
            np.testing.assert_allclose(fwd_out[i, 2:], rev_out[3 - i, :2], atol=1e-12)

    def test_matches_two_pass_oracle(self):
        g = rng(5)
        bp = random_bilstm(3, 2, g)
        x = g.uniform(-1, 1, (3, 3))
        out = encode_one(x, bp)
        # independent scalar-loop passes
        h, c = np.zeros(2), np.zeros(2)
        fwd = []
        for i in range(3):
            h, c = lstm_step_oracle(x[i], h, c, direction(bp, 0))
            fwd.append(h)
        h, c = np.zeros(2), np.zeros(2)
        bwd = [None] * 3
        for i in reversed(range(3)):
            h, c = lstm_step_oracle(x[i], h, c, direction(bp, 1))
            bwd[i] = h
        for i in range(3):
            np.testing.assert_allclose(out[i], np.concatenate([fwd[i], bwd[i]]),
                                       atol=1e-12)


# d, d_h = 4, 3 (h = 6): per variant, the encoders, the attention matrices
# in draw order with their shapes, and the classifier width
INIT_LAYOUT = {
    Variant.LCR_ROT: (("left", "right", "center"),
                      {"w_cl": (6, 6), "w_cr": (6, 6), "w_tl": (6, 6), "w_tr": (6, 6)}, 24),
    Variant.NO_TARGET_ATTENTION: (("left", "right", "center"),
                                  {"w_cl": (6, 6), "w_cr": (6, 6)}, 18),
    Variant.NO_TARGET_LEARNED: (("left", "right"), {"w_cl": (6, 4), "w_cr": (6, 4)}, 16),
    Variant.NO_ATTENTION: (("left", "right", "center"), {}, 18),
    Variant.ATTENTION_REVERSE: (("left", "right", "center"),
                                {"w_cl": (6, 6), "w_cr": (6, 6), "w_tl": (6, 6), "w_tr": (6, 6)}, 24),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_init_params_stack_per_gate_draws(variant):
    """One draw per direction's matrix equals four per-gate draws, in gate
    order, and the directions' slices are drawn as separate matrices were
    (forward w, forward u, backward w, backward u); then the attention
    matrices and the classifier, in a fixed order. The names and shapes are
    the checkpoint's ``params`` header."""
    d, d_h = 4, 3
    encoders, attention, v_dim = INIT_LAYOUT[variant]
    params = init_params(Dimensions(d=d, d_h=d_h), VariantConfig(variant), rng(12))
    g = rng(12)
    expected = []
    for enc in encoders:
        p = getattr(params, enc)
        for k in range(2):  # forward w and u, then backward w and u
            w = np.vstack([g.uniform(-0.1, 0.1, (d_h, d)) for _ in range(4)])
            u = np.vstack([g.uniform(-0.1, 0.1, (d_h, d_h)) for _ in range(4)])
            assert p.w.data[k].tobytes() == w.tobytes()
            assert p.u.data[k].tobytes() == u.tobytes()
        np.testing.assert_array_equal(p.b.data, np.zeros((2, 4 * d_h)))
        expected += [(f"{enc}.w", (2, 4 * d_h, d)), (f"{enc}.u", (2, 4 * d_h, d_h)),
                     (f"{enc}.b", (2, 4 * d_h))]
    for name, shape in attention.items():
        assert params.attention[name].data.tobytes() == g.uniform(-0.1, 0.1, shape).tobytes()
        assert params.attention["b" + name[1:]].data == 0.0
    assert params.clf_w.data.tobytes() == g.uniform(-0.1, 0.1, (3, v_dim)).tobytes()
    np.testing.assert_array_equal(params.clf_b.data, np.zeros(3))
    expected += sorted([(f"attention.b{n[1:]}", ()) for n in attention]
                       + [(f"attention.{n}", s) for n, s in attention.items()])
    expected += [("clf.w", (3, v_dim)), ("clf.b", (3,))]
    assert [(n, t.data.shape) for n, t in params.named()] == expected


def pool_one(states):
    """pool_target of one [n, h] block of states, run as a batch of one: [h]."""
    return pool_target(Tensor(states[None]), np.array([len(states)])).data[0, 0]


class TestPoolTarget:
    def test_single_state_identity(self):
        x = rng().uniform(-1, 1, 4)
        np.testing.assert_array_equal(pool_one(x[None, :]), x)

    def test_identical_states(self):
        x = rng(1).uniform(-1, 1, 4)
        pooled = pool_one(np.stack([x, x]))
        np.testing.assert_allclose(pooled, x, atol=1e-15)

    def test_matches_accumulate_and_divide(self):
        states = rng(2).uniform(-1, 1, (4, 6))
        acc = np.zeros(6)
        for s in states:
            acc += s
        np.testing.assert_allclose(pool_one(states), acc / 4, atol=1e-12)

    def test_empty_target(self):
        with pytest.raises(DomainError):
            pool_target(Tensor(np.zeros((1, 0, 4))), np.array([0]))


def attend_one(h, q, w, b):
    """attend over one [n, h] block with one query, run as a batch of one:
    (alpha [n], r [h])."""
    alpha, r = attend(Tensor(h[None]), Tensor(q[None, None]), Tensor(w), Tensor(b),
                      np.array([len(h)]))
    return alpha.data[0, 0], r.data[0, 0]


class TestAttend:
    def test_singleton(self):
        g = rng(6)
        h = g.uniform(-1, 1, (1, 4))
        alpha, r = attend_one(h, g.uniform(-1, 1, 4), g.uniform(-1, 1, (4, 4)), 0.3)
        assert alpha.tolist() == [1.0]
        np.testing.assert_array_equal(r, h[0])

    def test_identical_states_give_uniform_weights(self):
        g = rng(7)
        row = g.uniform(-1, 1, 4)
        h = np.stack([row] * 3)
        alpha, _ = attend_one(h, g.uniform(-1, 1, 4), g.uniform(-1, 1, (4, 4)), 0.0)
        np.testing.assert_allclose(alpha, np.full(3, 1 / 3), atol=1e-12)

    def test_hand_case_matches_direct_formula(self):
        import mpmath
        g = rng(8)
        h = g.uniform(-1, 1, (2, 2))
        q = g.uniform(-1, 1, 2)
        w = g.uniform(-1, 1, (2, 2))
        b = 0.17
        with mpmath.workdps(50):
            scores = []
            for i in range(2):
                s = mpmath.mpf(b)
                for j in range(2):
                    for k in range(2):
                        s += mpmath.mpf(h[i, j]) * mpmath.mpf(w[j, k]) * mpmath.mpf(q[k])
                scores.append(mpmath.tanh(s))
            exps = [mpmath.e**s for s in scores]
            total = sum(exps)
            alpha_expected = [float(e / total) for e in exps]
            r_expected = [
                float(sum(exps[i] / total * mpmath.mpf(h[i, j]) for i in range(2)))
                for j in range(2)]
        alpha, r = attend_one(h, q, w, b)
        np.testing.assert_allclose(alpha, alpha_expected, atol=1e-12)
        np.testing.assert_allclose(r, r_expected, atol=1e-12)

    def test_empty_sequence_yields_zero_vector(self):
        # a segment empty in every example is a zero-width block [B, 0, h]
        g = rng(9)
        alpha, r = attend(Tensor(np.zeros((2, 0, 4))), Tensor(g.uniform(-1, 1, (2, 1, 4))),
                          Tensor(g.uniform(-1, 1, (4, 4))), Tensor(0.3), np.array([0, 0]))
        assert alpha.data.shape == (2, 1, 0)
        np.testing.assert_array_equal(r.data, np.zeros((2, 1, 4)))


def make_example(left_len=3, target_len=2, right_len=2, label="positive"):
    return Example(left=tuple(f"l{i}" for i in range(left_len)),
                   target=tuple(f"t{i}" for i in range(target_len)),
                   right=tuple(f"r{i}" for i in range(right_len)),
                   label=label)


def make_setup(variant, seed=0, d=4, d_h=3):
    dims = Dimensions(d=d, d_h=d_h)
    cfg = VariantConfig(variant=variant)
    params = init_params(dims, cfg, rng(seed))
    table = EmbeddingTable(dim=d, seed=seed)
    return table, params, cfg


class TestForward:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_probabilities_sum_to_one(self, variant):
        table, params, cfg = make_setup(variant)
        res = forward(make_example(), table, params, cfg)
        assert res.probs.data.shape == (3,)
        assert abs(res.probs.data.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_sentence_vector_dimension(self, variant):
        table, params, cfg = make_setup(variant)
        res = forward(make_example(), table, params, cfg)
        assert res.sentence_vec.data.shape == (params.clf_w.data.shape[1],)

    def test_single_word_target_bit_exact(self):
        table, params, cfg = make_setup(Variant.LCR_ROT, seed=3)
        ex = make_example(target_len=1)
        hid = encode_one(table.embed_sequence(ex.target), params.center)
        res = forward(ex, table, params, cfg)
        assert res.record.r_tl.tolist() == hid[0].tolist()
        assert res.record.r_tr.tolist() == hid[0].tolist()

    def test_single_word_left_context_bit_exact(self):
        table, params, cfg = make_setup(Variant.LCR_ROT, seed=4)
        ex = make_example(left_len=1)
        hid = encode_one(table.embed_sequence(ex.left), params.left)
        res = forward(ex, table, params, cfg)
        assert res.record.alpha_l.tolist() == [1.0]
        assert res.record.r_l.tolist() == hid[0].tolist()

    def test_no_attention_uses_exact_means(self):
        table, params, cfg = make_setup(Variant.NO_ATTENTION, seed=5)
        ex = make_example()
        hid_l = encode_one(table.embed_sequence(ex.left), params.left)
        res = forward(ex, table, params, cfg)
        assert res.record.r_l.tolist() == hid_l.mean(axis=0).tolist()

    def test_no_target_attention_component_equals_pooled_target(self):
        table, params, cfg = make_setup(Variant.NO_TARGET_ATTENTION, seed=6)
        ex = make_example()
        hid_t = encode_one(table.embed_sequence(ex.target), params.center)
        res = forward(ex, table, params, cfg)
        h = params.dims.hidden
        target_part = res.sentence_vec.data[h:2 * h]
        assert target_part.tolist() == pool_one(hid_t).tolist()

    def test_empty_left_context(self):
        table, params, cfg = make_setup(Variant.LCR_ROT, seed=7)
        res = forward(make_example(left_len=0), table, params, cfg)
        assert res.record.alpha_l is None
        np.testing.assert_array_equal(res.record.r_l, np.zeros(params.dims.hidden))
        # the context2target pass still runs: uniform weights over the target
        np.testing.assert_allclose(res.record.alpha_tl, np.full(2, 0.5), atol=1e-12)

    def test_representation_locality(self):
        table, params, cfg = make_setup(Variant.LCR_ROT, seed=8)
        a = forward(make_example(), table, params, cfg)
        changed = Example(left=("l0", "l1", "l2"), target=("t0", "t1"),
                          right=("other", "words"), label="positive")
        b = forward(changed, table, params, cfg)
        assert a.record.r_l.tolist() == b.record.r_l.tolist()
        assert a.record.r_tl.tolist() == b.record.r_tl.tolist()
        assert a.record.r_r.tolist() != b.record.r_r.tolist()

    def test_variant_params_mismatch(self):
        table, params, _ = make_setup(Variant.LCR_ROT)
        with pytest.raises(ConfigError):
            forward(make_example(), table, params,
                    VariantConfig(variant=Variant.NO_ATTENTION))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_attention_weights_normalized(self, variant):
        table, params, cfg = make_setup(variant, seed=9)
        res = forward(make_example(left_len=4, target_len=3, right_len=2),
                      table, params, cfg)
        for alpha in (res.record.alpha_l, res.record.alpha_r,
                      res.record.alpha_tl, res.record.alpha_tr):
            if alpha is not None:
                assert abs(alpha.sum() - 1.0) <= 1e-9
                assert np.all(alpha >= 0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_every_parameter_receives_gradient(self, variant):
        table, params, cfg = make_setup(variant, seed=10)
        # A different sentence for each label: the three labels of one sentence
        # cancel the loss gradient to first order (the sum over y of p - e_y is
        # 3p - 1, about 0 at initialisation), which left the attention biases'
        # gradients at rounding level (about 1e-20), where they could sum to 0.
        examples = [make_example(left_len=2 + k, target_len=1 + k,
                                 right_len=3 - k, label=lbl)
                    for k, lbl in enumerate(("negative", "neutral", "positive"))]
        total = None
        for ex in examples:
            res = forward(ex, table, params, cfg)
            term = loss(res.probs, ex.label_index, params, lam=0.0)
            total = term if total is None else T.add(total, term)
        params.zero_grad()
        total.backward()
        for name, t in params.named():
            assert t.grad is not None and np.any(t.grad != 0), name

    @pytest.mark.parametrize("lengths", [(2, 2, 2), (0, 3, 0)], ids=["contexts", "no_contexts"])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_full_forward_matches_step_by_step_oracle(self, variant, lengths):
        table, params, cfg = make_setup(variant, seed=11, d=3, d_h=2)
        g = rng(11)
        for _, t in params.named():  # nonzero biases, so the oracle sees every one
            if t.data.ndim < 2:
                t.data = g.uniform(-0.5, 0.5, t.data.shape)
        ex = make_example(*lengths)
        res = forward(ex, table, params, cfg)

        # independent evaluation: scalar-loop LSTMs, direct attention formulas;
        # an empty context gives zero weights and a zero vector
        d_h = params.dims.d_h

        def encode(tokens, bp):
            x = table.embed_sequence(tokens)
            n = len(tokens)
            h, c = np.zeros(d_h), np.zeros(d_h)
            fwd = []
            for i in range(n):
                h, c = lstm_step_oracle(x[i], h, c, direction(bp, 0))
                fwd.append(h)
            h, c = np.zeros(d_h), np.zeros(d_h)
            bwd = [None] * n
            for i in reversed(range(n)):
                h, c = lstm_step_oracle(x[i], h, c, direction(bp, 1))
                bwd[i] = h
            return np.array([np.concatenate([f, b]) for f, b in zip(fwd, bwd)]).reshape(n, 2 * d_h)

        def attn(hs, q, w, b):
            if len(hs) == 0:
                return np.zeros(w.shape[0])
            scores = np.array([math.tanh(hs[i] @ w @ q + b)
                               for i in range(hs.shape[0])])
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            return alpha @ hs

        def mean(hs):
            return hs.mean(axis=0) if len(hs) else np.zeros(hs.shape[1])

        a = {k: v.data for k, v in params.attention.items()}
        hl = encode(ex.left, params.left)
        hr = encode(ex.right, params.right)
        if variant is Variant.NO_TARGET_LEARNED:
            r_t = table.embed_sequence(ex.target).mean(axis=0)
        else:
            ht = encode(ex.target, params.center)
            r_t = ht.mean(axis=0)
        if variant is Variant.LCR_ROT:
            r_l = attn(hl, r_t, a["w_cl"], a["b_cl"])
            r_r = attn(hr, r_t, a["w_cr"], a["b_cr"])
            v = [r_l, attn(ht, r_l, a["w_tl"], a["b_tl"]), attn(ht, r_r, a["w_tr"], a["b_tr"]), r_r]
        elif variant in (Variant.NO_TARGET_ATTENTION, Variant.NO_TARGET_LEARNED):
            v = [attn(hl, r_t, a["w_cl"], a["b_cl"]), r_t, attn(hr, r_t, a["w_cr"], a["b_cr"])]
        elif variant is Variant.NO_ATTENTION:
            v = [mean(hl), r_t, mean(hr)]
        else:
            r_tl = attn(ht, mean(hl), a["w_tl"], a["b_tl"])
            r_tr = attn(ht, mean(hr), a["w_tr"], a["b_tr"])
            v = [attn(hl, r_tl, a["w_cl"], a["b_cl"]), r_tl, r_tr,
                 attn(hr, r_tr, a["w_cr"], a["b_cr"])]
        z = params.clf_w.data @ np.concatenate(v) + params.clf_b.data
        e = np.exp(z - z.max())
        expected = e / e.sum()
        np.testing.assert_allclose(res.probs.data, expected, rtol=0, atol=1e-12)


# (left, target, right) lengths per example of a batch
BATCHES = {
    "ragged": [(3, 2, 2), (0, 1, 4), (5, 3, 0), (1, 1, 1)],
    "single": [(2, 2, 3)],
    "all_left_empty": [(0, 2, 1), (0, 1, 3), (0, 3, 2)],
    "one_much_longer": [(30, 2, 1), (1, 1, 2), (2, 4, 28), (0, 1, 1)],
}


def batch_examples(shape):
    labels = ("negative", "neutral", "positive")
    return [Example(left=tuple(f"l{b}_{i}" for i in range(n_l)),
                    target=tuple(f"t{b}_{i}" for i in range(n_t)),
                    right=tuple(f"r{b}_{i}" for i in range(n_r)), label=labels[b % 3])
            for b, (n_l, n_t, n_r) in enumerate(shape)]


class TestBatchedForward:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_matches_per_example(self, variant, dropout_rate, batch):
        table, params, cfg = make_setup(variant, seed=12)
        examples = batch_examples(BATCHES[batch])
        labels = [ex.label_index for ex in examples]
        lam = 1e-3

        # per example, each drawing its dropout mask in batch order
        g = rng(3)
        singles = [forward(ex, table, params, cfg, mode="train", rng=g,
                           dropout_rate=dropout_rate) for ex in examples]
        ces = [cross_entropy(res.probs, y) for res, y in zip(singles, labels)]
        params.zero_grad()
        T.add(T.tmean(stack(ces)), l2_penalty(params, lam)).backward()
        expected = {name: t.grad.copy() for name, t in params.named()}

        res = forward(examples, table, params, cfg, mode="train", rng=rng(3),
                      dropout_rate=dropout_rate)
        params.zero_grad()
        batch_loss(res.probs, labels, params, lam).backward()

        np.testing.assert_allclose(res.probs.data, [r.probs.data for r in singles],
                                   rtol=0, atol=1e-12)
        for name, t in params.named():
            np.testing.assert_allclose(t.grad, expected[name], rtol=0, atol=1e-10,
                                       err_msg=name)
        for field in ("alpha_l", "alpha_r", "alpha_tl", "alpha_tr"):
            batched = getattr(res.record, field)
            for b, single in enumerate(r.record for r in singles):
                one = getattr(single, field)
                if one is None:
                    assert batched is None or not batched[b].any()
                else:
                    np.testing.assert_allclose(batched[b, :len(one)], one, rtol=0, atol=1e-12)
                    assert not batched[b, len(one):].any()

    def test_empty_batch(self):
        table, params, cfg = make_setup(Variant.LCR_ROT)
        with pytest.raises(DomainError):
            forward([], table, params, cfg)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_segment_empty_in_every_example(self, variant):
        """The left contexts run as a zero-width block: the record holds None
        for their weights, and a zero context vector for each example."""
        table, params, cfg = make_setup(variant, seed=14)
        res = forward(batch_examples(BATCHES["all_left_empty"]), table, params, cfg)
        assert res.record.alpha_l is None
        np.testing.assert_array_equal(res.record.r_l, np.zeros((3, params.dims.hidden)))
        if "t2c" in M.STAGES[variant]:  # the right contexts are not empty
            assert res.record.alpha_r.shape == (3, 3)


def two_node_encoder(leaves):
    """``encode_bilstm`` as it ran before the directions were fused: two
    ``lstm_sequence`` nodes and a concat, over leaves of their own that copy
    the stacked slices. leaves maps id(p) to [(fwd w, u, b), (bwd w, u, b)]."""
    def encode(embedded, p, lengths):
        if embedded.shape[1] == 0:  # no encoder runs on a zero-width block
            return Tensor(np.zeros((*embedded.shape[:2], 2 * p.u.data.shape[-1])))
        fwd, bwd = leaves.setdefault(id(p), [
            tuple(Tensor(t.data[k].copy(), requires_grad=True) for t in (p.w, p.u, p.b))
            for k in range(2)])
        return two_node_bilstm(Tensor(embedded), fwd, bwd, lengths)
    return encode


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fused_encoder_matches_two_node_path(variant, batch, monkeypatch):
    """The same parameters through one bilstm_sequence node per encoder and
    through two lstm_sequence nodes: the same probabilities, and every
    gradient the same, the encoders' slice by slice against fwd.* and bwd.*."""
    table, params, cfg = make_setup(variant, seed=13)
    g = rng(13)
    for _, t in params.named():  # nonzero biases, so every gate sees one
        if t.data.ndim < 2:
            t.data = g.uniform(-0.5, 0.5, t.data.shape)
    examples = batch_examples(BATCHES[batch])
    labels = [ex.label_index for ex in examples]

    fused = forward(examples, table, params, cfg)
    params.zero_grad()
    batch_loss(fused.probs, labels, params, lam=0.0).backward()
    grads = {name: t.grad.copy() for name, t in params.named()}

    leaves = {}
    monkeypatch.setattr(M, "encode_bilstm", two_node_encoder(leaves))
    ref = forward(examples, table, params, cfg)
    params.zero_grad()
    batch_loss(ref.probs, labels, params, lam=0.0).backward()

    np.testing.assert_allclose(fused.probs.data, ref.probs.data, rtol=0, atol=1e-12)
    for name, t in params.named():
        enc, field = name.split(".")
        p = getattr(params, enc, None)
        if not isinstance(p, M.BiLstmParams):
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-10, err_msg=name)
        elif id(p) not in leaves:  # a segment empty in every example: no encoder ran
            assert not grads[name].any(), name
        else:
            for k, d_name in enumerate(("fwd", "bwd")):
                leaf = leaves[id(p)][k]["wub".index(field)]
                np.testing.assert_allclose(grads[name][k], leaf.grad, rtol=0, atol=1e-10,
                                           err_msg=f"{enc}.{d_name}.{field}")


@pytest.mark.parametrize("batch", ["ragged", "single", "all_left_empty"])
@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_two_thread_directions_match_stacked_bytes(variant, mode, batch, monkeypatch,
                                                   worker_halves):
    """The Bi-LSTM directions on two threads (the cut lowered to every size)
    and stacked on one: the probabilities, the attention record and every
    gradient, byte for byte, with dropout 0.5 in train mode."""
    examples = batch_examples(BATCHES[batch])

    def run(cut):
        monkeypatch.setattr(T, "SPLIT_D_H", cut)
        table, params, cfg = make_setup(variant, seed=15)
        res = forward(examples, table, params, cfg, mode=mode, rng=rng(4), dropout_rate=0.5)
        params.zero_grad()
        batch_loss(res.probs, [ex.label_index for ex in examples], params, 1e-3).backward()
        return ([res.probs.data.tobytes()]
                + [None if a is None else a.tobytes() for a in vars(res.record).values()]
                + [(name, t.grad.tobytes()) for name, t in params.named()])

    stacked = run(10 ** 9)
    assert not worker_halves
    assert run(1) == stacked
    # one half forward and one backward per encoder with a token to read
    encoders = ("left", "right") + (("target",) if make_setup(variant)[1].center else ())
    ran = [enc for enc in encoders if any(getattr(ex, enc) for ex in examples)]
    assert worker_halves.count([1]) == 2 * len(ran)
    assert len(worker_halves) == 2 * len(ran) + 2  # and the L2 node, forward and backward
