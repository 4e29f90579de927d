import json
import math

import numpy as np
import pytest

from lcrrot import evalreport, training
from lcrrot import tensor as T
from lcrrot.corpus import Example
from lcrrot.embeddings import EmbeddingTable
from lcrrot.errors import CheckpointError, ConfigError, DomainError
from lcrrot.model import (Dimensions, Variant, VariantConfig, dropout, forward,
                          init_params)
from lcrrot.tensor import Tensor
from lcrrot.training import (Hyperparams, OptimizerState, loss, load_checkpoint,
                             save_checkpoint, sgd_momentum_step, train)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def tiny_params(seed=0, variant=Variant.LCR_ROT, d=4, d_h=2):
    cfg = VariantConfig(variant=variant)
    return init_params(Dimensions(d=d, d_h=d_h), cfg, rng(seed)), cfg


class TestLoss:
    def test_perfect_prediction(self):
        params, _ = tiny_params()
        out = loss(Tensor([0.0, 0.0, 1.0]), 2, params, lam=0.0)
        assert float(out.data) == 0.0

    def test_uniform_prediction_is_ln3(self):
        params, _ = tiny_params()
        out = loss(Tensor([1 / 3, 1 / 3, 1 / 3]), 1, params, lam=0.0)
        assert float(out.data) == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        params, _ = tiny_params(seed=2)
        p = np.array([0.2, 0.5, 0.3])
        lam = 1e-5
        expected = -math.log(p[1]) + lam * sum(
            float((t.data ** 2).sum()) for _, t in params.named())
        out = loss(Tensor(p), 1, params, lam=lam)
        assert float(out.data) == pytest.approx(expected, abs=1e-12)

    def test_epsilon_floor_prevents_infinity(self):
        params, _ = tiny_params()
        out = loss(Tensor([1.0, 0.0, 0.0]), 1, params, lam=0.0)
        assert np.isfinite(out.data)
        assert float(out.data) == pytest.approx(-math.log(1e-12))

    def test_regularizer_monotone_in_lambda(self):
        params, _ = tiny_params(seed=3)
        p = Tensor([0.3, 0.4, 0.3])
        values = [float(loss(p, 0, params, lam=lam).data)
                  for lam in (0.0, 1e-6, 1e-4, 1e-2)]
        assert values == sorted(values)

    def test_excluding_biases(self):
        params, _ = tiny_params(seed=4)
        with_b = float(loss(Tensor([0.5, 0.3, 0.2]), 0, params, lam=1.0).data)
        without_b = float(loss(Tensor([0.5, 0.3, 0.2]), 0, params, lam=1.0,
                               include_biases=False).data)
        # biases are zero-initialized, so values agree until training moves them
        assert with_b == pytest.approx(without_b)
        bumped = 0
        for name, t in params.named():
            # attention scalars (attention.b_cl, ...), stacked LSTM gate biases
            # (left.fwd.b, ...) and the classifier bias
            if ".b_" in name or name.endswith((".fwd.b", ".bwd.b", "clf.b")):
                t.data = t.data + 1.0
                bumped += 1
        assert bumped == 6 + 4 + 1
        assert float(loss(Tensor([0.5, 0.3, 0.2]), 0, params, lam=1.0).data) > \
            float(loss(Tensor([0.5, 0.3, 0.2]), 0, params, lam=1.0,
                       include_biases=False).data)
        # the weights-only penalty ignores every bias it just saw move
        assert float(loss(Tensor([0.5, 0.3, 0.2]), 0, params, lam=1.0,
                          include_biases=False).data) == without_b


class TestSgdMomentum:
    def test_zero_momentum_is_vanilla_sgd(self):
        params, _ = tiny_params(seed=5)
        state = OptimizerState(params)
        before = {n: t.data.copy() for n, t in params.named()}
        for _, t in params.named():
            t.grad = np.ones(t.data.shape)
        sgd_momentum_step(params, state, lr=0.1, momentum=0.0)
        for name, t in params.named():
            np.testing.assert_allclose(t.data, before[name] - 0.1, atol=1e-15)

    def test_zero_gradient_is_fixed_point(self):
        params, _ = tiny_params(seed=6)
        state = OptimizerState(params)
        before = {n: t.data.copy() for n, t in params.named()}
        sgd_momentum_step(params, state, lr=0.1, momentum=0.9)
        for name, t in params.named():
            np.testing.assert_array_equal(t.data, before[name])

    def test_two_steps_match_hand_unrolled_recurrence(self):
        # 1-d quadratic f(x) = x^2/2, grad = x
        x = Tensor(np.array(2.0), requires_grad=True)

        class P:
            def named(self):
                yield "x", x

        params = P()
        state = OptimizerState(params)
        lr, mu = 0.1, 0.9
        # hand-unrolled: v1 = -lr*g0; x1 = x0+v1; v2 = mu*v1 - lr*g1; x2 = x1+v2
        x0 = 2.0
        v1 = -lr * x0
        x1 = x0 + v1
        v2 = mu * v1 - lr * x1
        x2 = x1 + v2
        x.grad = np.array(float(x.data))
        sgd_momentum_step(params, state, lr, mu)
        assert float(x.data) == pytest.approx(x1, abs=1e-15)
        x.grad = np.array(float(x.data))
        sgd_momentum_step(params, state, lr, mu)
        assert float(x.data) == pytest.approx(x2, abs=1e-15)


class TestDropout:
    def test_rate_zero_is_identity(self):
        v = Tensor(rng().uniform(-1, 1, 8))
        for mode in ("train", "eval"):
            out = dropout(v, 0.0, mode, rng(1))
            np.testing.assert_array_equal(out.data, v.data)

    def test_eval_mode_is_identity(self):
        v = Tensor(rng().uniform(-1, 1, 8))
        out = dropout(v, 0.9, "eval", None)
        np.testing.assert_array_equal(out.data, v.data)

    def test_monte_carlo_mean_preserved(self):
        g = rng(42)
        v = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        total = np.zeros(4)
        n = 100_000
        for _ in range(n):
            total += dropout(v, 0.5, "train", g).data
        np.testing.assert_allclose(total / n, v.data, rtol=0.02)

    def test_survivors_scaled(self):
        g = rng(0)
        out = dropout(Tensor(np.ones(1000)), 0.5, "train", g).data
        assert set(np.round(np.unique(out), 12)) == {0.0, 2.0}

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, "train", rng())


def make_corpus(n=12, seed=0):
    g = np.random.default_rng(seed)
    labels = ["negative", "neutral", "positive"]
    sentiment = {"negative": "bad", "neutral": "meh", "positive": "good"}
    examples = []
    for i in range(n):
        lbl = labels[i % 3]
        examples.append(Example(
            left=("the", "thing", sentiment[lbl]),
            target=(f"item{g.integers(0, 4)}",),
            right=("overall", "."),
            label=lbl))
    return examples


HP = Hyperparams(learning_rate=0.05, l2_weight=1e-5, dropout_rate=0.2,
                 momentum=0.9, batch_size=4, max_epochs=3, seed=13)
DIMS = Dimensions(d=6, d_h=3)
CFG = VariantConfig(variant=Variant.LCR_ROT)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        table = EmbeddingTable(dim=6, seed=1)
        hp = Hyperparams(max_epochs=0, seed=13)
        params, metrics = train(make_corpus(), table, CFG, hp, DIMS)
        reference = init_params(DIMS, CFG, rng(13))
        for (n1, t1), (n2, t2) in zip(params.named(), reference.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)
        assert metrics == []

    def test_loss_stays_finite(self):
        table = EmbeddingTable(dim=6, seed=1)
        _, metrics = train(make_corpus(), table, CFG, HP, DIMS)
        assert all(np.isfinite(m.train_loss) for m in metrics)
        assert len(metrics) == 3

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            train([], EmbeddingTable(dim=6), CFG, HP, DIMS)
        with pytest.raises(DomainError, match="dev corpus"):
            train(make_corpus(), EmbeddingTable(dim=6), CFG, HP, DIMS, dev_examples=[])

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            table = EmbeddingTable(dim=6, seed=1)
            params, metrics = train(make_corpus(), table, CFG, HP, DIMS)
            runs.append((
                {n: t.data.copy() for n, t in params.named()},
                [m.as_line() for m in metrics]))
        assert runs[0][1] == runs[1][1]
        for name in runs[0][0]:
            np.testing.assert_array_equal(runs[0][0][name], runs[1][0][name])

    def test_embeddings_frozen(self):
        table = EmbeddingTable(dim=6, seed=1)
        corpus = make_corpus()
        for ex in corpus:  # materialize all rows first
            table.embed_sequence(ex.left + ex.target + ex.right)
        before = table.matrix_hash()
        train(corpus, table, CFG, HP, DIMS)
        assert table.matrix_hash() == before

    def test_metrics_line_format(self):
        m = training.EpochMetrics(epoch=2, train_loss=0.5, train_acc=0.75,
                                  dev_acc=0.5)
        assert m.as_line() == "2\t0.5\t0.75\t0.5"

    def test_dev_set_selects_best_epoch(self):
        table = EmbeddingTable(dim=6, seed=1)
        corpus = make_corpus()
        params, metrics = train(corpus, table, CFG, HP, DIMS,
                                dev_examples=corpus[:3])
        assert all(m.dev_acc is not None for m in metrics)


class TestHyperparams:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("l2_weight", math.nan),
        ("l2_weight", math.inf), ("l2_weight", -1e-5),
        ("dropout_rate", math.nan), ("momentum", math.nan), ("seed", -1)])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ConfigError):
            Hyperparams(**{field: value})

    def test_zero_l2_and_seed_accepted(self):
        Hyperparams(l2_weight=0.0, seed=0)


def per_example_train(examples, table, hp):
    """Reference for train() without a dev set: every example of a batch
    runs through forward on its own, in batch order, drawing its own
    dropout mask from the shared generator."""
    g = rng(hp.seed)
    params = init_params(DIMS, CFG, g)
    state = OptimizerState(params)
    order = np.arange(len(examples))
    for _ in range(hp.max_epochs):
        g.shuffle(order)
        for start in range(0, len(order), hp.batch_size):
            batch = [examples[i] for i in order[start:start + hp.batch_size]]
            ces = [training.cross_entropy(
                forward(ex, table, params, CFG, mode="train", rng=g,
                        dropout_rate=hp.dropout_rate).probs, ex.label_index)
                   for ex in batch]
            total = T.add(T.tmean(T.stack(ces)), training.l2_penalty(params, hp.l2_weight))
            params.zero_grad()
            total.backward()
            sgd_momentum_step(params, state, hp.learning_rate, hp.momentum)
    return params


class TestBatchedTraining:
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_two_epochs_match_per_example_loop(self, dropout_rate):
        # ragged contexts, some empty, and a last batch smaller than the rest
        g = np.random.default_rng(5)
        examples = [Example(left=tuple(f"w{j}" for j in g.integers(0, 9, g.integers(0, 6))),
                            target=tuple(f"t{j}" for j in g.integers(0, 4, g.integers(1, 3))),
                            right=tuple(f"w{j}" for j in g.integers(0, 9, g.integers(0, 6))),
                            label=("negative", "neutral", "positive")[i % 3])
                    for i in range(11)]
        hp = Hyperparams(learning_rate=0.1, l2_weight=1e-3, dropout_rate=dropout_rate,
                         momentum=0.9, batch_size=4, max_epochs=2, seed=21)
        table = EmbeddingTable(dim=6, seed=1)
        params, _ = train(examples, table, CFG, hp, DIMS)
        reference = per_example_train(examples, table, hp)
        initial = init_params(DIMS, CFG, rng(hp.seed))
        for (name, got), (_, want), (_, start) in zip(params.named(), reference.named(),
                                                      initial.named()):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-10, err_msg=name)
            assert np.any(got.data != start.data), name

    def test_evaluate_accuracy_matches_per_example_predict(self):
        params, cfg = tiny_params(seed=12)
        table = EmbeddingTable(dim=4, seed=3)
        examples = make_corpus(n=37, seed=4)  # three chunks, the last one short
        expected = [evalreport.predict(ex, table, params, cfg) for ex in examples]
        assert evalreport.predict_all(examples, table, params, cfg) == expected
        assert training.evaluate_accuracy(examples, table, params, cfg) == \
            sum(p == ex.label for p, ex in zip(expected, examples)) / len(examples)


class TestNoGradEval:
    def test_eval_paths_record_no_graph(self, monkeypatch):
        params, cfg = tiny_params(seed=11)
        table = EmbeddingTable(dim=4, seed=2)
        examples = make_corpus(n=3)
        seen = []

        def recording_forward(*args, **kwargs):
            res = forward(*args, **kwargs)
            seen.append(res.probs)
            return res

        monkeypatch.setattr(evalreport, "forward", recording_forward)
        evalreport.predict(examples[0], table, params, cfg)
        evalreport.evaluate(examples, table, params, cfg)
        evalreport.attention_export(examples[0], table, params, cfg)
        training.evaluate_accuracy(examples, table, params, cfg)
        # predict and attention_export run one example; evaluate and the
        # accuracy pass run their three examples as one batch
        assert len(seen) == 1 + 1 + 1 + 1
        for probs in seen:
            assert probs.requires_grad is False and probs._prev == ()

        graph = forward(examples[0], table, params, cfg).probs
        assert graph.requires_grad and graph._prev


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params, cfg = tiny_params(seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, HP, path)
        loaded, loaded_cfg, loaded_hp = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded_hp == HP
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            assert t1.data.shape == t2.data.shape
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_bad_version_rejected(self, tmp_path):
        params, cfg = tiny_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, HP, path)
        header, records = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 99
        path.write_bytes(json.dumps(doc).encode() + b"\n" + records)
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        "empty", "truncated", "trailing", "non_finite", "renamed", "reshaped"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        params, cfg = tiny_params(seed=3)
        path = tmp_path / "model.ckpt"
        if damage == "non_finite":
            params.clf_w.data[0, 0] = np.nan
        save_checkpoint(params, cfg, HP, path)
        blob = path.read_bytes()
        header, records = blob.split(b"\n", 1)
        doc = json.loads(header)
        if damage == "renamed":
            doc["params"][0] = "left.fwd.w_i"
        if damage == "reshaped":
            doc["dims"]["d"] = 5
        edited = json.dumps(doc).encode() + b"\n" + records
        path.write_bytes({"empty": b"", "truncated": blob[:-7], "trailing": blob + b"\0",
                          "non_finite": blob, "renamed": edited, "reshaped": edited}[damage])
        reason = {"trailing": "trailing bytes", "non_finite": "clf.w is not a finite",
                  "renamed": "names do not match", "reshaped": r"left.fwd.w .* shape \(8, 5\)"}
        with pytest.raises(CheckpointError, match=reason.get(damage, "bad checkpoint")):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        params, cfg = tiny_params(seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, HP, path)
        before = path.read_bytes()
        real_save = np.save
        calls = []

        def failing_save(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise OSError("disk full")
            real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        other, _ = tiny_params(seed=2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, cfg, HP, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_forward_identical_after_reload(self, tmp_path):
        params, cfg = tiny_params(seed=10)
        table = EmbeddingTable(dim=4, seed=2)
        ex = Example(left=("a", "b"), target=("c",), right=("d",),
                     label="neutral")
        before = forward(ex, table, params, cfg).probs.data
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, HP, path)
        loaded, loaded_cfg, _ = load_checkpoint(path)
        after = forward(ex, table, loaded, loaded_cfg).probs.data
        assert before.tolist() == after.tolist()
