"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lcrrot.cli import run
from lcrrot.corpus import LABELS, Example, parse_corpus, split_sentence
from lcrrot.embeddings import EmbeddingTable, load_pretrained
from lcrrot.evalreport import majority_baseline, paired_t_test
from lcrrot.gradcheck import max_gradient_error, tiny_setup
from lcrrot.model import (ALL_VARIANTS, Dimensions, Variant, VariantConfig,
                          encode_bilstm, forward, init_params, pool_target)
from lcrrot.tensor import Tensor
from lcrrot.training import Hyperparams, train

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion, text):
    print(f"\nPASS criterion {criterion}: {text}")


def encode_one(table, tokens, p):
    """Bi-LSTM states [n, 2*d_h] of one token sequence, run as a batch of one."""
    return encode_bilstm(table.embed_sequence(tokens)[None], p, np.array([len(tokens)])).data[0]


# -- criterion 1: gradient fidelity ------------------------------------------

def test_criterion_1_gradient_fidelity():
    start = time.time()
    errors = {}
    for variant in ALL_VARIANTS:
        ex, table, params, cfg = tiny_setup(variant, seed=7, d=4, d_h=3,
                                            left_len=3, target_len=2, right_len=2)
        errors[variant.value] = max_gradient_error(ex, table, params, cfg, lam=1e-5)
    elapsed = time.time() - start
    for variant, err in errors.items():
        assert err < 1e-4, f"{variant}: {err}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    report(1, "analytic vs central-difference gradients agree "
              f"(worst {max(errors.values()):.2e}, {elapsed:.1f}s, all 5 variants)")


# -- criterion 2: attention normalization ------------------------------------

def test_criterion_2_attention_normalization():
    g = np.random.default_rng(2024)
    dims = Dimensions(d=4, d_h=3)
    checked = 0
    for batch in range(10):
        variant = ALL_VARIANTS[batch % len(ALL_VARIANTS)]
        cfg = VariantConfig(variant=variant)
        params = init_params(dims, cfg, np.random.Generator(np.random.PCG64(batch)))
        table = EmbeddingTable(dim=4, seed=batch)
        for _ in range(100):
            ex = Example(
                left=tuple(f"w{g.integers(0, 50)}" for _ in range(g.integers(0, 6))),
                target=tuple(f"w{g.integers(0, 50)}" for _ in range(1, g.integers(2, 5))),
                right=tuple(f"w{g.integers(0, 50)}" for _ in range(g.integers(0, 6))),
                label=LABELS[g.integers(0, 3)])
            rec = forward(ex, table, params, cfg).record
            for alpha in (rec.alpha_l, rec.alpha_r, rec.alpha_tl, rec.alpha_tr):
                if alpha is not None and alpha.size:
                    assert abs(alpha.sum() - 1.0) <= 1e-9
                    assert np.all(alpha >= 0.0)
            checked += 1
    assert checked == 1000
    report(2, "1000 random examples: every non-empty attention vector "
              "sums to 1 within 1e-9, no negative entries")


# -- criterion 3: singleton/identity cases -----------------------------------

def test_criterion_3_singleton_identity():
    dims = Dimensions(d=4, d_h=3)
    cfg = VariantConfig(variant=Variant.LCR_ROT)
    params = init_params(dims, cfg, np.random.Generator(np.random.PCG64(31)))
    table = EmbeddingTable(dim=4, seed=31)

    ex = Example(left=("a", "b"), target=("t",), right=("c", "d"), label="neutral")
    hid_t = encode_one(table, ex.target, params.center)
    rec = forward(ex, table, params, cfg).record
    assert rec.r_tl.tolist() == hid_t[0].tolist()
    assert rec.r_tr.tolist() == hid_t[0].tolist()

    ex2 = Example(left=("a",), target=("t", "u"), right=("c",), label="neutral")
    hid_l = encode_one(table, ex2.left, params.left)
    rec2 = forward(ex2, table, params, cfg).record
    assert rec2.alpha_l.tolist() == [1.0]
    assert rec2.r_l.tolist() == hid_l[0].tolist()
    report(3, "M=1 gives r_tl = r_tr = h_1 and L=1 gives alpha=[1.0], "
              "r_l = h_1, all bit-exact")


# -- criterion 4: variant equivalence oracles --------------------------------

def test_criterion_4_variant_equivalences():
    dims = Dimensions(d=4, d_h=3)
    table = EmbeddingTable(dim=4, seed=41)
    ex = Example(left=("a", "b", "c"), target=("t", "u"), right=("d", "e"),
                 label="positive")

    cfg = VariantConfig(variant=Variant.NO_ATTENTION)
    params = init_params(dims, cfg, np.random.Generator(np.random.PCG64(41)))
    hid_l = encode_one(table, ex.left, params.left)
    rec = forward(ex, table, params, cfg).record
    assert rec.r_l.tolist() == hid_l.mean(axis=0).tolist()

    cfg2 = VariantConfig(variant=Variant.NO_TARGET_ATTENTION)
    params2 = init_params(dims, cfg2, np.random.Generator(np.random.PCG64(42)))
    hid_t = encode_one(table, ex.target, params2.center)
    res2 = forward(ex, table, params2, cfg2)
    h = dims.hidden
    assert res2.sentence_vec.data[h:2 * h].tolist() == \
        pool_target(Tensor(hid_t[None]), np.array([len(ex.target)])).data[0, 0].tolist()
    report(4, "no_attention r_l is the exact mean of hidden states; "
              "no_target_attention target slot equals pooled target exactly")


# -- criteria 5 and 10: overfit oracle + qualitative attention ----------------

SENTIMENT = {"negative": "terrible", "neutral": "okay", "positive": "great"}


def separable_corpus(n=30, seed=0):
    """Label is fully determined by a sentiment token adjacent to the target."""
    g = np.random.default_rng(seed)
    fillers = [f"w{i}" for i in range(10)]
    targets = [f"item{i}" for i in range(5)]
    out = []
    for i in range(n):
        label = LABELS[i % 3]
        out.append(Example(
            left=(g.choice(fillers), SENTIMENT[label]),
            target=(g.choice(targets),),
            right=(g.choice(fillers),),
            label=label))
    return out


def pretrained_stream(dim=16, seed=9):
    """GloVe-scale synthetic vectors for the corpus vocabulary."""
    g = np.random.default_rng(seed)
    vocab = ([f"w{i}" for i in range(10)] + [f"item{i}" for i in range(5)]
             + list(SENTIMENT.values()))
    lines = [" ".join([t] + [f"{x:.6f}" for x in g.normal(0, 0.5, dim)])
             for t in vocab]
    return io.StringIO("\n".join(lines))


@pytest.fixture(scope="module")
def overfit_run():
    corpus = separable_corpus()
    table = load_pretrained(pretrained_stream(), dim=16, seed=9)
    dims = Dimensions(d=16, d_h=8)
    cfg = VariantConfig(variant=Variant.LCR_ROT)
    # L2 well above the default keeps residual error flowing into the
    # attention path after the classifier saturates, sharpening the weights
    hp = Hyperparams(learning_rate=0.1, l2_weight=5e-3, dropout_rate=0.0,
                     momentum=0.9, batch_size=25, max_epochs=400, seed=5)
    start = time.time()
    params, metrics = train(corpus, table, cfg, hp, dims)
    elapsed = time.time() - start
    return corpus, table, params, cfg, metrics, elapsed


def test_criterion_5_overfit(overfit_run):
    corpus, table, params, cfg, metrics, elapsed = overfit_run
    first_perfect = next((m.epoch for m in metrics if m.train_acc == 1.0), None)
    assert first_perfect is not None and first_perfect < 500
    assert metrics[-1].train_acc == 1.0
    assert elapsed < 120.0, f"training took {elapsed:.0f}s"
    report(5, f"synthetic separable corpus reaches 100% at epoch "
              f"{first_perfect} (<500), {elapsed:.0f}s (<120s)")


def test_criterion_10_qualitative_attention(overfit_run):
    corpus, table, params, cfg, _, _ = overfit_run
    hits = 0
    for ex in corpus:
        rec = forward(ex, table, params, cfg).record
        sentiment_pos = ex.left.index(SENTIMENT[ex.label])
        if int(np.argmax(rec.alpha_l)) == sentiment_pos:
            hits += 1
    # chance level with 2-token contexts is 15/30
    assert hits >= 20, f"sentiment token max-weighted in only {hits}/30"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "full-scale" in readme.lower()
    report(10, f"label-determining token carries the maximal attention weight "
               f"in {hits}/30 examples (chance 15); full-scale recipe documented "
               "in README, headline accuracies not an acceptance gate")


# -- criterion 6: segmentation fidelity --------------------------------------

def test_criterion_6_segmentation():
    sentence = ("I am pleased with the life of battery, but the windows 8 "
                "operating system is so bad.")
    stream = io.StringIO(
        "I am pleased with $T$, but the windows 8 operating system is so bad.\n"
        "the life of battery\n1\n"
        "I am pleased with the life of battery, but the $T$ is so bad.\n"
        "windows 8 operating system\n-1\n")
    first, second = (split_sentence(r) for r in parse_corpus(stream))
    assert first.left == ("i", "am", "pleased", "with")
    assert first.target == ("the", "life", "of", "battery")
    assert first.right == (",", "but", "the", "windows", "8", "operating",
                           "system", "is", "so", "bad", ".")
    assert second.left == ("i", "am", "pleased", "with", "the", "life", "of",
                           "battery", ",", "but", "the")
    assert second.target == ("windows", "8", "operating", "system")
    assert second.right == ("is", "so", "bad", ".")
    report(6, "review sentence segments verbatim for both targets")


# -- criterion 7: majority baseline ------------------------------------------

def class_corpus(neg, neu, pos):
    out = []
    for label, count in (("negative", neg), ("neutral", neu), ("positive", pos)):
        out.extend(Example(left=("a",), target=("t",), right=("b",), label=label)
                   for _ in range(count))
    return out


def test_criterion_7_majority_baseline():
    twitter = majority_baseline(class_corpus(1560, 3127, 1561),
                                class_corpus(173, 346, 173))
    restaurant = majority_baseline(class_corpus(807, 637, 2164),
                                   class_corpus(196, 196, 728))
    laptop = majority_baseline(class_corpus(870, 464, 994),
                               class_corpus(128, 169, 341))
    assert round(100 * twitter, 2) == 50.00
    assert round(100 * restaurant, 2) == 65.00
    assert round(100 * laptop, 2) == 53.45
    report(7, "majority baseline: Twitter 50.00%, Restaurant 65.00%, "
              "Laptop 53.45% (published table's Restaurant/Laptop row appears "
              "transposed; dataset counts treated as ground truth)")


# -- criterion 8: statistical test -------------------------------------------

def test_criterion_8_paired_t_test():
    res = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert abs(res.t - 3 * math.sqrt(2)) < 1e-3
    assert res.df == 4
    assert abs(res.p - 0.0132) < 1e-3
    report(8, f"d=[1..5] gives t={res.t:.4f}, df={res.df}, p={res.p:.4f}")


# -- criterion 9: determinism ------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "the $T$ was good today\nbattery\n1\n"
        "the $T$ was bad today\nscreen\n-1\n"
        "the $T$ was meh today\nkeyboard\n0\n", encoding="utf-8")
    artifacts = []
    for tag in ("one", "two"):
        ckpt = tmp_path / f"{tag}.ckpt"
        metrics = tmp_path / f"{tag}.tsv"
        code = run(["train", "--train-corpus", str(corpus),
                    "--checkpoint", str(ckpt), "--metrics", str(metrics),
                    "--dim", "6", "--hidden", "3", "--epochs", "3",
                    "--batch-size", "2", "--seed", "17"])
        assert code == 0
        artifacts.append((ckpt.read_bytes(), metrics.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    report(9, "two identical train invocations produce bit-identical "
              "checkpoints and metric logs")
