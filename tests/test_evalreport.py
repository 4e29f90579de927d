import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrrot import evalreport
from lcrrot.corpus import LABELS, Example
from lcrrot.embeddings import EmbeddingTable
from lcrrot.errors import DomainError
from lcrrot.evalreport import (attention_export, export_html, export_json,
                               majority_baseline, paired_t_test, predict,
                               t_two_sided_p)
from lcrrot.model import Dimensions, Variant, VariantConfig, forward, init_params


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def make_setup(seed=0, variant=Variant.LCR_ROT):
    dims = Dimensions(d=4, d_h=2)
    cfg = VariantConfig(variant=variant)
    params = init_params(dims, cfg, rng(seed))
    table = EmbeddingTable(dim=4, seed=seed)
    return table, params, cfg


def make_example(label="positive", seed=0):
    g = np.random.default_rng(seed)
    words = ["the", "food", "was", "great", "bad", "meh", "service", "slow"]
    pick = lambda n: tuple(g.choice(words, n))
    return Example(left=pick(2), target=pick(1), right=pick(2), label=label)


class TestPredict:
    def test_strict_argmax(self):
        assert LABELS[int(np.argmax([0.1, 0.2, 0.7]))] == "positive"

    def test_tie_breaks_to_lowest_index(self):
        assert LABELS[int(np.argmax([1 / 3, 1 / 3, 1 / 3]))] == "negative"

    def test_matches_argmax_of_exported_probabilities(self):
        table, params, cfg = make_setup(seed=1)
        for i in range(10):
            ex = make_example(seed=i)
            res = forward(ex, table, params, cfg)
            assert predict(ex, table, params, cfg) == \
                LABELS[int(np.argmax(res.probs.data))]

    def test_evaluate_accuracy_matches_counting_oracle(self):
        table, params, cfg = make_setup(seed=2)
        examples = [make_example(label=LABELS[i % 3], seed=i) for i in range(15)]
        result = evalreport.evaluate(examples, table, params, cfg)
        correct = sum(1 for p, g in zip(result.predicted, result.gold) if p == g)
        assert result.accuracy == correct / 15

    def test_evaluate_rejects_an_empty_corpus(self):
        table, params, cfg = make_setup(seed=2)
        with pytest.raises(DomainError):
            evalreport.evaluate([], table, params, cfg)


class TestEvalBatches:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*(st.one_of(st.integers(lo, 60), st.integers(lo, 3000))
                                for lo in (0, 1, 0))), max_size=60))
    def test_batches_cover_the_examples_in_order_within_the_budget(self, lengths):
        examples = [Example(left=("w",) * l, target=("t",) * t, right=("w",) * r,
                            label="neutral") for l, t, r in lengths]
        batches = list(evalreport.eval_batches(examples))
        # consecutive, every example once, in the given order
        flat = [ex for batch in batches for ex in batch]
        assert len(flat) == len(examples) and all(a is b for a, b in zip(flat, examples))
        rows = lambda batch: len(batch) * max(max(len(ex.left), len(ex.target), len(ex.right))
                                              for ex in batch)
        for i, batch in enumerate(batches):
            assert batch and (rows(batch) <= evalreport.EVAL_ROWS or len(batch) == 1)
            if i + 1 < len(batches):  # closed only when the next example would pass it
                assert rows(batch + batches[i + 1][:1]) > evalreport.EVAL_ROWS

    def test_budget_boundary_and_an_example_over_it(self):
        sizes = lambda examples: [len(b) for b in evalreport.eval_batches(examples)]
        ex = Example(left=("w",) * 64, target=("t",), right=(), label="neutral")
        k = evalreport.EVAL_ROWS // 64
        assert sizes([ex] * k) == [k]  # k x 64 rows, within the budget
        assert sizes([ex] * (k + 1)) == [k, 1]
        over = Example(left=(), target=("t",) * (evalreport.EVAL_ROWS + 1), right=(),
                       label="neutral")
        assert sizes([ex, over, over, ex, ex]) == [1, 1, 1, 2]

    def test_no_examples_make_no_batch(self):
        assert list(evalreport.eval_batches([])) == []

    def test_evaluate_of_short_examples_is_one_forward(self, monkeypatch):
        table, params, cfg = make_setup(seed=3)
        examples = [make_example(label=LABELS[i % 3], seed=i) for i in range(40)]
        calls = []

        def counting_forward(batch, *args, **kwargs):
            calls.append(len(batch))
            return forward(batch, *args, **kwargs)

        monkeypatch.setattr(evalreport, "forward", counting_forward)
        evalreport.evaluate(examples, table, params, cfg)
        assert calls == [40]


def class_corpus(neg, neu, pos):
    out = []
    for label, count in (("negative", neg), ("neutral", neu), ("positive", pos)):
        out.extend(Example(left=("a",), target=("t",), right=("b",), label=label)
                   for _ in range(count))
    return out


class TestMajorityBaseline:
    def test_twitter_counts(self):
        train = class_corpus(1560, 3127, 1561)
        test = class_corpus(173, 346, 173)
        assert majority_baseline(train, test) == pytest.approx(0.5000, abs=5e-5)

    def test_laptop_counts(self):
        train = class_corpus(870, 464, 994)
        test = class_corpus(128, 169, 341)
        assert majority_baseline(train, test) == pytest.approx(0.5345, abs=5e-5)

    def test_restaurant_counts(self):
        train = class_corpus(807, 637, 2164)
        test = class_corpus(196, 196, 728)
        assert majority_baseline(train, test) == pytest.approx(0.6500, abs=5e-5)

    def test_single_class_corpus(self):
        train = class_corpus(0, 0, 5)
        test = class_corpus(0, 0, 3)
        assert majority_baseline(train, test) == 1.0

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            majority_baseline([], class_corpus(1, 0, 0))


class TestPairedTTest:
    def test_identical_samples(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0 and res.p == 1.0

    def test_symmetric_differences(self):
        res = paired_t_test([1.0, 0.0], [0.0, 1.0])
        assert res.t == 0.0 and res.p == 1.0

    def test_known_case(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = paired_t_test(a, np.zeros(5))
        assert res.t == pytest.approx(3 * math.sqrt(2), abs=1e-3)
        assert res.df == 4
        assert res.p == pytest.approx(0.0132, abs=1e-3)

    def test_constant_nonzero_difference_rejected(self):
        with pytest.raises(DomainError):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_too_few_pairs(self):
        with pytest.raises(DomainError):
            paired_t_test([1.0], [2.0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=12),
           st.integers(0, 10_000))
    def test_antisymmetric(self, a, seed):
        b = rng(seed).uniform(-5, 5, len(a))
        try:
            fwd = paired_t_test(a, b)
            rev = paired_t_test(b, a)
        except DomainError:
            return
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_p_values_match_scipy(self):
        from scipy import stats
        for t in (0.1, 0.5, 1.0, 2.0, 4.2426, 10.0):
            for df in (1, 2, 4, 10, 30):
                expected = 2 * stats.t.sf(t, df)
                assert t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-8)

    def test_full_test_matches_scipy(self):
        from scipy import stats
        g = rng(5)
        a, b = g.uniform(0, 1, 8), g.uniform(0, 1, 8)
        res = paired_t_test(a, b)
        t_ref, p_ref = stats.ttest_rel(a, b)
        assert res.t == pytest.approx(t_ref, abs=1e-10)
        assert res.p == pytest.approx(p_ref, abs=1e-8)


class TestAttentionExport:
    def test_json_round_trip_exact(self):
        table, params, cfg = make_setup(seed=3)
        export = attention_export(make_example(seed=1), table, params, cfg)
        parsed = json.loads(export_json(export))
        assert parsed["weights"]["alpha_l"] == export.alpha_l
        assert parsed["weights"]["alpha_tr"] == export.alpha_tr
        assert parsed["tokens"]["target"] == export.target_tokens

    def test_alphas_equal_forward_record_bit_exactly(self):
        table, params, cfg = make_setup(seed=4)
        ex = make_example(seed=2)
        export = attention_export(ex, table, params, cfg)
        rec = forward(ex, table, params, cfg).record
        assert export.alpha_l == rec.alpha_l.tolist()
        assert export.alpha_r == rec.alpha_r.tolist()
        assert export.alpha_tl == rec.alpha_tl.tolist()
        assert export.alpha_tr == rec.alpha_tr.tolist()

    def test_lengths_match_tokens(self):
        table, params, cfg = make_setup(seed=5)
        ex = make_example(seed=3)
        export = attention_export(ex, table, params, cfg)
        assert len(export.alpha_l) == len(export.left_tokens)
        assert len(export.alpha_tl) == len(export.target_tokens)

    def test_html_embeds_same_numbers_as_json(self):
        table, params, cfg = make_setup(seed=6)
        export = attention_export(make_example(seed=4), table, params, cfg)
        page = export_html(export)
        start = page.index('id="attention-data">') + len('id="attention-data">')
        end = page.index("</script>", start)
        embedded = json.loads(page[start:end])
        assert embedded == json.loads(export_json(export))

    def test_html_is_self_contained(self):
        table, params, cfg = make_setup(seed=7)
        page = export_html(attention_export(make_example(seed=5), table, params, cfg))
        assert page.startswith("<!DOCTYPE html>")
        assert "http" not in page.split("</style>")[0]  # no external resources
