"""Prediction, accuracy, the majority baseline, paired t-test and
attention-weight export.

The t-test p-value is computed from the Student-t CDF via the regularized
incomplete beta function (Lentz continued fraction), so the module has no
statistics dependency. The pairing unit is the caller's choice: typical
uses are per-seed accuracies of two systems, or per-example 0/1
correctness on a shared test set.
"""

from __future__ import annotations

import html
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import LABELS, Example
from .embeddings import EmbeddingTable
from .errors import DomainError
from .model import ModelParams, VariantConfig, forward


@dataclass
class EvalResult:
    predicted: list[str]
    gold: list[str]

    @property
    def correct_flags(self) -> list[bool]:
        return [p == g for p, g in zip(self.predicted, self.gold)]

    @property
    def accuracy(self) -> float:
        return sum(self.correct_flags) / len(self.gold)


EVAL_ROWS = 2048  # padded rows (batch size x longest segment) per eval forward


def predict(ex: Example, table: EmbeddingTable, params: ModelParams,
            cfg: VariantConfig) -> str:
    """Argmax label of one example: ``predict_all`` of a batch of one."""
    return predict_all([ex], table, params, cfg)[0]


def eval_batches(examples):
    """Consecutive runs of ``examples``, each within EVAL_ROWS of size times longest
    segment (left, target or right); an example over the budget runs alone."""
    start = longest = 0
    for i, ex in enumerate(examples):
        n = max(len(ex.left), len(ex.target), len(ex.right))
        if i > start and (i - start + 1) * max(longest, n) > EVAL_ROWS:
            yield examples[start:i]
            start, longest = i, 0
        longest = max(longest, n)
    if examples:
        yield examples[start:]


def predict_all(examples, table: EmbeddingTable, params: ModelParams,
                cfg: VariantConfig) -> list[str]:
    """Argmax label of every example, batched by ``eval_batches``; ties go to the lowest class."""
    labels = []
    with T.no_grad():
        for batch in eval_batches(examples):
            res = forward(batch, table, params, cfg, mode="eval")
            labels += [LABELS[i] for i in np.argmax(res.probs.data, axis=1)]
    return labels


def evaluate(examples, table, params, cfg) -> EvalResult:
    if not examples:
        raise DomainError("evaluation of an empty corpus")
    return EvalResult(predicted=predict_all(examples, table, params, cfg),
                      gold=[ex.label for ex in examples])


def majority_baseline(train_examples, test_examples) -> float:
    """Accuracy of always predicting the most frequent training label."""
    if not train_examples or not test_examples:
        raise DomainError("majority baseline needs non-empty corpora")
    counts = Counter(ex.label for ex in train_examples)
    majority = counts.most_common(1)[0][0]
    hits = sum(1 for ex in test_examples if ex.label == majority)
    return hits / len(test_examples)


# ---------------------------------------------------------------------------
# Student-t significance testing

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def floored(v: float) -> float:
        return tiny if abs(v) < tiny else v

    d = 1.0 / floored(1.0 - qab * x / qap)
    c, h = 1.0, d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / floored(1.0 + aa * d)
            c = floored(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T_df| >= |t|) for the Student-t distribution."""
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


def paired_t_test(a, b) -> TTestResult:
    """Paired two-sided t-test on index-matched samples.

    Degenerate case: differences equal up to the rounding of a - b have zero
    variance; t=0, p=1 if their mean is 0 up to it, else raise (t is infinite).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"samples must be paired 1-d arrays, got {a.shape}, {b.shape}")
    n = a.shape[0]
    if n < 2:
        raise DomainError("paired t-test needs at least 2 pairs")
    d = a - b
    # rounding a, b and a - b moves each difference up to eps * (|a| + |b|), two by twice that
    rounding = 2.0 * np.finfo(np.float64).eps * np.max(np.abs(a) + np.abs(b))
    if np.ptp(d) <= rounding:
        if abs(d.mean()) <= rounding:
            return TTestResult(t=0.0, df=n - 1, p=1.0)
        raise DomainError("all pairs differ by the same nonzero amount "
                          "(zero variance, t undefined)")
    t = d.mean() / (d.std(ddof=1) / math.sqrt(n))
    return TTestResult(t=t, df=n - 1, p=t_two_sided_p(t, n - 1))


# ---------------------------------------------------------------------------
# Attention export

def attention_export(ex: Example, table: EmbeddingTable, params: ModelParams,
                     cfg: VariantConfig) -> dict:
    """The JSON object that ``viz`` writes for one example, keys in file order; a
    weight list is ``[]`` for a stage the variant does not run or an empty segment."""
    with T.no_grad():
        res = forward(ex, table, params, cfg, mode="eval")
    return {
        "tokens": {"left": list(ex.left), "target": list(ex.target), "right": list(ex.right)},
        "weights": {k: [] if (a := getattr(res.record, k)) is None else a.tolist()
                    for k in ("alpha_l", "alpha_r", "alpha_tl", "alpha_tr")},
        "predicted": LABELS[int(np.argmax(res.probs.data))],
        "gold": ex.label,
    }


def export_json(export: dict) -> str:
    # Python's float repr is shortest-round-trip (<= 17 significant digits),
    # so parsing the JSON back recovers the weights bit-exactly.
    return json.dumps(export, ensure_ascii=False)


_HTML_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Attention weights</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
span.tok {{ padding: 2px 3px; margin: 1px; border-radius: 3px; display: inline-block; }}
.row {{ margin: 0.8em 0; }}
.label {{ color: #555; font-size: 0.9em; }}
</style>
</head>
<body>
<div class="row">sentence (context weights in blue, target in red):</div>
<div class="row">{context_line}</div>
<div class="row">left-aware target: {tl_line}</div>
<div class="row">right-aware target: {tr_line}</div>
<div class="row label">predicted: {predicted} &nbsp; gold: {gold}</div>
<script type="application/json" id="attention-data">
{json_blob}
</script>
</body>
</html>
"""


def _span(token: str, weight: float, max_weight: float, hue: str) -> str:
    intensity = 0.0 if max_weight <= 0 else weight / max_weight
    color = {"blue": "0, 80, 220", "red": "220, 30, 30"}[hue]
    return (f'<span class="tok" style="background: rgba({color}, {intensity:.3f})" '
            f'title="{weight!r}">{html.escape(token)}</span>')


def _line(tokens, weights, hue):
    if not tokens:
        return "<em>(empty)</em>"
    if not weights:
        weights = [0.0] * len(tokens)
    top = max(weights)
    return " ".join(_span(t, w, top, hue) for t, w in zip(tokens, weights))


def export_html(export: dict) -> str:
    """Self-contained page; the embedded JSON block carries the exact weights."""
    tokens, weights = export["tokens"], export["weights"]
    context_line = " ".join([
        _line(tokens["left"], weights["alpha_l"], "blue"),
        _line(tokens["target"], weights["alpha_tl"], "red"),
        _line(tokens["right"], weights["alpha_r"], "blue"),
    ])
    return _HTML_PAGE.format(
        context_line=context_line,
        tl_line=_line(tokens["target"], weights["alpha_tl"], "red"),
        tr_line=_line(tokens["target"], weights["alpha_tr"], "red"),
        predicted=html.escape(export["predicted"]),
        gold=html.escape(export["gold"]),
        json_blob=export_json(export),
    )
