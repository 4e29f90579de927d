"""Run one benchmark workload in this process and print its result.

Started by run.py, which fixes the environment (BLAS threads, hash seed,
import path) before numpy loads. The workload drives lcrrot through its
public API the way ``lcrrot train`` and ``lcrrot eval`` do: parse the
files, train, save and reload the checkpoint, evaluate the held-out set
with the reloaded checkpoint and a freshly loaded vector file, predict
one example at a time, and run ``max_gradient_error`` on
``gradcheck.tiny_setup`` for every variant.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lcrrot
from lcrrot import corpus, embeddings, evalreport, gradcheck, model, training
from lcrrot import tensor as T

import inputs
import layers

AGREEMENT_TOL = 1e-12      # held-out probabilities, eval-style run vs in-process
SUM_TOL = 1e-12            # probability and attention vectors sum to 1
GRADCHECK_TOL = 1e-4       # same tolerance as `lcrrot gradcheck`
DIRECTION_TOL = 1e-4       # directional central difference vs analytic gradient
DIRECTION_STEP = 1e-6
TAIL_PERCENTILES = (50, 90, 99, 99.9)


@dataclass(frozen=True)
class Workload:
    inputs: inputs.InputSpec
    hidden: int
    epochs: int
    # Every timed phase runs in every round and the rounds follow each other
    # until --seconds have passed, so the samples of one metric come from
    # several stretches of the run and are not all taken in one slow stretch
    # of a shared machine. A traced run makes min_rounds exactly.
    min_rounds: int
    save_once: bool          # save once, in the first round; every round loads
    ckpt_slots: int          # 1-3 places in a round where the checkpoint is saved and loaded
    gradcheck_per_round: int  # variants gradient-checked per round, in turn; divides N_VARIANTS
    direction_examples: int  # training examples in the directional gradient check
    gradcheck_dims: dict     # tiny_setup overrides; {} runs it as `lcrrot gradcheck` does


# a cheap check of the five variants, so that train_paper reports every metric
SMOKE_GRADCHECK = dict(d=1, d_h=1, left_len=1, target_len=1, right_len=1)
N_VARIANTS = len(model.ALL_VARIANTS)

WORKLOADS = {
    # The paper's configuration: matrix-vector products, per-timestep weight
    # gradients and a ~126 MB JSON checkpoint dominate.
    "train_paper": Workload(
        inputs=inputs.InputSpec(dim=300, vocab=3000, absent_share=0.1, filler_rows=3000,
                                n_train=25, n_dev=10, n_heldout=40, heldout_absent=10,
                                context=(3, 15), empty_share=0.0),
        hidden=300, epochs=1, min_rounds=3, save_once=True, ckpt_slots=1,
        gradcheck_per_round=N_VARIANTS, direction_examples=2,
        gradcheck_dims=SMOKE_GRADCHECK),
    # Cheap arithmetic, so graph bookkeeping and per-token lookups dominate;
    # ragged and empty contexts. Its rounds also run `lcrrot gradcheck`, one
    # variant each: no graph, tiny arrays, the only run of the four ablations.
    "train_small_ragged": Workload(
        inputs=inputs.InputSpec(dim=50, vocab=2000, absent_share=0.1, filler_rows=15000,
                                n_train=15, n_dev=10, n_heldout=40, heldout_absent=10,
                                context=(1, 40), empty_share=0.2),
        hidden=50, epochs=2, min_rounds=N_VARIANTS, save_once=False, ckpt_slots=3,
        gradcheck_per_round=1, direction_examples=4, gradcheck_dims={}),
}


class Checks:
    """Collects failed correctness checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def load_examples(path):
    with open(path, encoding="utf-8") as fh:
        return corpus.load_examples(fh)


def load_vectors(path, dim, seed):
    with open(path, encoding="utf-8") as fh:
        return embeddings.load_pretrained(fh, dim=dim, seed=seed)


def tail(samples):
    """Highest of TAIL_PERCENTILES with at least ten samples above it (nearest rank)."""
    s = sorted(samples)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(s))
        if len(s) - rank >= 10:
            best = (p, s[rank - 1])
    return best


def check_forward(checks: Checks, ex, res, where: str):
    probs = res.probs.data
    checks.expect(bool(np.all(probs >= 0.0)) and abs(probs.sum() - 1.0) <= SUM_TOL,
                  f"{where}: probabilities not a distribution: {probs}")
    rec = res.record
    for alpha, seg, name in ((rec.alpha_l, ex.left, "alpha_l"), (rec.alpha_r, ex.right, "alpha_r"),
                             (rec.alpha_tl, ex.target, "alpha_tl"),
                             (rec.alpha_tr, ex.target, "alpha_tr")):
        if not seg:
            checks.expect(alpha is None, f"{where}: {name} present for an empty segment")
        else:
            checks.expect(alpha is not None and alpha.shape == (len(seg),)
                          and abs(alpha.sum() - 1.0) <= SUM_TOL,
                          f"{where}: {name} is not a distribution over its {len(seg)} tokens")


def eval_forward(examples, table, params, cfg):
    with T.no_grad():
        return [model.forward(ex, table, params, cfg, mode="eval") for ex in examples]


def directional_check(checks, examples, table, params, cfg, lam, rng):
    """Central difference of the loss along one random sign direction over
    every parameter, against the analytic directional derivative."""
    named = list(params.named())
    originals = [t.data for _, t in named]
    for ex in examples:
        direction = [rng.choice((-1.0, 1.0), t.data.shape) for _, t in named]
        res = model.forward(ex, table, params, cfg, mode="eval")
        params.zero_grad()
        training.loss(res.probs, ex.label_index, params, lam).backward()
        analytic = sum(float(np.sum(t.grad * v)) for (_, t), v in zip(named, direction)
                       if t.grad is not None)
        values = []
        for sign in (1.0, -1.0):
            for (_, t), orig, v in zip(named, originals, direction):
                t.data = orig + sign * DIRECTION_STEP * v
            with T.no_grad():
                res = model.forward(ex, table, params, cfg, mode="eval")
                values.append(float(training.loss(res.probs, ex.label_index, params, lam).data))
        for (_, t), orig in zip(named, originals):
            t.data = orig
        fd = (values[0] - values[1]) / (2.0 * DIRECTION_STEP)
        err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
        checks.expect(err < DIRECTION_TOL,
                      f"directional gradient check: analytic {analytic!r} vs "
                      f"central difference {fd!r} (relative error {err:.2e})")
    params.zero_grad()


def conditions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def describe_inputs(spec, gen: inputs.Inputs) -> str:
    train = gen.train_examples
    tokens = [tok for ex in train for tok in ex.tokens]
    absent = sum(tok not in gen.vector_words for tok in tokens)
    empty_l = sum(not ex.left for ex in train) / len(train)
    empty_r = sum(not ex.right for ex in train) / len(train)
    labels = {lab: sum(ex.label == lab for ex in train) for lab in inputs.LABELS}
    return (f"inputs: d={spec.dim} train/dev/held-out {spec.n_train}/{spec.n_dev}/"
            f"{spec.n_heldout} examples, {len(tokens)} training tokens of "
            f"{len(set(tokens))} types (vocabulary {spec.vocab}, Zipf s={spec.zipf}), "
            f"{100.0 * absent / len(tokens):.1f}% of training tokens absent from the "
            f"vector file ({len(gen.vector_words)} rows), empty left/right "
            f"{100 * empty_l:.0f}%/{100 * empty_r:.0f}%, labels -1/0/1 "
            f"{labels['-1']}/{labels['0']}/{labels['1']}")


def bit_equal(params_a, params_b) -> bool:
    a, b = list(params_a.named()), list(params_b.named())
    return [n for n, _ in a] == [n for n, _ in b] and all(
        x.data.dtype == y.data.dtype and x.data.shape == y.data.shape
        and x.data.tobytes() == y.data.tobytes() for (_, x), (_, y) in zip(a, b))


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    spec = wl.inputs
    checks = Checks()
    gen = inputs.write(spec, seed, work)
    print(describe_inputs(spec, gen))

    tracer = None
    if traced:
        tracer = layers.Tracer()
        layers.install(tracer)
        tracer.start()

    hp = training.Hyperparams(max_epochs=wl.epochs, seed=seed)
    cfg = model.VariantConfig(variant=model.Variant.LCR_ROT)
    dims = model.Dimensions(d=spec.dim, d_h=wl.hidden)
    samples = {k: [] for k in ("setup", "train", "save", "load", "eval", "predict",
                               "gradcheck")}
    loss_evals = 0
    predictions = []
    first_params = None
    saves = 0

    def checkpoint():
        """Save and load the checkpoint; with save_once only the first call
        saves. Each save writes a new file, as a user saving a fresh model
        does, so that no save waits on the write-back of the file it
        replaces."""
        nonlocal ckpt, params2, cfg2, hp2, saves
        gc.collect()
        if saves == 0 or not wl.save_once:
            ckpt = work / f"model-{saves}.ckpt"
            samples["save"].append(timed(training.save_checkpoint, params, cfg, hp, ckpt)[1])
            saves += 1
        (params2, cfg2, hp2), dt = timed(training.load_checkpoint, ckpt)
        samples["load"].append(dt)

    # whole cycles of rounds, so that every variant is checked equally often
    cycle = N_VARIANTS // wl.gradcheck_per_round
    ckpt = params2 = cfg2 = hp2 = None
    t_start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or r % cycle or (
            not traced and time.perf_counter() - t_start < seconds):
        # A full garbage collection before each phase keeps the graphs of the
        # phase before it from being collected on its clock. It runs once
        # per phase, not per call: a collection costs about 13 ms.
        # set-up: parse the corpora, load the vector file
        gc.collect()
        t0 = time.perf_counter()
        train_ex = load_examples(gen.train)
        dev_ex = load_examples(gen.dev)
        heldout = load_examples(gen.heldout)
        table = load_vectors(gen.vectors, spec.dim, seed)
        samples["setup"].append(time.perf_counter() - t0)
        checks.expect(len(table) == len(gen.vector_words), "vector file row count")

        gc.collect()
        (params, epochs), dt = timed(training.train, train_ex, table, cfg, hp, dims,
                                     dev_examples=dev_ex)
        samples["train"].append(dt)
        checks.expect(len(epochs) == wl.epochs
                      and all(math.isfinite(m.train_loss) for m in epochs),
                      f"epoch losses not all finite: {[m.train_loss for m in epochs]}")
        if first_params is None:
            first_params = params
        checks.expect(bit_equal(params, first_params),
                      f"round {r}: train() on the same inputs gave other parameters")
        checkpoint()

        # held-out evaluation as `lcrrot eval` runs it: reloaded checkpoint,
        # freshly loaded vector file; then one prediction per held-out example
        eval_table = load_vectors(gen.vectors, params2.dims.d, hp2.seed)
        gc.collect()
        result, dt = timed(evalreport.evaluate, heldout, eval_table, params2, cfg2)
        samples["eval"].append(dt)
        if wl.ckpt_slots >= 2:
            checkpoint()
        gc.collect()
        for ex in heldout:
            label, dt = timed(evalreport.predict, ex, eval_table, params2, cfg2)
            samples["predict"].append(dt)
            predictions.append(label)

        for i in range(wl.gradcheck_per_round):
            variant = model.ALL_VARIANTS[(r * wl.gradcheck_per_round + i) % N_VARIANTS]
            ex, gtable, gparams, gcfg = gradcheck.tiny_setup(variant, seed=seed,
                                                            **wl.gradcheck_dims)
            loss_evals += 2 * sum(t.data.size for _, t in gparams.named())
            gc.collect()
            err, dt = timed(gradcheck.max_gradient_error, ex, gtable, gparams, gcfg,
                            lam=hp.l2_weight)
            samples["gradcheck"].append(dt)
            checks.expect(err < GRADCHECK_TOL, f"gradcheck {variant.value}: {err:.3e}")
        if wl.ckpt_slots >= 3:
            checkpoint()
        r += 1
    rounds = r

    for parsed, made, what in ((train_ex, gen.train_examples, "train"),
                               (dev_ex, gen.dev_examples, "dev"),
                               (heldout, gen.heldout_examples, "held-out")):
        checks.expect([(e.left, e.target, e.right) for e in parsed]
                      == [(e.left, e.target, e.right) for e in made],
                      f"{what} corpus parsed into other tokens than were written")
    checks.expect(bit_equal(params, params2),
                  "reloaded parameters are not bit-equal to the saved ones")

    # Probabilities of the last round: in-process parameters with the training
    # table (its first lookups of held-out words), reloaded parameters with
    # the training table, and reloaded parameters with the eval table.
    ref = eval_forward(heldout, table, params, cfg)
    again = eval_forward(heldout, table, params2, cfg2)
    fresh = eval_forward(heldout, eval_table, params2, cfg2)
    checks.expect(all(a.probs.data.tobytes() == b.probs.data.tobytes()
                      for a, b in zip(ref, again)),
                  "reloaded parameters with the training table give other probabilities")
    expected = [corpus.LABELS[int(np.argmax(res.probs.data))] for res in fresh]
    for i, ex in enumerate(heldout):
        check_forward(checks, ex, ref[i], f"held-out {i}, training table")
        check_forward(checks, ex, fresh[i], f"held-out {i}, fresh table")
    own_correct = sum(lab == ex.label for lab, ex in zip(expected, heldout))
    checks.expect(result.predicted == expected,
                  "evaluate's predictions differ from the argmax of the probabilities")
    checks.expect(sum(result.correct_flags) == own_correct
                  and result.accuracy == own_correct / len(heldout),
                  f"evaluate's accuracy {result.accuracy} != own count "
                  f"{own_correct}/{len(heldout)}")
    checks.expect(predictions == expected * rounds,
                  "predict differs from the argmax of its probabilities")

    # held-out agreement: one operation per example
    failed = 0
    for i, ex in enumerate(heldout):
        gap = float(np.max(np.abs(fresh[i].probs.data - ref[i].probs.data)))
        if gap > AGREEMENT_TOL:
            failed += 1
            checks.expect(any(t not in gen.vector_words
                              for t in ex.left + ex.target + ex.right),
                          f"held-out {i} disagrees by {gap:.2e} but every token is "
                          "in the vector file")

    directional_check(checks, train_ex[:wl.direction_examples], table, params, cfg,
                      hp.l2_weight, np.random.default_rng(seed))

    if tracer is not None:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_train_tokens = sum(len(ex.left) + len(ex.target) + len(ex.right) for ex in train_ex)
    p_tail, v_tail = tail(samples["predict"])
    med = {k: statistics.median(v) for k, v in samples.items()}
    total = {k: sum(v) for k, v in samples.items()}
    # Per-call times are reported as means over the run. On a shared machine
    # they fall into two speeds about 1.4x apart; a median jumps between the
    # two as their shares change from run to run, a mean moves with the shares.
    mean = {k: total[k] / len(v) for k, v in samples.items()}
    print(f"{rounds} rounds; train() {len(train_ex)} examples x {wl.epochs} epochs; "
          f"predict latency tail is p{p_tail} of {len(samples['predict'])} samples; "
          f"{loss_evals} gradcheck loss evaluations")
    for k, v in samples.items():
        print(f"  samples {k:<10} n={len(v):<4} min {min(v):.4g}  median {med[k]:.4g}  "
              f"max {max(v):.4g}  total {total[k]:.4g} s")
    if tracer is not None:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (mean["setup"], "s"),
            "train_ex_per_s": (rounds * len(train_ex) * wl.epochs / total["train"], "1/s"),
            "train_tok_per_s": (rounds * n_train_tokens * wl.epochs / total["train"], "1/s"),
            "eval_ex_per_s": (rounds * len(heldout) / total["eval"], "1/s"),
            "predict_ms_p50": (1e3 * med["predict"], "ms"),
            "predict_ms_tail": (1e3 * v_tail, "ms"),
            "ckpt_save_s": (mean["save"], "s"),
            "ckpt_load_s": (mean["load"], "s"),
            "ckpt_bytes": (ckpt.stat().st_size, "bytes"),
            "gradcheck_evals_per_s": (loss_evals / total["gradcheck"], "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {"correct": not checks.failures, "attempted": len(heldout), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failures": checks.failures}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; lcrrot from "
          f"{Path(lcrrot.__file__).parent}")
    print("conditions: " + json.dumps(conditions()))
    work = args.work_dir / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for what in result.pop("failures"):
        print(f"CHECK FAILED: {what}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
