"""Per-layer self times and counts, taken from outside the package.

``install`` replaces public functions of lcrrot's modules with wrappers
that time each call. A layer's self time is the time of its calls minus
the time of the wrapped calls made inside them, so the self times of all
layers plus ``unattributed_s`` add up to the traced total.

The module that defines a function and every module that imported it by
name hold their own reference, so each one is replaced.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from functools import wraps

import lcrrot
from lcrrot import (cli, corpus, embeddings, evalreport, gradcheck, model,
                    tensor, training)

_MODULES = (lcrrot, cli, corpus, embeddings, evalreport, gradcheck, model,
            tensor, training)

TIME_METRICS = (
    "corpus.parse_s", "embeddings.load_s", "embeddings.embed_s",
    "model.encoder.left_s", "model.encoder.center_s", "model.encoder.right_s",
    "model.attention.t2c_s", "model.attention.c2t_s",
    "model.forward_train_s", "model.forward_eval_s",
    "tensor.backward_s",
    "training.train_s", "training.batch_loss_s", "training.sgd_step_s",
    "training.accuracy_pass_s", "training.copy_params_s",
    "training.save_checkpoint_s", "training.load_checkpoint_s",
    "evalreport.evaluate_s",
) + tuple(f"gradcheck.{v.value}_s" for v in model.ALL_VARIANTS)

COUNT_METRICS = (
    "corpus.examples", "corpus.tokens", "embeddings.rows_loaded",
    "embeddings.tokens_embedded", "embeddings.oov_rows", "model.forward_calls",
    "tensor.backward_calls", "gradcheck.loss_evals",
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.nodes = 0                 # Tensor objects constructed so far
        self._open = []                # time spent in wrapped callees, per open call
        self._params = []              # ModelParams of the open forward calls
        self._step = None              # (start time, nodes) of the open training step
        self.step_s = []
        self.step_nodes = 0
        self.eval_nodes = 0
        self.eval_calls = 0
        self._t0 = self._t1 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        self._t1 = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            inner = self._open.pop()
            self.self_s[name] += dur - inner
            if self._open:
                self._open[-1] += dur

    def metrics(self) -> dict:
        total = self._t1 - self._t0
        out = {name: (self.self_s[name], "s") for name in TIME_METRICS}
        out.update({name: (self.count[name], "count") for name in COUNT_METRICS})
        steps = len(self.step_s)
        out["training.steps"] = (steps, "count")
        out["training.step_ms_p50"] = (1e3 * statistics.median(self.step_s), "ms")
        out["tensor.nodes_per_train_step"] = (self.step_nodes / steps, "count")
        out["tensor.nodes_per_eval_example"] = (self.eval_nodes / self.eval_calls, "count")
        out["unattributed_s"] = (total - sum(self.self_s[n] for n in TIME_METRICS), "s")
        out["traced_total_s"] = (total, "s")
        return out

    # -- wrappers ------------------------------------------------------------

    def _forward(self, fn, *args, **kwargs):
        params = args[2]
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "eval")
        self.count["model.forward_calls"] += 1
        if mode == "train" and self._step is None:
            self._step = (time.perf_counter(), self.nodes)
        nodes0 = self.nodes
        self._params.append(params)
        try:
            return self.call(f"model.forward_{mode}_s", fn, *args, **kwargs)
        finally:
            self._params.pop()
            if mode == "eval":
                self.eval_nodes += self.nodes - nodes0
                self.eval_calls += 1

    def _encode(self, fn, embedded, p, *args, **kwargs):
        params = self._params[-1]
        which = {id(params.left): "left", id(params.right): "right",
                 id(params.center): "center"}[id(p)]
        return self.call(f"model.encoder.{which}_s", fn, embedded, p, *args, **kwargs)

    def _attend(self, fn, hidden, query, w, *args, **kwargs):
        a = self._params[-1].attention
        stage = "t2c" if w is a.get("w_cl") or w is a.get("w_cr") else "c2t"
        return self.call(f"model.attention.{stage}_s", fn, hidden, query, w, *args, **kwargs)

    def _embed(self, fn, table, tokens):
        oov0 = len(table.oov_log)
        try:
            return self.call("embeddings.embed_s", fn, table, tokens)
        finally:
            self.count["embeddings.tokens_embedded"] += len(tokens)
            self.count["embeddings.oov_rows"] += len(table.oov_log) - oov0

    def _sgd(self, fn, *args, **kwargs):
        try:
            return self.call("training.sgd_step_s", fn, *args, **kwargs)
        finally:
            start, nodes0 = self._step
            self.step_s.append(time.perf_counter() - start)
            self.step_nodes += self.nodes - nodes0
            self._step = None

    def _backward(self, fn, *args, **kwargs):
        self.count["tensor.backward_calls"] += 1
        return self.call("tensor.backward_s", fn, *args, **kwargs)

    def _gradcheck(self, fn, ex, table, params, *args, **kwargs):
        calls0 = self.count["model.forward_calls"]
        try:
            return self.call(f"gradcheck.{params.variant.value}_s", fn,
                             ex, table, params, *args, **kwargs)
        finally:
            # every forward call but the one for the analytic gradient is a loss evaluation
            self.count["gradcheck.loss_evals"] += self.count["model.forward_calls"] - calls0 - 1


def _replace(orig, wrapped):
    for mod in _MODULES:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapped)


def _timed(tracer, name, fn, after=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def _via(tracer, method, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        return method(fn, *args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Route lcrrot's layer entry points through ``tracer``."""
    def parsed(examples):
        tracer.count["corpus.examples"] += len(examples)
        tracer.count["corpus.tokens"] += sum(
            len(ex.left) + len(ex.target) + len(ex.right) for ex in examples)

    def loaded(table):
        tracer.count["embeddings.rows_loaded"] += len(table)

    timed = [
        (corpus.load_examples, "corpus.parse_s", parsed),
        (embeddings.load_pretrained, "embeddings.load_s", loaded),
        (training.train, "training.train_s", None),
        (training.batch_loss, "training.batch_loss_s", None),
        (training.evaluate_accuracy, "training.accuracy_pass_s", None),
        (training.copy_params, "training.copy_params_s", None),
        (training.save_checkpoint, "training.save_checkpoint_s", None),
        (training.load_checkpoint, "training.load_checkpoint_s", None),
        (evalreport.evaluate, "evalreport.evaluate_s", None),
    ]
    for fn, name, after in timed:
        _replace(fn, _timed(tracer, name, fn, after))
    for fn, method in ((model.forward, tracer._forward),
                       (model.encode_bilstm, tracer._encode),
                       (model.attend, tracer._attend),
                       (training.sgd_momentum_step, tracer._sgd),
                       (gradcheck.max_gradient_error, tracer._gradcheck)):
        _replace(fn, _via(tracer, method, fn))

    table_cls, tensor_cls = embeddings.EmbeddingTable, tensor.Tensor
    table_cls.embed_sequence = _via(tracer, tracer._embed, table_cls.embed_sequence)
    tensor_cls.backward = _via(tracer, tracer._backward, tensor_cls.backward)
    init = tensor_cls.__init__

    @wraps(init)
    def counting_init(self, *args, **kwargs):
        tracer.nodes += 1
        init(self, *args, **kwargs)

    tensor_cls.__init__ = counting_init
