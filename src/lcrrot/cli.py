"""Command-line entry point.

Subcommands: train, eval, ablate, stats, ttest, viz, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data/format error (an unreadable
or non-UTF-8 input file among them), 3 numeric failure (gradient check
above tolerance).

train, ablate and gradcheck take the hyperparameter flags and a
``key = value`` config file (--config); explicit flags override config
values, which override built-in defaults. The effective configuration is
echoed at startup. eval and viz read variant, dimensions and seed from the
checkpoint.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evalreport, gradcheck, training
from .embeddings import EmbeddingTable, load_pretrained
from .errors import (CheckpointError, ConfigError, DomainError, FormatError,
                     ShapeError)
from .model import ALL_VARIANTS, Dimensions, Variant, VariantConfig

DEFAULTS = {
    "lr": 0.1,
    "l2": 1e-5,
    "dropout": 0.5,
    "momentum": 0.9,
    "batch_size": 25,
    "epochs": 20,
    "dim": 300,
    "hidden": 300,
    "seed": 1,
    "variant": "lcr_rot",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lcrrot", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hyper_flags(p):
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file; flags override it")
        p.add_argument("--lr", type=float, help=f"learning rate (default {DEFAULTS['lr']})")
        p.add_argument("--l2", type=float, help=f"L2 weight (default {DEFAULTS['l2']})")
        p.add_argument("--dropout", type=float, help=f"dropout rate (default {DEFAULTS['dropout']})")
        p.add_argument("--momentum", type=float, help=f"momentum (default {DEFAULTS['momentum']})")
        p.add_argument("--batch-size", type=int, help=f"mini-batch size (default {DEFAULTS['batch_size']})")
        p.add_argument("--epochs", type=int, help=f"training epochs (default {DEFAULTS['epochs']})")
        p.add_argument("--dim", type=int, help=f"embedding dimension (default {DEFAULTS['dim']})")
        p.add_argument("--hidden", type=int, help=f"LSTM hidden size per direction (default {DEFAULTS['hidden']})")
        p.add_argument("--seed", type=int, help=f"random seed (default {DEFAULTS['seed']})")
        p.add_argument("--variant", choices=[v.value for v in ALL_VARIANTS],
                       help=f"model variant (default {DEFAULTS['variant']})")

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    add_hyper_flags(p_train)
    p_train.add_argument("--train-corpus", type=Path, required=True)
    p_train.add_argument("--dev-corpus", type=Path)
    p_train.add_argument("--embeddings", type=Path,
                         help="pretrained vector file; omitted = all-OOV random table")
    p_train.add_argument("--checkpoint", type=Path, required=True)
    p_train.add_argument("--metrics", type=Path, help="per-epoch metrics log file")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test corpus")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--test-corpus", type=Path, required=True)
    p_eval.add_argument("--train-corpus", type=Path,
                        help="when given, also report the majority baseline")
    p_eval.add_argument("--embeddings", type=Path)

    p_abl = sub.add_parser("ablate", help="train and compare all five variants")
    add_hyper_flags(p_abl)
    p_abl.add_argument("--train-corpus", type=Path, required=True)
    p_abl.add_argument("--test-corpus", type=Path, required=True)
    p_abl.add_argument("--embeddings", type=Path)

    p_stats = sub.add_parser("stats", help="print corpus statistics")
    p_stats.add_argument("--corpus", type=Path, required=True)

    p_tt = sub.add_parser("ttest", help="paired t-test between two accuracy files")
    p_tt.add_argument("file_a", type=Path)
    p_tt.add_argument("file_b", type=Path)

    p_viz = sub.add_parser("viz", help="export attention weights for examples")
    p_viz.add_argument("--checkpoint", type=Path, required=True)
    p_viz.add_argument("--corpus", type=Path, required=True)
    p_viz.add_argument("--embeddings", type=Path)
    p_viz.add_argument("--indices", default="0",
                       help="comma-separated example indices (default 0)")
    p_viz.add_argument("--format", choices=["json", "html"], default="json")
    p_viz.add_argument("--out-dir", type=Path, required=True)

    p_gc = sub.add_parser("gradcheck",
                          help="finite-difference gradient check on a tiny config")
    add_hyper_flags(p_gc)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)

    return parser


def _read_config_file(path: Path) -> dict:
    values = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "variant" and value not in {v.value for v in ALL_VARIANTS}:
            raise ConfigError(f"{path}:{lineno}: unknown variant {value!r}")
        kind = type(DEFAULTS[key])
        try:
            values[key] = kind(value)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: {key} = {value!r} is not a {kind.__name__}") from None
    return values


def _effective_config(args) -> dict:
    merged = dict(DEFAULTS)
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    print("effective config: " + " ".join(f"{k}={merged[k]}" for k in sorted(merged)))
    return merged

def _hyperparams(cfg: dict) -> training.Hyperparams:
    return training.Hyperparams(
        learning_rate=cfg["lr"], l2_weight=cfg["l2"], dropout_rate=cfg["dropout"],
        momentum=cfg["momentum"], batch_size=cfg["batch_size"],
        max_epochs=cfg["epochs"], seed=cfg["seed"])


def _load_table(path, dim: int, seed: int) -> EmbeddingTable:
    if path is None:
        return EmbeddingTable(dim=dim, seed=seed)
    with open(path, encoding="utf-8") as fh:
        return load_pretrained(fh, dim=dim, seed=seed)


def _load_examples(path):
    with open(path, encoding="utf-8") as fh:
        return corpus_mod.load_examples(fh)


def _cmd_train(args) -> int:
    cfg = _effective_config(args)
    hp = _hyperparams(cfg)
    dims = Dimensions(d=cfg["dim"], d_h=cfg["hidden"])
    vcfg = VariantConfig(variant=Variant(cfg["variant"]))
    examples = _load_examples(args.train_corpus)
    dev = _load_examples(args.dev_corpus) if args.dev_corpus else None
    table = _load_table(args.embeddings, cfg["dim"], cfg["seed"])

    lines = []

    def log(line):
        lines.append(line)
        print(line)

    params, _ = training.train(examples, table, vcfg, hp, dims,
                               dev_examples=dev, log=log)
    training.save_checkpoint(params, vcfg, hp, args.checkpoint)
    if args.metrics:
        args.metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_eval(args) -> int:
    params, vcfg, hp = training.load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.dims.d, hp.seed)
    test = _load_examples(args.test_corpus)
    result = evalreport.evaluate(test, table, params, vcfg)
    print(f"accuracy\t{result.accuracy:.4f}\t({sum(result.correct_flags)}/{len(test)})")
    if args.train_corpus:
        train_ex = _load_examples(args.train_corpus)
        baseline = evalreport.majority_baseline(train_ex, test)
        print(f"majority-baseline\t{baseline:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _effective_config(args)
    hp = _hyperparams(cfg)
    dims = Dimensions(d=cfg["dim"], d_h=cfg["hidden"])
    train_ex = _load_examples(args.train_corpus)
    test_ex = _load_examples(args.test_corpus)

    print(f"{'variant':<22}\ttest_acc")
    for variant in ALL_VARIANTS:
        table = _load_table(args.embeddings, cfg["dim"], cfg["seed"])
        vcfg = VariantConfig(variant=variant)
        params, _ = training.train(train_ex, table, vcfg, hp, dims)
        acc = evalreport.evaluate(test_ex, table, params, vcfg).accuracy
        print(f"{variant.value:<22}\t{acc:.4f}")
    return 0


def _cmd_stats(args) -> int:
    examples = _load_examples(args.corpus)
    print(corpus_mod.format_stats(corpus_mod.corpus_stats(examples)))
    return 0


def _cmd_ttest(args) -> int:
    def read_numbers(path):
        try:
            return [float(x) for x in path.read_text().split()]
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None

    a = read_numbers(args.file_a)
    b = read_numbers(args.file_b)
    res = evalreport.paired_t_test(a, b)
    print(f"{args.file_a.name} vs {args.file_b.name}: "
          f"t={res.t:.4f} df={res.df} p={res.p:.6f}")
    return 0


def _cmd_viz(args) -> int:
    params, vcfg, hp = training.load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.dims.d, hp.seed)
    examples = _load_examples(args.corpus)
    try:
        indices = [int(x) for x in args.indices.split(",")]
    except ValueError:
        raise UsageError(f"bad --indices value {args.indices!r}") from None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx in indices:
        if not 0 <= idx < len(examples):
            raise DomainError(f"example index {idx} out of range (corpus has "
                              f"{len(examples)} examples)")
        export = evalreport.attention_export(examples[idx], table, params, vcfg)
        if args.format == "json":
            out = args.out_dir / f"attention_{idx}.json"
            out.write_text(evalreport.export_json(export), encoding="utf-8")
        else:
            out = args.out_dir / f"attention_{idx}.html"
            out.write_text(evalreport.export_html(export), encoding="utf-8")
        print(f"wrote {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _effective_config(args)
    hp = _hyperparams(cfg)  # validates the merged values, the seed among them
    chosen = args.variant or (args.config and "variant" in _read_config_file(args.config))
    variants = [Variant(cfg["variant"])] if chosen else ALL_VARIANTS
    worst = 0.0
    for variant in variants:
        ex, table, params, vcfg = gradcheck.tiny_setup(variant, seed=hp.seed)
        err = gradcheck.max_gradient_error(ex, table, params, vcfg, lam=hp.l2_weight)
        print(f"{variant.value:<22}\tmax relative error {err:.3e}")
        worst = max(worst, err)
    if worst >= args.tolerance:
        print(f"FAIL: {worst:.3e} >= tolerance {args.tolerance:.1e}")
        return 3
    print(f"OK: max relative error {worst:.3e} < {args.tolerance:.1e}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "stats": _cmd_stats,
    "ttest": _cmd_ttest,
    "viz": _cmd_viz,
    "gradcheck": _cmd_gradcheck,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (FormatError, DomainError, CheckpointError, ConfigError, ShapeError,
            UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
