"""Command-line entry point.

Subcommands: train, eval, ablate, stats, ttest, viz, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data/format error (an unreadable
or non-UTF-8 input file among them, or settings too large to allocate),
3 numeric failure (gradient check above tolerance).

train takes ten settings (lr l2 dropout momentum batch_size epochs dim
hidden seed variant), each as a flag or a ``key = value`` line of a
--config file; ablate takes all but variant (it runs all five), gradcheck
only l2, seed and variant (its dimensions are fixed). Any other setting is
refused. Flags override the config file, which overrides the defaults.
The effective configuration is echoed at startup. eval and viz read
variant, dimensions and seed from the checkpoint.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

from . import corpus as corpus_mod
from . import evalreport, gradcheck, training
from .embeddings import EmbeddingTable, load_pretrained
from .errors import (CheckpointError, ConfigError, DomainError, FormatError,
                     ShapeError)
from .model import ALL_VARIANTS, Dimensions, VariantConfig

# Each setting, named as its config key (its flag spells "_" as "-"): the
# dataclass field it fills, which gives its type and default, and its help.
SETTINGS = {
    "lr": (training.Hyperparams, "learning_rate", "learning rate"),
    "l2": (training.Hyperparams, "l2_weight", "L2 weight"),
    "dropout": (training.Hyperparams, "dropout_rate", "dropout rate"),
    "momentum": (training.Hyperparams, "momentum", "momentum"),
    "batch_size": (training.Hyperparams, "batch_size", "mini-batch size"),
    "epochs": (training.Hyperparams, "max_epochs", "training epochs"),
    "dim": (Dimensions, "d", "embedding dimension"),
    "hidden": (Dimensions, "d_h", "LSTM hidden size per direction"),
    "seed": (training.Hyperparams, "seed", "random seed"),
    "variant": (VariantConfig, "variant", "model variant"),
}
_DEFAULTS = {key: getattr(cls(), field) for key, (cls, field, _) in SETTINGS.items()}


def _show(value):
    return value.value if isinstance(value, Enum) else value


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lcrrot", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p, keys, shown_defaults=None):
        # shown_defaults: what an unset setting means where that is not its
        # field's default (gradcheck without a variant checks all five)
        shown_defaults = shown_defaults or {}
        p.set_defaults(settings=keys, shown_defaults=shown_defaults)
        p.add_argument("--config", type=Path,
                       help="key = value config file; flags override it")
        for key in keys:
            default = _DEFAULTS[key]
            kind = type(default)
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           choices=[v.value for v in kind] if isinstance(default, Enum) else None,
                           help=f"{SETTINGS[key][2]} (default "
                                f"{shown_defaults.get(key, _show(default))})")

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.set_defaults(run=_cmd_train)
    add_settings(p_train, tuple(SETTINGS))
    p_train.add_argument("--train-corpus", type=Path, required=True)
    p_train.add_argument("--dev-corpus", type=Path)
    p_train.add_argument("--embeddings", type=Path,
                         help="pretrained vector file; omitted = all-OOV random table")
    p_train.add_argument("--checkpoint", type=Path, required=True)
    p_train.add_argument("--metrics", type=Path, help="per-epoch metrics log file")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test corpus")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--test-corpus", type=Path, required=True)
    p_eval.add_argument("--train-corpus", type=Path,
                        help="when given, also report the majority baseline")
    p_eval.add_argument("--embeddings", type=Path)

    p_abl = sub.add_parser("ablate", help="train and compare all five variants")
    p_abl.set_defaults(run=_cmd_ablate)
    add_settings(p_abl, tuple(key for key in SETTINGS if key != "variant"))
    p_abl.add_argument("--train-corpus", type=Path, required=True)
    p_abl.add_argument("--test-corpus", type=Path, required=True)
    p_abl.add_argument("--embeddings", type=Path)

    p_stats = sub.add_parser("stats", help="print corpus statistics")
    p_stats.set_defaults(run=_cmd_stats)
    p_stats.add_argument("--corpus", type=Path, required=True)

    p_tt = sub.add_parser("ttest", help="paired t-test between two accuracy files")
    p_tt.set_defaults(run=_cmd_ttest)
    p_tt.add_argument("file_a", type=Path)
    p_tt.add_argument("file_b", type=Path)

    p_viz = sub.add_parser("viz", help="export attention weights for examples")
    p_viz.set_defaults(run=_cmd_viz)
    p_viz.add_argument("--checkpoint", type=Path, required=True)
    p_viz.add_argument("--corpus", type=Path, required=True)
    p_viz.add_argument("--embeddings", type=Path)
    p_viz.add_argument("--indices", default="0",
                       help="comma-separated example indices (default 0)")
    p_viz.add_argument("--format", choices=["json", "html"], default="json")
    p_viz.add_argument("--out-dir", type=Path, required=True)

    p_gc = sub.add_parser("gradcheck",
                          help="finite-difference gradient check on a tiny config")
    p_gc.set_defaults(run=_cmd_gradcheck)
    add_settings(p_gc, ("l2", "seed", "variant"), shown_defaults={"variant": "all"})
    p_gc.add_argument("--tolerance", type=float, default=1e-4)

    return parser


@contextmanager
def _open_text(path: Path):
    """Open an input file as UTF-8 text; a decoding error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc})") from None


def _read_config_file(path: Path, keys) -> dict:
    values = {}
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise FormatError(f"{path}:{lineno}: unknown key {key!r} "
                                  f"(this command takes {', '.join(keys)})")
            kind = type(_DEFAULTS[key])
            try:
                values[key] = kind(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: {key} = {value!r} is not a {kind.__name__}") from None
    return values


def _effective_config(args):
    """Echo the command's settings; return the Hyperparams, Dimensions and
    VariantConfig they fill, and the settings given by flag or config file."""
    given = _read_config_file(args.config, args.settings) if args.config else {}
    given.update((key, getattr(args, key)) for key in args.settings
                 if getattr(args, key) is not None)
    merged = {key: given.get(key, _DEFAULTS[key]) for key in args.settings}
    shown = {**args.shown_defaults, **given}
    print("effective config: " + " ".join(f"{k}={_show(shown.get(k, merged[k]))}"
                                          for k in sorted(merged)))
    fields = {training.Hyperparams: {}, Dimensions: {}, VariantConfig: {}}
    for key, value in merged.items():
        cls, field, _ = SETTINGS[key]
        fields[cls][field] = value
    return *(cls(**kwargs) for cls, kwargs in fields.items()), given


def _load_table(path, dim: int, seed: int) -> EmbeddingTable:
    if path is None:
        return EmbeddingTable(dim=dim, seed=seed)
    with _open_text(path) as fh:
        return load_pretrained(fh, dim=dim, seed=seed)


def _load_examples(path):
    with _open_text(path) as fh:
        return corpus_mod.load_examples(fh)


def _load_test_corpus(path):
    examples = _load_examples(path)
    if not examples:
        raise DomainError(f"{path}: empty test corpus")
    return examples


def _check_output_path(path: Path) -> None:
    """Reject a file that could not be written, before any work is done."""
    if path.is_dir():
        raise ConfigError(f"{path}: is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{path}: directory {path.parent} does not exist")
    if not os.access(path.parent, os.W_OK):
        raise ConfigError(f"{path}: directory {path.parent} is not writable")


def _cmd_train(args) -> int:
    hp, dims, vcfg, _ = _effective_config(args)
    for path in filter(None, (args.checkpoint, args.metrics)):
        _check_output_path(path)
    examples = _load_examples(args.train_corpus)
    dev = _load_examples(args.dev_corpus) if args.dev_corpus else None
    table = _load_table(args.embeddings, dims.d, hp.seed)

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
    test = _load_test_corpus(args.test_corpus)
    train_ex = _load_examples(args.train_corpus) if args.train_corpus else None
    params, vcfg, hp = training.load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.dims.d, hp.seed)
    result = evalreport.evaluate(test, table, params, vcfg)
    print(f"accuracy\t{result.accuracy:.4f}\t({sum(result.correct_flags)}/{len(test)})")
    if train_ex is not None:
        baseline = evalreport.majority_baseline(train_ex, test)
        print(f"majority-baseline\t{baseline:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    hp, dims, _, _ = _effective_config(args)
    train_ex = _load_examples(args.train_corpus)
    test_ex = _load_test_corpus(args.test_corpus)
    # an OOV row depends on (seed, token) alone, so the variants can share one table
    table = _load_table(args.embeddings, dims.d, hp.seed)

    print(f"{'variant':<22}\ttest_acc")
    for variant in ALL_VARIANTS:
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
        with _open_text(path) as fh:
            try:
                return [float(x) for x in fh.read().split()]
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None

    a = read_numbers(args.file_a)
    b = read_numbers(args.file_b)
    res = evalreport.paired_t_test(a, b)
    print(f"{args.file_a.name} vs {args.file_b.name}: "
          f"t={res.t:.4f} df={res.df} p={res.p:.6f}")
    return 0


def _cmd_viz(args) -> int:
    try:
        indices = [int(x) for x in args.indices.split(",")]
    except ValueError:
        raise UsageError(f"bad --indices value {args.indices!r}") from None
    examples = _load_examples(args.corpus)
    for idx in indices:
        if not 0 <= idx < len(examples):
            raise DomainError(f"example index {idx} out of range (corpus has "
                              f"{len(examples)} examples)")
    # the directory is made after the long loads; a path that cannot be one fails now
    existing = next(p for p in (args.out_dir, *args.out_dir.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{args.out_dir}: {existing} is not a directory")
    params, vcfg, hp = training.load_checkpoint(args.checkpoint)
    table = _load_table(args.embeddings, params.dims.d, hp.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx in indices:
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
    if not 0 < args.tolerance < math.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {args.tolerance}")
    hp, _, vcfg, given = _effective_config(args)
    variants = [vcfg.variant] if "variant" in given else ALL_VARIANTS
    errors = []
    for variant in variants:
        # the initial point, and a stressed one where the attention is not uniform
        (name0, err0), (name1, err1) = (gradcheck.worst(gradcheck.gradient_errors(
            *gradcheck.tiny_setup(variant, seed=hp.seed, stressed=stressed), lam=hp.l2_weight))
            for stressed in (False, True))
        print(f"{variant.value:<22}\tmax relative error {err0:.3e} in {name0} (initial), "
              f"{err1:.3e} in {name1} (stressed)")
        errors += [err0, err1]
    worst = math.nan if any(map(math.isnan, errors)) else max(errors)
    if not worst < args.tolerance:
        print(f"FAIL: max relative error {worst:.3e} is not below {args.tolerance:.1e}")
        return 3
    print(f"OK: max relative error {worst:.3e} < {args.tolerance:.1e}")
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (FormatError, DomainError, CheckpointError, ConfigError, ShapeError,
            UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
