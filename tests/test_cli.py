import dataclasses
import json

import pytest

from lcrrot import evalreport, training
from lcrrot.cli import run
from lcrrot.corpus import load_examples
from lcrrot.embeddings import EmbeddingTable
from lcrrot.errors import CheckpointError

CORPUS = """the $T$ was good today
battery
1
the $T$ was bad today
screen
-1
the $T$ was meh today
keyboard
0
"""


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def base_train_args(corpus_file, tmp_path, extra=()):
    return ["train",
            "--train-corpus", str(corpus_file),
            "--checkpoint", str(tmp_path / "model.ckpt"),
            "--dim", "6", "--hidden", "3", "--epochs", "2",
            "--batch-size", "2", "--dropout", "0", "--lr", "0.05",
            "--seed", "3", *extra]


def test_stats_counts_sum(corpus_file, capsys):
    assert run(["stats", "--corpus", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    counts = [int(line.split("\t")[1]) for line in out.splitlines()
              if line.startswith("  ") and "\t" in line and "%" not in line]
    assert sum(counts) == 3


def test_train_then_eval_pipeline(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path,
                               extra=["--metrics", str(tmp_path / "metrics.tsv")])) == 0
    out = capsys.readouterr().out
    assert "effective config:" in out
    metrics = (tmp_path / "metrics.tsv").read_text().strip().splitlines()
    assert len(metrics) == 2
    final_train_acc = float(metrics[-1].split("\t")[2])

    assert run(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--test-corpus", str(corpus_file),
                "--train-corpus", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    reported = float([l for l in out.splitlines() if l.startswith("accuracy")][0]
                     .split("\t")[1])
    assert reported == pytest.approx(final_train_acc, abs=1e-4)
    assert "majority-baseline" in out


def test_viz_json_and_html(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    for fmt, name in (("json", "attention_0.json"), ("html", "attention_1.html")):
        idx = "0" if fmt == "json" else "1"
        assert run(["viz", "--checkpoint", str(tmp_path / "model.ckpt"),
                    "--corpus", str(corpus_file), "--indices", idx,
                    "--format", fmt, "--out-dir", str(tmp_path / "viz")]) == 0
        assert (tmp_path / "viz" / name).exists()
    doc = json.loads((tmp_path / "viz" / "attention_0.json").read_text())
    assert set(doc["weights"]) == {"alpha_l", "alpha_r", "alpha_tl", "alpha_tr"}


def test_ttest_command(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("1\n2\n3\n4\n5\n")
    (tmp_path / "b.txt").write_text("0\n0\n0\n0\n0\n")
    assert run(["ttest", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
    out = capsys.readouterr().out
    assert "t=4.2426" in out and "df=4" in out and "p=0.013" in out


def test_gradcheck_single_variant(capsys):
    assert run(["gradcheck", "--variant", "no_attention"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_variant_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = no_attention\n")
    assert run(["gradcheck", "--config", str(cfg)]) == 0
    results = [l for l in capsys.readouterr().out.splitlines()
               if "max relative error" in l and not l.startswith("OK")]
    assert len(results) == 1 and results[0].startswith("no_attention")


@pytest.mark.parametrize("flag", ["--batch-size", "--dim", "--hidden", "--epochs"])
def test_zero_size_is_data_error(corpus_file, tmp_path, capsys, flag):
    args = base_train_args(corpus_file, tmp_path)
    args[args.index(flag) + 1] = "-1" if flag == "--epochs" else "0"
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("how", ["flag", "config_file"])
def test_infinite_hyperparameter_is_data_error(corpus_file, tmp_path, capsys, how):
    args = base_train_args(corpus_file, tmp_path)
    if how == "flag":
        args[args.index("--lr") + 1] = "inf"
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l2 = inf\n")
        args += ["--config", str(cfg)]
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_vector_row_is_data_error(corpus_file, tmp_path, capsys, value):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"good 0.1 0.2 0.3 0.4 0.5 0.6\nbattery {value} 0 0 0 0 0\n")
    assert run(base_train_args(corpus_file, tmp_path, extra=["--embeddings", str(vectors)])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2:")
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("command", ["eval", "ablate", "train_dev"])
def test_empty_corpus_is_data_error(corpus_file, tmp_path, capsys, monkeypatch, command):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    ckpt = tmp_path / "model.ckpt"
    small = ["--dim", "4", "--hidden", "2", "--epochs", "1", "--seed", "3"]
    if command == "eval":
        assert run(base_train_args(corpus_file, tmp_path)) == 0
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ckpt), "--test-corpus", str(empty)]
    elif command == "ablate":
        argv = ["ablate", "--train-corpus", str(corpus_file), "--test-corpus", str(empty), *small]
    else:
        argv = base_train_args(corpus_file, tmp_path, extra=["--dev-corpus", str(empty)])
    trained = []
    real_train = training.train
    monkeypatch.setattr(training, "train",
                        lambda *args, **kw: trained.append(args[2]) or real_train(*args, **kw))
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "empty" in err[0]
    assert ckpt.exists() == (command == "eval")
    if command == "ablate":
        assert trained == []  # rejected before the first variant trains


@pytest.mark.parametrize("damage", ["not_utf8", "directory"])
@pytest.mark.parametrize("flag", ["--train-corpus", "--config", "--embeddings"])
def test_unreadable_input_file_is_data_error(corpus_file, tmp_path, capsys, flag, damage):
    bad = tmp_path / "bad"
    if damage == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe" + CORPUS.encode("utf-8"))
    args = base_train_args(corpus_file, tmp_path)
    if flag == "--train-corpus":
        args[args.index(flag) + 1] = str(bad)
    else:
        args += [flag, str(bad)]
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
    assert not (tmp_path / "model.ckpt").exists()


def test_ttest_non_utf8_file_is_data_error(tmp_path, capsys):
    good, bad = tmp_path / "a.txt", tmp_path / "b.txt"
    good.write_text("0.7 0.8 0.75\n", encoding="utf-8")
    bad.write_bytes(b"\xff\xfe0.7 0.8 0.75\n")
    assert run(["ttest", str(good), str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]


def test_negative_seed_is_data_error(corpus_file, tmp_path, capsys):
    args = base_train_args(corpus_file, tmp_path)
    args[args.index("--seed") + 1] = "-1"
    for argv in (args, ["gradcheck", "--variant", "no_attention", "--seed", "-1"]):
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
    assert not (tmp_path / "model.ckpt").exists()


def json_checkpoint_docs(path):
    """The JSON documents that versions 2 (stacked gates) and 1 (one entry
    per gate, e.g. left.fwd.w_i) would have written for the model at path."""
    params, cfg, hp = training.load_checkpoint(path)
    stacked = {name: {"shape": list(t.data.shape), "values": t.data.ravel().tolist()}
               for name, t in params.named()}
    per_gate = {}
    for name, entry in stacked.items():
        prefix, kind = name.rsplit(".", 1)
        if prefix.endswith((".fwd", ".bwd")):
            rows = entry["shape"][0] // 4
            cols = entry["shape"][1:]
            size = rows * (cols[0] if cols else 1)
            for k, gate in enumerate("ifog"):
                per_gate[f"{prefix}.{kind}_{gate}"] = {
                    "shape": [rows, *cols],
                    "values": entry["values"][k * size:(k + 1) * size]}
        else:
            per_gate[name] = entry
    meta = {"variant": cfg.variant.value, "hyperparams": dataclasses.asdict(hp),
            "dims": dataclasses.asdict(params.dims)}
    return [{"format_version": 2, **meta, "params": stacked},
            {"format_version": 1, **meta, "params": per_gate}]


def test_per_gate_version_1_checkpoint_is_rejected(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    for doc in json_checkpoint_docs(tmp_path / "model.ckpt"):
        old = tmp_path / f"v{doc['format_version']}.ckpt"
        old.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            training.load_checkpoint(old)
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(old), "--test-corpus", str(corpus_file)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_truncated_checkpoint_is_data_error(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ckpt), "--test-corpus", str(corpus_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_eval_takes_no_hyperparameter_flags(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    assert run(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--test-corpus", str(corpus_file), "--lr", "0.5"]) == 1


HELD_OUT = """$T$ was meh today the
keyboard
0
the $T$ screen was good
battery
1
today the $T$ was bad battery
screen
-1
the keyboard $T$ was meh
screen
0
good today was the $T$
keyboard
1
was bad the $T$
battery
-1
"""


def test_held_out_eval_matches_training_table(corpus_file, tmp_path, capsys):
    # Train without --embeddings, so every word is out of vocabulary, then
    # evaluate a corpus that meets the same words in another order.
    assert run(base_train_args(corpus_file, tmp_path,
                               extra=["--epochs", "40", "--lr", "0.3", "--batch-size", "3"])) == 0
    held_out = tmp_path / "held_out.txt"
    held_out.write_text(HELD_OUT, encoding="utf-8")
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--test-corpus", str(held_out)]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy")][0]

    params, cfg, hp = training.load_checkpoint(tmp_path / "model.ckpt")
    table = EmbeddingTable(dim=params.dims.d, seed=hp.seed)
    with open(corpus_file, encoding="utf-8") as fh:
        train_ex = load_examples(fh)
    for ex in train_ex:  # the table as training left it
        table.embed_sequence(ex.left + ex.target + ex.right)
    with open(held_out, encoding="utf-8") as fh:
        test_ex = load_examples(fh)
    expected = evalreport.evaluate(test_ex, table, params, cfg)
    assert line == (f"accuracy\t{expected.accuracy:.4f}\t"
                    f"({sum(expected.correct_flags)}/{len(test_ex)})")


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(corpus_file):
    assert run(["train", "--train-corpus", str(corpus_file)]) == 1


def test_malformed_corpus_is_data_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no placeholder\nt\n1\n")
    assert run(["stats", "--corpus", str(bad)]) == 2


def test_missing_file_is_data_error(tmp_path):
    assert run(["stats", "--corpus", str(tmp_path / "nope.txt")]) == 2


def test_help_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("train", "eval", "ablate", "stats", "ttest", "viz", "gradcheck"):
        assert cmd in out


def test_config_file_and_flag_precedence(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr = 0.9\nseed = 7\n")
    args = base_train_args(corpus_file, tmp_path)
    seed_at = args.index("--seed")
    del args[seed_at:seed_at + 2]
    assert run(args + ["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("effective config:")][0]
    assert "seed=7" in line        # from config file
    assert "lr=0.05" in line       # flag overrides config

def test_bad_config_key_is_data_error(corpus_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_speed = 9\n")
    assert run(base_train_args(corpus_file, tmp_path) + ["--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["batch_size = x", "variant = bogus"])
def test_bad_config_value_is_data_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 2\n{line}\n")
    assert run(["gradcheck", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2:")


def test_determinism_across_invocations(corpus_file, tmp_path):
    outs = []
    for tag in ("one", "two"):
        ckpt = tmp_path / f"{tag}.ckpt"
        metrics = tmp_path / f"{tag}.tsv"
        args = ["train", "--train-corpus", str(corpus_file),
                "--checkpoint", str(ckpt), "--metrics", str(metrics),
                "--dim", "6", "--hidden", "3", "--epochs", "2",
                "--batch-size", "2", "--seed", "5"]
        assert run(args) == 0
        outs.append((ckpt.read_bytes(), metrics.read_bytes()))
    assert outs[0] == outs[1]
