import json

import pytest

from lcrrot import training
from lcrrot.cli import run
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


@pytest.mark.parametrize("flag", ["--batch-size", "--dim"])
def test_zero_size_is_data_error(corpus_file, tmp_path, capsys, flag):
    args = base_train_args(corpus_file, tmp_path)
    args[args.index(flag) + 1] = "0"
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_per_gate_version_1_checkpoint_is_rejected(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    ckpt = tmp_path / "model.ckpt"
    doc = json.loads(ckpt.read_text())
    # the layout before stacked gates: one entry per gate, e.g. left.fwd.w_i
    per_gate = {}
    for name, entry in doc["params"].items():
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
    doc["format_version"] = 1
    doc["params"] = per_gate
    old = tmp_path / "old.ckpt"
    old.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        training.load_checkpoint(old)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(old), "--test-corpus", str(corpus_file)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
