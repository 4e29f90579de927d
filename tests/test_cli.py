import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from lcrrot import cli, evalreport, gradcheck, training
from lcrrot import tensor as T
from lcrrot.cli import run
from lcrrot.corpus import load_examples
from lcrrot.embeddings import EmbeddingTable
from lcrrot.errors import CheckpointError
from lcrrot.model import Variant, is_bias

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


def test_viz_checks_every_index_before_writing(corpus_file, tmp_path, capsys):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    capsys.readouterr()
    assert run(["viz", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--corpus", str(corpus_file), "--indices", "0,99",
                "--out-dir", str(tmp_path / "viz")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "99" in err[0]
    assert not list(tmp_path.glob("viz/attention_*"))


@pytest.mark.parametrize("nested", [False, True], ids=["file", "below_a_file"])
def test_viz_out_dir_that_is_a_file_fails_before_loading(corpus_file, tmp_path, capsys,
                                                        monkeypatch, nested):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    loads = []
    monkeypatch.setattr(cli, "load_pretrained", lambda *a, **kw: loads.append("vectors"))
    monkeypatch.setattr(training, "load_checkpoint", lambda *a, **kw: loads.append("checkpoint"))
    capsys.readouterr()
    out_dir = taken / "viz" if nested else taken
    assert run(["viz", "--checkpoint", str(tmp_path / "model.ckpt"), "--corpus",
                str(corpus_file), "--embeddings", str(corpus_file),
                "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not a directory" in err[0]
    assert loads == []
    assert taken.read_text() == "not a directory"


def test_ttest_command(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("1\n2\n3\n4\n5\n")
    (tmp_path / "b.txt").write_text("0\n0\n0\n0\n0\n")
    assert run(["ttest", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
    out = capsys.readouterr().out
    assert "t=4.2426" in out and "df=4" in out and "p=0.013" in out


def test_gradcheck_single_variant(capsys):
    assert run(["gradcheck", "--variant", "no_attention"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    # the worst error and parameter at the initial and at the stressed point
    line = next(l for l in out.splitlines() if l.startswith("no_attention"))
    assert "(initial)" in line and "(stressed)" in line and line.count(" in ") == 2


def test_gradcheck_stressed_point():
    """The stressed point moves every parameter and word vector of the example,
    keeps 0-d biases as arrays, and leaves the initial point as it was."""
    ex, table, params, _ = gradcheck.tiny_setup(Variant.LCR_ROT)
    ex2, table2, stressed, _ = gradcheck.tiny_setup(Variant.LCR_ROT, stressed=True)
    assert ex2 == ex
    for (name, t), (_, s) in zip(params.named(), stressed.named()):
        assert isinstance(s.data, np.ndarray) and s.data.shape == t.data.shape, name
        if is_bias(name):
            assert np.all(s.data != t.data) and np.all(np.abs(s.data - t.data) < 0.5), name
        else:
            np.testing.assert_array_equal(s.data, 10.0 * t.data, err_msg=name)
    for token in ex.left + ex.target + ex.right:
        assert not np.array_equal(table2.lookup(token), table.lookup(token))
    again = gradcheck.tiny_setup(Variant.LCR_ROT)[2]
    for (_, t), (_, a) in zip(params.named(), again.named()):
        assert t.data.tobytes() == a.data.tobytes()


def test_gradcheck_variant_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = no_attention\n")
    assert run(["gradcheck", "--config", str(cfg)]) == 0
    results = [l for l in capsys.readouterr().out.splitlines()
               if "max relative error" in l and not l.startswith("OK")]
    assert len(results) == 1 and results[0].startswith("no_attention")


@pytest.mark.parametrize("how, shown", [("default", "all"), ("flag", "no_attention"),
                                        ("config", "no_attention")])
def test_gradcheck_echo_names_the_variants_it_checks(how, shown, tmp_path, monkeypatch,
                                                     capsys):
    checked = []

    def fake_errors(ex, table, params, cfg, lam):  # keeps the test fast
        checked.append(cfg.variant.value)
        return {"left.w": 1e-9}

    monkeypatch.setattr(gradcheck, "gradient_errors", fake_errors)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = no_attention\n")
    argv = {"default": [], "flag": ["--variant", "no_attention"],
            "config": ["--config", str(cfg)]}[how]
    assert run(["gradcheck"] + argv) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert echo == f"effective config: l2=1e-05 seed=1 variant={shown}"
    # two points per variant: the initial one and the stressed one
    expected = [v.value for v in Variant] if shown == "all" else [shown]
    assert checked == [v for v in expected for _ in range(2)]


@pytest.fixture
def nan_loss(monkeypatch):
    """Scale the gradient check's loss by NaN, so the loss and every gradient are NaN."""
    real_loss = gradcheck.loss
    monkeypatch.setattr(gradcheck, "loss", lambda *args: T.scale(real_loss(*args), math.nan))


def test_nan_gradient_error_fails_the_check(nan_loss):
    err = gradcheck.max_gradient_error(*gradcheck.tiny_setup(Variant.NO_ATTENTION))
    assert math.isnan(err) and not err < 1e-4


def test_gradcheck_nan_is_numeric_failure(nan_loss, capsys):
    assert run(["gradcheck", "--variant", "no_attention"]) == 3
    assert "FAIL: max relative error nan" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_is_data_error(capsys, tolerance):
    assert run(["gradcheck", "--variant", "no_attention", "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tolerance" in err[0]


@pytest.mark.parametrize("command,flag", [
    *(("gradcheck", flag) for flag in ("--lr", "--dropout", "--momentum", "--batch-size",
                                       "--epochs", "--dim", "--hidden")),
    ("ablate", "--variant")])
def test_setting_the_command_does_not_read_is_usage_error(corpus_file, capsys, command, flag):
    if command == "gradcheck":  # it always checks at d = 4, d_h = 3
        argv = ["gradcheck", "--variant", "no_attention", flag, "1"]
    else:  # it always trains all five variants
        argv = ["ablate", "--train-corpus", str(corpus_file), "--test-corpus", str(corpus_file),
                "--dim", "4", "--hidden", "2", "--epochs", "1", flag, "no_attention"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


@pytest.mark.parametrize("flag", ["--batch-size", "--dim", "--hidden", "--epochs"])
def test_zero_size_is_data_error(corpus_file, tmp_path, capsys, flag):
    args = base_train_args(corpus_file, tmp_path)
    args[args.index(flag) + 1] = "-1" if flag == "--epochs" else "0"
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_settings_too_large_to_allocate_are_data_error(corpus_file, tmp_path, capsys):
    """d = d_h = 10**7 asks for petabytes of weights, which the OS refuses at
    once: one error line, exit 2, and no checkpoint."""
    args = base_train_args(corpus_file, tmp_path)
    args[args.index("--dim") + 1] = args[args.index("--hidden") + 1] = "10000000"
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert not (tmp_path / "model.ckpt").exists()


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


@pytest.mark.parametrize("damage", ["missing_dir", "directory", "read_only_dir"])
@pytest.mark.parametrize("flag", ["--checkpoint", "--metrics"])
def test_unwritable_output_path_is_rejected_before_training(
        corpus_file, tmp_path, capsys, monkeypatch, flag, damage):
    bad = tmp_path / "out" / "file"
    if damage == "directory":
        bad.mkdir(parents=True)
    elif damage == "read_only_dir":
        bad.parent.mkdir()
        real_access = os.access  # a root user may write anywhere, so fake the refusal
        monkeypatch.setattr(os, "access", lambda path, mode: (
            path != bad.parent and real_access(path, mode)))
    args = base_train_args(corpus_file, tmp_path)
    if flag == "--checkpoint":
        args[args.index(flag) + 1] = str(bad)
    else:
        args += [flag, str(bad)]
    monkeypatch.setattr(training, "train", lambda *a, **kw: pytest.fail("training started"))
    assert run(args) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
    assert captured.out.splitlines()[0].startswith("effective config:")
    assert len(captured.out.splitlines()) == 1  # no epoch line
    assert not (tmp_path / "model.ckpt").exists() and not bad.is_file()


@pytest.mark.parametrize("command", ["eval", "eval_train_corpus", "viz"])
def test_corpus_checked_before_the_vector_file_loads(corpus_file, tmp_path, capsys,
                                                     monkeypatch, command):
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("good " + " ".join(["0.1"] * 6) + "\n", encoding="utf-8")
    loads = []
    monkeypatch.setattr(cli, "load_pretrained", lambda *a, **kw: loads.append(a))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    common = ["--checkpoint", str(tmp_path / "model.ckpt"), "--embeddings", str(vectors)]
    if command == "eval":
        argv = ["eval", *common, "--test-corpus", str(empty)]
    elif command == "eval_train_corpus":
        argv = ["eval", *common, "--test-corpus", str(corpus_file),
                "--train-corpus", str(tmp_path / "missing.txt")]
    else:
        argv = ["viz", *common, "--corpus", str(corpus_file), "--indices", "0,99",
                "--out-dir", str(tmp_path / "viz")]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""  # no accuracy line before the error
    assert loads == []


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


ENCODERS = ("left", "right", "center")


def per_direction(params):
    """The parameters as formats 2 and 3 named and stored them: one array per
    LSTM direction (left.fwd.w, left.fwd.u, left.fwd.b, left.bwd.w, ...)."""
    arrays = {}
    for enc in ENCODERS:
        p = getattr(params, enc)
        for k, direction in enumerate(("fwd", "bwd") if p is not None else ()):
            for kind in "wub":
                arrays[f"{enc}.{direction}.{kind}"] = getattr(p, kind).data[k]
    arrays.update((name, t.data) for name, t in params.named()
                  if name.split(".")[0] not in ENCODERS)
    return arrays


def json_checkpoint_docs(path):
    """The JSON documents that versions 2 (stacked gates) and 1 (one entry
    per gate, e.g. left.fwd.w_i) would have written for the model at path."""
    params, cfg, hp = training.load_checkpoint(path)
    stacked = {name: {"shape": list(a.shape), "values": a.ravel().tolist()}
               for name, a in per_direction(params).items()}
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


@pytest.mark.parametrize("damage", ["dims", "record"])
def test_huge_checkpoint_shape_is_data_error(corpus_file, tmp_path, capsys, damage):
    """Header dims of d = d_h = 10**7 (petabytes of weights), or a record whose
    .npy header claims shape (10**6, 10**6) (terabytes), exit 2 with one error
    line: the loader allocates nothing of the size a header claims."""
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    path = tmp_path / "model.ckpt"
    blob = path.read_bytes()
    header, records = blob.split(b"\n", 1)
    if damage == "dims":
        doc = json.loads(header)
        doc["dims"].update(d=10**7, d_h=10**7)
        path.write_bytes(json.dumps(doc).encode() + b"\n" + records)
    else:
        start = blob.index(b"\x93NUMPY", blob.index(b"\x93NUMPY") + 1)  # left.u, the 2nd record
        old = io.BytesIO(blob[start:])
        np.lib.format.read_magic(old)
        np.lib.format.read_array_header_1_0(old)
        claim = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            claim, {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)})
        path.write_bytes(blob[:start] + claim.getvalue() + blob[start + old.tell():])
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--test-corpus", str(corpus_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert ("left.w" if damage == "dims" else "left.u") in err[0]


def test_format_3_checkpoint_is_rejected(corpus_file, tmp_path, capsys):
    """Format 3 stored each LSTM direction as its own record (left.fwd.w, ...);
    format 4 stacks them (left.w), so a format-3 file is refused, not misread."""
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    params, cfg, hp = training.load_checkpoint(tmp_path / "model.ckpt")
    arrays = per_direction(params)
    header = {"format_version": 3, "variant": cfg.variant.value,
              "hyperparams": dataclasses.asdict(hp), "dims": dataclasses.asdict(params.dims),
              "params": list(arrays)}
    old = tmp_path / "v3.ckpt"
    with open(old, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for a in arrays.values():
            np.save(fh, a, allow_pickle=False)
    with pytest.raises(CheckpointError, match="version 3"):
        training.load_checkpoint(old)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(old), "--test-corpus", str(corpus_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "version 3" in err[0]


def test_four_class_checkpoint_is_data_error(corpus_file, tmp_path, capsys):
    """A header that states n_classes 4, over clf records of 4 rows whose
    fourth class would win every argmax: the model has three classes, so
    eval refuses the file instead of failing on a fourth label."""
    assert run(base_train_args(corpus_file, tmp_path)) == 0
    path = tmp_path / "model.ckpt"
    params, cfg, hp = training.load_checkpoint(path)
    header, _ = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc["dims"]["n_classes"] = 4
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc).encode() + b"\n")
        four = {"clf.w": np.vstack([params.clf_w.data, params.clf_w.data[:1]]),
                "clf.b": np.array([0.0, 0.0, 0.0, 100.0])}
        for name, t in params.named():
            np.save(fh, four.get(name, t.data), allow_pickle=False)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--test-corpus", str(corpus_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "clf.w" in err[0]


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

def test_bad_config_key_is_data_error(corpus_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    ablate = ["ablate", "--train-corpus", str(corpus_file), "--test-corpus", str(corpus_file),
              "--dim", "4", "--hidden", "2", "--epochs", "1"]
    # a key no command takes, then keys of settings these commands do not read
    for argv, line in ((base_train_args(corpus_file, tmp_path), "warp_speed = 9"),
                       (["gradcheck"], "dim = 4"),
                       (ablate, "variant = no_attention")):
        cfg.write_text(f"seed = 2\n{line}\n")
        assert run(argv + ["--config", str(cfg)]) == 2, line
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}:2: unknown key")
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("line", ["l2 = x", "variant = bogus"])
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
