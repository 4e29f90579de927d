import errno
import hashlib
import io
import json
import os
import random
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrrot import embeddings
from lcrrot import tensor as T
from lcrrot.corpus import Example
from lcrrot.embeddings import (CHUNK_LINES, COPY_SUFFIX, COPY_VERSION, EmbeddingTable,
                               load_pretrained)
from lcrrot.errors import FormatError
from lcrrot.evalreport import predict_all
from lcrrot.model import Dimensions, VariantConfig, forward, init_params


def test_load_basic_line():
    table = load_pretrained(io.StringIO("the 0.1 -0.2 0.3\n"), dim=3)
    np.testing.assert_array_equal(table.lookup("the"), [0.1, -0.2, 0.3])


def test_empty_stream_is_valid():
    table = load_pretrained(io.StringIO(""), dim=3)
    assert len(table) == 0


def test_wrong_value_count_names_line():
    stream = io.StringIO("the 0.1 0.2 0.3\ncat 0.1 0.2\n")
    with pytest.raises(FormatError, match="line 2"):
        load_pretrained(stream, dim=3)


def test_every_line_of_one_wrong_width_names_the_first():
    # numpy parses such a chunk without complaint; its width must still be checked
    with pytest.raises(FormatError, match="^line 1: expected 2 values, found 3"):
        load_pretrained(io.StringIO("the 0.1 0.2 0.3\ncat 0.1 0.2 0.3\n"), dim=2)


def test_unparsable_number():
    with pytest.raises(FormatError, match="line 1"):
        load_pretrained(io.StringIO("the 0.1 oops 0.3\n"), dim=3)


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_non_finite_value_names_line(value):
    with pytest.raises(FormatError, match="line 2"):
        load_pretrained(io.StringIO(f"the 0.1 0.2\nfood {value} 0\n"), dim=2)


def oracle_rows(text: str) -> dict:
    """The rows of a well-formed vector file by the line-by-line rules: split
    on whitespace, lowercase the token, ``float`` each value, keep the first
    occurrence of a token."""
    rows = {}
    for line in io.StringIO(text):
        parts = line.split()
        if parts:
            rows.setdefault(parts[0].lower(), np.array([float(x) for x in parts[1:]]))
    return rows


SPELLINGS = (
    repr,
    lambda v: "%.5f" % v,
    lambda v: "%.6e" % v,
    lambda v: "%.17E" % v,
    lambda v: "+" + repr(abs(v)),
    lambda v: f"{int(v * 1000):_}",  # float() reads "1_234"; numpy does not
)
SEPARATORS = (" ", "\t", "   ", " \t ", "\u00a0")
TOKENS = ("the", "The", "THE", "cat", "Cat", "Ünïcode", "ünïcode")


def vector_text(seed, dim, n_lines, underscores, crlf):
    """A well-formed vector file: blank lines, repeated and mixed-case tokens,
    varied separators and number spellings (``1_0`` if ``underscores``)."""
    rnd = random.Random(seed)  # one draw per file keeps a 1 000-line example cheap
    spellings = SPELLINGS if underscores else SPELLINGS[:-1]
    lines = []
    for i in range(n_lines):
        if rnd.random() < 0.03:
            lines.append(rnd.choice(("", "  ", "\t")))
            continue
        token = rnd.choice(TOKENS) if rnd.random() < 0.2 else f"w{i}"
        values = [rnd.choice(spellings)(rnd.uniform(-5, 5) * 10.0 ** rnd.randint(-8, 8))
                  for _ in range(dim)]
        sep = rnd.choice(SEPARATORS)
        lines.append(token + sep + sep.join(values) + rnd.choice(("", " ", "\t")))
    return "".join(line + ("\r\n" if crlf else "\n") for line in lines)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
       n_lines=st.integers(0, 2 * CHUNK_LINES + 40),
       underscores=st.booleans(), crlf=st.booleans())
def test_rows_match_the_line_by_line_rules(seed, dim, n_lines, underscores, crlf):
    text = vector_text(seed, dim, n_lines, underscores, crlf)
    expected = oracle_rows(text)
    table = load_pretrained(io.StringIO(text), dim=dim)
    assert list(table.rows) == list(expected)
    for token, row in expected.items():
        assert table.rows[token].dtype == np.float64
        assert table.rows[token].tobytes() == row.tobytes(), token


@pytest.mark.parametrize("then_another_fault", [False, True])
@pytest.mark.parametrize("bad,message", [
    ("0.5", "expected 2 values, found 1"),
    ("0.5 oops", "unparsable number"),
    ("nan 0.5", "non-finite value"),
    ("1e308 1e308", "non-finite value"),  # each value is finite, their sum is not
    ("inf -inf", "non-finite value"),
])
def test_bad_line_in_a_later_chunk_names_its_line(bad, message, then_another_fault):
    good = [f"w{i} 0.25 -1e3" for i in range(CHUNK_LINES + 20)]
    good[3] = ""  # blank lines count in the line numbers
    bad_at = CHUNK_LINES + 10  # 1-based, in the second chunk
    lines = (good[:bad_at - 1] + [f"food {bad}"] + ["wrong 1 2 3"] * then_another_fault
             + good[bad_at - 1:])
    with pytest.raises(FormatError, match=rf"^line {bad_at}: {message}"):
        load_pretrained(io.StringIO("\n".join(lines) + "\n"), dim=2)


@pytest.mark.parametrize("row", [
    # the left-to-right sum stays at the float maximum; the exact sum, which a
    # compensated sum (sum() from Python 3.12) approaches, lies beyond it
    "1.7976931348623157e308 6e291 6e291",
    "1.7976931348623157e308 1e292 -1e292",  # the left-to-right sum overflows
])
def test_chunk_and_line_paths_judge_a_row_near_the_float_maximum_alike(row):
    """A chunk numpy parses and a chunk it rejects (here for the "1_0" that
    only float() reads) apply one finiteness rule: a plain left-to-right sum."""
    outcomes = []
    for text in (f"big {row}\n", f"big {row}\nother 1_0 2 3\n"):
        try:
            outcomes.append(load_pretrained(io.StringIO(text), dim=3).lookup("big").tobytes())
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_spellings_only_float_reads_still_load():
    # underscores, Arabic-Indic digits and no-break spaces, as float() and str.split read them
    text = "a 1_0 2\nb\u00a01\u00a0\u00a02.5\nc \u0661\u0662 -0.0\n"
    table = load_pretrained(io.StringIO(text), dim=2)
    np.testing.assert_array_equal(table.lookup("a"), [10.0, 2.0])
    np.testing.assert_array_equal(table.lookup("b"), [1.0, 2.5])
    np.testing.assert_array_equal(table.lookup("c"), [12.0, -0.0])
    assert np.signbit(table.lookup("c")[1])
    assert not table.oov_log


def test_duplicate_tokens_keep_first():
    table = load_pretrained(io.StringIO("a 1 2\na 3 4\n"), dim=2)
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 2.0])


def test_lookup_is_lowercased():
    table = load_pretrained(io.StringIO("windows 1 2\n"), dim=2)
    np.testing.assert_array_equal(table.lookup("Windows"), [1.0, 2.0])
    assert not table.oov_log


def test_oov_repeat_returns_identical_row():
    table = EmbeddingTable(dim=4, seed=3)
    first = table.lookup("zzyzx")
    second = table.lookup("zzyzx")
    np.testing.assert_array_equal(first, second)
    assert "zzyzx" in table.oov_log


def test_oov_row_is_pinned():
    # every OOV row of every saved model hangs on the per-token blake2b seed
    row = EmbeddingTable(dim=4, seed=1).lookup("zzyzx")
    assert row.tobytes().hex() == ("32ff45992ff2b5bf301d2961acabb8bf"
                                   "7682f4d6b931b0bfb62eef542f8cb63f")


def test_oov_sequence_reproducible_and_bounded():
    # an OOV row depends on (seed, lowercased token), not on lookup order
    tokens = [f"tok{i}" for i in range(50)]
    forward = EmbeddingTable(dim=5, seed=11)
    rows = [forward.lookup(t) for t in tokens]
    backward = EmbeddingTable(dim=5, seed=11)
    reversed_rows = [backward.lookup(t.upper()) for t in reversed(tokens)][::-1]
    other_seed = EmbeddingTable(dim=5, seed=12)
    for token, a, b in zip(tokens, rows, reversed_rows):
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= -0.1) & (a <= 0.1))
        assert not np.array_equal(a, other_seed.lookup(token))


def test_returned_rows_are_copies():
    table = load_pretrained(io.StringIO("a 1 2\n"), dim=2)
    row = table.lookup("a")
    row[0] = 99.0
    np.testing.assert_array_equal(table.lookup("a"), [1.0, 2.0])


def test_embed_sequence_shapes():
    table = EmbeddingTable(dim=3, seed=0)
    assert table.embed_sequence([]).shape == (0, 3)
    assert table.embed_sequence(["a", "b"]).shape == (2, 3)


def test_empty_token_rejected():
    with pytest.raises(ValueError):
        EmbeddingTable(dim=3).lookup("")


def load_file(path, dim, encoding="utf-8", errors="strict"):
    """Load ``path`` as the CLI opens it; also say whether the text was parsed
    (the stream was read to its end) or the binary copy read (it was not read)."""
    with open(path, encoding=encoding, errors=errors) as fh:
        table = load_pretrained(fh, dim=dim, seed=5)
        return table, fh.read(1) == ""


def rows_bytes(table):
    return [(token, row.dtype.str, row.tobytes()) for token, row in table.rows.items()]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
       n_lines=st.integers(1, 2 * CHUNK_LINES + 40),
       underscores=st.booleans(), crlf=st.booleans())
def test_copy_gives_the_parsed_table(seed, dim, n_lines, underscores, crlf):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors.txt"
        path.write_bytes(vector_text(seed, dim, n_lines, underscores, crlf).encode("utf-8"))
        parsed, was_parsed = load_file(path, dim)
        assert was_parsed and Path(f"{path}{COPY_SUFFIX}").is_file()
        copied, was_parsed = load_file(path, dim)
        assert not was_parsed
        assert rows_bytes(copied) == rows_bytes(parsed)
        assert (copied.dim, copied.seed, copied.oov_log) == (parsed.dim, parsed.seed, set())
        # OOV draws, and the probabilities of a model reading both tables
        words = [*list(parsed.rows)[:6], "Zzyzx", "unseen", *[t.upper() for t in parsed.rows][:3]]
        examples = [Example(left=tuple(words[i:i + 3]), target=(words[i - 1],),
                            right=tuple(words[i + 1:i + 2]), label="neutral")
                    for i in range(len(words))]
        params = init_params(Dimensions(d=dim, d_h=2), VariantConfig(),
                             np.random.default_rng(seed))
        with T.no_grad():
            probs = [forward(examples, table, params, VariantConfig(), mode="eval").probs.data
                     for table in (parsed, copied)]
        assert probs[0].tobytes() == probs[1].tobytes()
        assert (predict_all(examples, parsed, params, VariantConfig())
                == predict_all(examples, copied, params, VariantConfig()))
        assert rows_bytes(copied) == rows_bytes(parsed)  # the same OOV rows, in order


def edit_copy(copy: Path, damage: str):
    header, rows = copy.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    if damage == "truncated":
        copy.write_bytes(header + b"\n" + rows[:-3])
    elif damage == "trailing_byte":
        copy.write_bytes(header + b"\n" + rows + b"\0")
    elif damage == "garbled_header":
        copy.write_bytes(b"\xff\xfe" + header[2:] + b"\n" + rows)
    elif damage == "garbled_row":  # a NaN in the second row
        copy.write_bytes(header + b"\n" + rows[:24] + b"\xff" * 8 + rows[32:])
    elif damage == "tokens_not_a_list":
        doc["tokens"] = "abc"  # as many characters as the file has rows
        copy.write_bytes(json.dumps(doc).encode() + b"\n" + rows)
    elif damage == "repeated_token":
        doc["tokens"][1] = doc["tokens"][0]
        copy.write_bytes(json.dumps(doc).encode() + b"\n" + rows)
    else:  # another version, digest or dim, with the same rows
        key = {"other_version": "format_version", "other_digest": "digest",
               "other_dim": "dim"}[damage]
        doc[key] = {"format_version": COPY_VERSION + 1, "digest": "0" * 64, "dim": 1}[key]
        copy.write_bytes(json.dumps(doc).encode() + b"\n" + rows)


TEXT = "a 1.5 2\nB 3 4\nc 1_0 -0.5\na 7 8\n"  # 3 tokens, 2 values each


@pytest.mark.parametrize("damage", ["edited_same_size", "truncated", "trailing_byte",
                                    "garbled_header", "garbled_row", "tokens_not_a_list",
                                    "repeated_token", "other_version", "other_digest",
                                    "other_dim"])
def test_copy_that_does_not_fit_is_parsed_again_and_rewritten(tmp_path, damage):
    path, copy = tmp_path / "vectors.txt", tmp_path / f"vectors.txt{COPY_SUFFIX}"
    path.write_text(TEXT, encoding="utf-8")
    load_file(path, 2)
    if damage == "edited_same_size":  # one digit changed, the mtime put back
        st = path.stat()
        path.write_text(TEXT.replace("3 4", "3 5"), encoding="utf-8")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert path.stat().st_mtime_ns == st.st_mtime_ns and path.stat().st_size == st.st_size
    else:
        edit_copy(copy, damage)
    table, was_parsed = load_file(path, 2)
    assert was_parsed
    assert rows_bytes(table) == rows_bytes(load_pretrained(io.StringIO(path.read_text()), 2))
    again, was_parsed = load_file(path, 2)
    assert not was_parsed and rows_bytes(again) == rows_bytes(table)


def test_version_1_copy_is_parsed_again_and_rewritten(tmp_path):
    """A copy as the version-1 loader wrote it, with a blake2b digest, is not
    read: the file is parsed and the copy rewritten with its sha256 digest."""
    path, copy = tmp_path / "vectors.txt", tmp_path / f"vectors.txt{COPY_SUFFIX}"
    path.write_text(TEXT, encoding="utf-8")
    parsed = load_pretrained(io.StringIO(TEXT), 2)
    copy.write_bytes(json.dumps({"format_version": 1,
                                 "digest": hashlib.blake2b(path.read_bytes()).hexdigest(),
                                 "dim": 2, "tokens": list(parsed.rows)}).encode()
                     + b"\n" + b"".join(np.asarray(r, "<f8").tobytes()
                                        for r in parsed.rows.values()))
    table, was_parsed = load_file(path, 2)
    assert was_parsed and rows_bytes(table) == rows_bytes(parsed)
    doc = json.loads(copy.read_bytes().split(b"\n", 1)[0])
    assert (doc["format_version"], doc["digest"]) == (
        COPY_VERSION, hashlib.sha256(path.read_bytes()).hexdigest())
    again, was_parsed = load_file(path, 2)
    assert not was_parsed and rows_bytes(again) == rows_bytes(parsed)


@pytest.mark.parametrize("size", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1, (3 << 20) + 1])
def test_copy_digest_is_the_sha256_of_the_file_at_block_boundaries(tmp_path, size):
    path = tmp_path / "vectors.txt"
    last = "z 1 2"  # its trailing blanks pad the file to ``size`` bytes
    path.write_text(TEXT + last + " " * (size - len(TEXT) - len(last) - 1) + "\n",
                    encoding="utf-8")
    assert path.stat().st_size == size
    load_file(path, 2)
    doc = json.loads((tmp_path / f"vectors.txt{COPY_SUFFIX}").read_bytes().split(b"\n", 1)[0])
    assert doc["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_other_dim_is_parsed(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(TEXT, encoding="utf-8")
    load_file(path, 2)
    with pytest.raises(FormatError, match="^line 1: expected 3 values, found 2"):
        load_file(path, 3)


@pytest.fixture
def refuse_writes(monkeypatch):
    """Make the module's ``open`` refuse to create files, as a read-only
    directory does (the tests may run as root, who may write anywhere)."""
    def guarded_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(errno.EACCES, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(embeddings, "open", guarded_open, raising=False)


@pytest.fixture
def full_disk(monkeypatch):
    """Make every file the module writes fail at its first write, after it
    was created, as a full disk does."""
    class Full(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_open(file, mode="r", *args, **kwargs):
        return Full(file, "w") if "w" in mode else open(file, mode, *args, **kwargs)

    monkeypatch.setattr(embeddings, "open", full_open, raising=False)


@pytest.mark.parametrize("source", ["read_only_dir", "full_disk", "string_io", "latin_1",
                                    "not_at_start", "replace_errors", "pipe"])
def test_streams_that_get_no_copy(tmp_path, request, source):
    path = tmp_path / "vectors.txt"
    path.write_text(TEXT, encoding="utf-8")
    expected = rows_bytes(load_pretrained(io.StringIO(TEXT), 2))
    if source in ("read_only_dir", "full_disk"):
        request.getfixturevalue("refuse_writes" if source == "read_only_dir" else "full_disk")
        for _ in range(2):
            table, was_parsed = load_file(path, 2)
            assert was_parsed and rows_bytes(table) == expected
    elif source == "string_io":
        assert rows_bytes(load_pretrained(io.StringIO(TEXT), 2)) == expected
    elif source in ("latin_1", "replace_errors"):
        kwargs = {"encoding": "latin-1"} if source == "latin_1" else {"errors": "replace"}
        table, was_parsed = load_file(path, 2, **kwargs)
        assert was_parsed and rows_bytes(table) == expected
    elif source == "not_at_start":
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            table = load_pretrained(fh, 2)
        assert rows_bytes(table) == rows_bytes(
            load_pretrained(io.StringIO(TEXT.split("\n", 1)[1]), 2))
    else:
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=lambda: os.write(write_end, TEXT.encode()))
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive()
        os.close(write_end)
        with open(read_end, encoding="utf-8") as fh:
            assert rows_bytes(load_pretrained(fh, 2)) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt"]


def test_malformed_file_names_its_line_and_gets_no_copy(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(TEXT + "d 1 oops\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^line 5: unparsable number"):
        load_file(path, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt"]


def test_file_changed_during_the_parse_gets_no_copy(tmp_path, monkeypatch):
    """The copy must hold the bytes that were hashed: a file written to while
    it is parsed (here, when numpy parses its first chunk) gets none."""
    path = tmp_path / "vectors.txt"
    path.write_text(TEXT, encoding="utf-8")
    real_loadtxt = np.loadtxt

    def append_then_parse(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("e 1 2\n")
        return real_loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", append_then_parse)
    load_file(path, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt"]
