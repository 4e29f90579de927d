import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcrrot.embeddings import CHUNK_LINES, EmbeddingTable, load_pretrained
from lcrrot.errors import FormatError


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5),
       n_lines=st.integers(0, 2 * CHUNK_LINES + 40),
       underscores=st.booleans(), crlf=st.booleans())
def test_rows_match_the_line_by_line_rules(seed, dim, n_lines, underscores, crlf):
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
    text = "".join(line + ("\r\n" if crlf else "\n") for line in lines)
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
