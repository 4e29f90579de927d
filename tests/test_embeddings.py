import io

import numpy as np
import pytest

from lcrrot.embeddings import EmbeddingTable, load_pretrained
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


def test_unparsable_number():
    with pytest.raises(FormatError, match="line 1"):
        load_pretrained(io.StringIO("the 0.1 oops 0.3\n"), dim=3)


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_non_finite_value_names_line(value):
    with pytest.raises(FormatError, match="line 2"):
        load_pretrained(io.StringIO(f"the 0.1 0.2\nfood {value} 0\n"), dim=2)


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
