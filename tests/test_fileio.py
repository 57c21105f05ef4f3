"""The array kernel that writes '%.17g' text, against '%' itself."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketfif.errors import PreconditionError
from gasketfif.fileio import atomic_open, fill_words, format_17g, words_text


def percent_text(block):
    """What '%' writes: one '%.17g' per value, commas, a newline per row."""
    r, c = block.shape
    row = ",".join(["%.17g"] * c) + "\n"
    return ((row * r) % tuple(block.ravel().tolist())).encode("ascii")


def _edge_values():
    tiny = np.nextafter(0.0, 1.0)
    values = [
        0.0, -0.0, 1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5,
        1e-4, 1e-5,  # where '%.17g' switches notation
        1 + 2**-17,  # 1.00000762939453125: a tie at the 17th digit
        # subnormals and the smallest normal float
        tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
        np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan,
        1e250, -1e250, 1e-250, -1e-250, 2.0**53, 2.0**53 + 2, 0.5, 1.0, 100.0, 120.0,
    ]
    # more ties: j 2^-17 has 17 decimals, so 2^s (1 + j 2^-17) ends in a 5
    values += [2.0**s * (1 + j * 2**-17) for j in range(1, 40, 2) for s in (-3, 0, 4)]
    for p in range(-323, 309):
        v = float(f"1e{p}")
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), -v]
    for v in (1e250, 1e-250):  # both ends of the fast range
        values += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    return np.array(values)


EDGE = _edge_values()


@pytest.mark.parametrize("cols", [1, 5])
def test_edge_values(cols):
    block = EDGE[: len(EDGE) // cols * cols].reshape(-1, cols)
    assert format_17g(block) == percent_text(block)


def test_many_bit_patterns_across_chunks():
    # more values than one kernel pass holds, from every exponent
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64, endpoint=False)
    block = bits.view(np.float64).reshape(-1, 5)
    assert format_17g(block) == percent_text(block)
    plain = rng.standard_normal(60_000) * 10.0 ** rng.integers(-8, 20, 60_000)
    block = plain.reshape(-1, 5)
    assert format_17g(block) == percent_text(block)


@st.composite
def float_blocks(draw):
    cols = draw(st.sampled_from([1, 5]))
    rows = draw(st.integers(1, 12))
    value = st.one_of(
        st.integers(0, 2**64 - 1).map(lambda w: np.array(w, np.uint64).view(np.float64).item()),
        st.floats(),
    )
    values = draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(float_blocks())
def test_bytes_equal_percent_text(block):
    assert format_17g(block) == percent_text(block)


def test_non_contiguous_block():
    block = np.arange(1.0, 41.0).reshape(8, 5) / 7.0
    part = block[::2, ::2]
    assert format_17g(part) == percent_text(part)


def test_fill_words_into_one_column_of_slots():
    # as the grid CSV does: the slots of rows of 5 filled, then column 4
    # filled again in place, as rows of 1, through a strided view; the
    # edge values send some of it through the '%' fallback
    block = EDGE[: len(EDGE) // 5 * 5].reshape(-1, 5)
    words = np.empty((len(block), 5, 4), "<u8")
    fill_words(block.ravel(), 5, words.reshape(-1, 4))
    words[:, 4] = 0xFF
    fill_words(block[:, 4].copy(), 1, words[:, 4])
    assert words_text(words) == percent_text(block)


def test_tables_built_on_first_use():
    # importing the CLI builds nothing; the tables wait for the first CSV
    code = (
        "import gasketfif.cli; from gasketfif import fileio; "
        "print(fileio._tables.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_atomic_open_in_a_missing_directory(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(PreconditionError, match="No such file or directory"):
        with atomic_open(path) as fh:
            fh.write(b"never")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_open_mode_follows_the_umask(tmp_path, umask, mode):
    # the mode of a plain open, 0o666 less the umask, not mkstemp's 0o600
    old = os.umask(umask)
    try:
        with atomic_open(tmp_path / "x.csv") as fh:
            fh.write(b"1\n")
        with open(tmp_path / "plain.csv", "wb"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "x.csv").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "x.csv"]
