"""Atomic file output shared by the library and the CLI, and the
array kernel that writes floats as '%.17g' text."""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import numpy as np

from .errors import PreconditionError


@contextmanager
def atomic_open(path):
    """Open a temp file beside `path` for writing bytes and rename it over
    `path` when the block ends without error, so readers never see a
    partial file; the file gets the mode of a plain open.  A temp file
    that cannot be made there, in a directory that does not exist say,
    raises PreconditionError."""
    # a random name, opened with O_EXCL: a new file, never one that exists
    # or a link; 0o666 is masked by the umask, as in a plain open
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
    except OSError as e:
        raise PreconditionError(f"cannot write {path}: {e.strerror}") from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# '%.17g' on arrays.  A finite x != 0 has 17 significant digits
# D = round(|x| 10^(16-E)), an integer in [10^16, 10^17), and a decimal
# exponent E.  '%.17g' writes d.ddd...e-XX when E < -4 or E > 16, and the
# fixed-point decimal otherwise, in both cases with the trailing zeros of the
# fraction, and a point left with no digits after it, removed.
#
# Each value gets a 32-byte slot of four little-endian words, and NUL marks
# every byte not written; one bytes.translate drops them all:
#   word 0: sign, "0." and up to three zeros when -4 <= E < 0, NUL, digit 0
#   words 1, 2: digits 1-8 and 9-16, with the point inserted after the
#     first k digits: every later digit moves up one byte
#   word 3: digit 16 when it moved, "e-XX" or "e+XXX", the separator

#: the |x| of the fast path; the products of `_scaled` neither overflow nor
#: underflow in it
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
#: a scaled value whose fraction lies this close to 1/2 goes through '%'
_TIE_WINDOW = 2.0**-20
#: the powers 10^p that the fast path reads: p = 16 - E for E in [-252, 251]
_P10_MIN, _P10_MAX = -235, 268
#: the exponents that the word tables cover, -_E_SPAN to _E_SPAN
_E_SPAN = 256
#: values per kernel pass; its temporaries stay at 32 KB each, which the
#: allocator reuses, where larger ones are returned to the system and
#: faulted in again on every pass
_CHUNK = 4096


def _split(v):
    """Dekker's split of v into a high part of 26 bits and the rest."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """The read-only tables of the kernel, built on first use (about 2 ms)."""
    # 10^p = h + l to about 2^-107 relative: h is 10^p rounded, l the rest
    # rounded; Python's int to float conversion and int / int division round
    # correctly
    h, l = [], []
    d = 1
    for _ in range(-_P10_MIN):
        d *= 10
        hd = 1 / d
        num, den = hd.as_integer_ratio()
        h.append(hd)
        l.append((den - num * d) / (den * d))
    h.reverse()
    l.reverse()
    v = 1
    for _ in range(_P10_MAX + 1):
        hv = float(v)
        h.append(hv)
        l.append(float(v - int(hv)))
        v *= 10
    h, l = np.array(h), np.array(l)
    p10 = (h, l, *_split(h))
    # the four ASCII digits of 0..9999 as a word, and their trailing zeros
    # (4 for 0)
    v = np.arange(10000, dtype=np.uint64)
    t4 = (v // 1000 + 48) | (v // 100 % 10 + 48) << 8
    t4 |= (v // 10 % 10 + 48) << 16 | (v % 10 + 48) << 24
    tz4 = (v % 10 == 0).astype(np.int64) + (v % 100 == 0) + (v % 1000 == 0) + (v == 0)
    # mask[j][m]: the bytes of word j+1 that the first m digits fill;
    # dot[j][m]: the point after digit m-1, in word j+1, before the move
    mask, dot = [], []
    for first in (1, 9):
        span = [min(max(m - first, 0), 8) for m in range(18)]
        mask.append(np.array([(1 << 8 * b) - 1 for b in span], np.uint64))
        dot.append(np.array(
            [_word(b"\0" * (m - first) + b".") if 0 <= m - first < 8 else 0 for m in range(18)],
            np.uint64,
        ))
    # by exponent E: the words of "0.000", "e-XX", and k, the digits before
    # the point (k0; k1 = 17 when no point goes among the digits)
    e = np.arange(-_E_SPAN, _E_SPAN + 1)
    sci = (e < -4) | (e > 16)
    k0 = np.where(sci, 1, np.maximum(e + 1, 0))
    k1 = np.where(k0 == 0, 17, k0)
    pre = np.zeros(len(e), np.uint64)
    for x in range(-4, 0):
        pre[x + _E_SPAN] = _word(b"\0" + b"0." + b"0" * (-x - 1))
    # "e-XX" or "e+XXX" in bytes 1-5 of word 3, where E is written so
    mag = np.abs(e)
    three = mag >= 100
    text = np.zeros((len(e), 8), np.uint8)
    text[:, 1] = ord("e")
    text[:, 2] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 3] = np.where(three, mag // 100, mag // 10) + 48
    text[:, 4] = np.where(three, mag // 10 % 10, mag % 10) + 48
    text[:, 5] = np.where(three, mag % 10 + 48, 0)
    text[~sci] = 0
    exp = text.view("<u8").ravel()
    for table in (*p10, t4, tz4, *mask, *dot, pre, exp, k0, k1):
        table.flags.writeable = False
    return p10, t4, tz4, mask, dot, pre, exp, k0, k1


def _scaled(a, e, p10):
    """floor(a 10^(16-e)) as int64, and the fraction above it.

    Error.  With p = 16 - e and z = a 10^p, the table gives
    10^p = h + l + eps, |eps| <= 2^-107 10^p.  Dekker's two-product makes
    a h = P + err exactly (no operand or partial product leaves the normal
    range for a in the fast range); t = fl(a l) is off by at most
    2^-53 |a l| <= 2^-106 z, and s = fl(err + t) by at most 2^-53 |err + t|
    <= 2^-105 z, since |err| and |t| are each at most 2^-53 z.  So
    |P + s - z| <= 7 * 2^-107 z < 2^-104 z, below 2^-47 for z < 2^57 (and
    2^-44 for the z < 10^18 of a pass with e one too small).  P >= 2^53 is an
    integer whenever z >= 10^16, and s - floor(s) is off by at most 2^-53, so
    the fraction returned is that of z to within 2^-46: whenever it is
    2^-20 or more away from 1/2, rounding to nearest reads it correctly.
    """
    i = 16 - _P10_MIN - e
    h, l, hh, hl = (t.take(i) for t in p10)
    ah, al = _split(a)
    p = a * h
    s = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * l
    fl = np.floor(s)
    return p.astype(np.int64) + fl.astype(np.int64), s - fl


def format_17g(block: np.ndarray) -> bytes:
    """The ASCII text of an (r, c) float block with each value written as
    '%.17g' writes it: the values of a row separated by commas, each row
    ending in a newline.  Byte for byte the text of
    `(('%.17g,' * (c - 1) + '%.17g\\n') * r) % tuple(block.ravel())`.

    Values are formatted 4096 at a time.  Non-finite values, |x| outside
    [1e-250, 1e250] and values whose 17th digit is a near-tie are written
    by '%' itself."""
    r, c = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    words = np.empty((len(x), 4), "<u8")
    step = max(1, _CHUNK // c) * c
    for lo in range(0, len(x), step):
        fill_words(x[lo : lo + step], c, words[lo : lo + step])
    return words_text(words)


def words_text(words: np.ndarray) -> bytes:
    """The text of filled slots, in their order: every NUL byte dropped."""
    return words.tobytes().translate(None, b"\0")


def fill_words(x, c, words) -> None:
    """Write the '%.17g' slots of the values x, read as rows of c, into
    words (len(x), 4): a value ends in ',', the last of a row in '\\n'.
    words may be a strided view whose rows are 4 contiguous words."""
    p10, t4, tz4, mask, dot, pre, exp, k0, k1 = _tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # False for nan
    a[~fast] = 1.0  # the other lanes compute a placeholder
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int64)
    d, frac = _scaled(a, e, p10)
    # floor(log10) can miss by one next to a power of ten: D outside
    # [10^16, 10^17), read as the unsigned D - 10^16 at or above 9 * 10^16
    off = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
    if len(off):
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], frac[off] = _scaled(a[off], e[off], p10)
        fast[off] &= (d[off] - 10**16).view(np.uint64) < 9 * 10**16
    fast &= np.abs(frac - 0.5) >= _TIE_WINDOW
    d += frac > 0.5
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    e[carry] += 1
    d[zero] = 0
    e[zero] = 0
    # the digits: d0, then four groups of four
    d0 = d // 10**16
    rest = d - d0 * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g1 = hi8 // 10**4
    g2 = hi8 - g1 * 10**4
    g3 = lo8 // 10**4
    g4 = lo8 - g3 * 10**4
    tz = tz4.take(g2) + (g2 == 0) * tz4.take(g1)
    tz = tz4.take(g4) + (g4 == 0) * (tz4.take(g3) + (g3 == 0) * tz)
    ie = e + _E_SPAN
    keep = np.maximum(17 - tz, k0.take(ie))  # digits written
    k = k1.take(ie)
    k = np.where(keep > k, k, 17)  # the point goes after digit k - 1
    w1 = (t4.take(g1) | (t4.take(g2) << 32)) & mask[0].take(keep)
    w2 = (t4.take(g3) | (t4.take(g4) << 32)) & mask[1].take(keep)
    # lo: the digits before the point; hi: those after it, moved up a byte
    lo1 = w1 & mask[0].take(k)
    lo2 = w2 & mask[1].take(k)
    hi1 = w1 ^ lo1
    hi2 = w2 ^ lo2
    sign = (x.view(np.uint64) >> 63) * ord("-")
    words[:, 0] = sign | pre.take(ie) | ((d0 + 48).astype(np.uint64) << 56)
    words[:, 1] = lo1 | (hi1 << 8) | dot[0].take(k)
    words[:, 2] = lo2 | (hi2 << 8) | (hi1 >> 56) | dot[1].take(k)
    sep = np.full(c, ord(","), np.uint64)
    sep[-1] = ord("\n")
    words[:, 3] = (((hi2 >> 56) | exp.take(ie)).reshape(-1, c) | (sep << 48)).ravel()
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        slots = words.view(np.uint8)
        for i in slow.tolist():
            text = ("%.17g" % x[i]).encode() + (b"\n" if i % c == c - 1 else b",")
            slots[i] = 0
            slots[i, : len(text)] = np.frombuffer(text, np.uint8)
