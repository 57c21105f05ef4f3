"""Geometry of a single Sierpinski gasket.

Words over the letters 1,2,3 select nested cells of the gasket; an address
(word plus a terminal corner) names a vertex.  Vertex identity is decided
with exact dyadic barycentric arithmetic so that touching points shared by
two cells deduplicate reliably, independent of floating point noise.
Arbitrary points are located by a barycentric descent (`locate_many`),
exact in floating point after the first step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError

LETTERS = (1, 2, 3)

#: hull gate: how far (in barycentric units) a point may lie outside the
#: outer triangle, or outside the cell of `word_map_inverse`, and still be
#: taken as inside it.  The descent below the hull does not use it; see
#: `locate_many`.
SNAP_TOL = 1e-9

#: starting snap window of a descent per unit of bary_f's rounding scale:
#: 8 ulp of 1.0 (a float64 mantissa has 53 bits, so eps = 2^-52)
_WINDOW_ULPS = 8.0 * 2.0**-52

#: Deepest descent that float input can resolve.  The snap window starts
#: at 8 eps S plus twice the residual of the float barycentric map, where
#: S = max_i(|a_i0 x| + |a_i1 y| + |a_i2|) is bary_f's rounding scale at
#: the point.  On the unit gasket S <= 2 and the residual is below 1e-16,
#: so the window starts near 8 * 2^-52 * 2 = 2^-48.  It doubles per level,
#: to about 2^-4 of a cell after 44 levels; deeper, a window that is a
#: sizeable part of a cell can pass a neighbouring cell off as the
#: point's own.
MAX_DESCENT_DEPTH = 44

#: Largest snap window a descent may reach, in barycentric units of the
#: cell.  Twice the unit gasket's window at MAX_DESCENT_DEPTH, so it only
#: binds on gaskets whose coordinates are large against their size (far
#: from the origin), whose float points resolve fewer levels.
MAX_WINDOW = 2.0**-3

#: largest subdivision depth enumerate_vertices will attempt
MAX_ENUM_DEPTH = 8


@dataclass(frozen=True)
class Address:
    """Symbolic coordinate of a gasket vertex: the point L_word(p_corner).

    Serialized as ``"12@3"`` (word "12", corner 3); the empty word prints
    as ``"@3"``.
    """

    word: str = ""
    corner: int = 1

    def __post_init__(self):
        if self.corner not in LETTERS:
            raise ValueError(f"corner must be 1, 2 or 3, got {self.corner!r}")
        if any(ch not in "123" for ch in self.word):
            raise ValueError(f"word may only contain letters 1,2,3: {self.word!r}")

    def __str__(self):
        return f"{self.word}@{self.corner}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        word, sep, corner = text.partition("@")
        if not sep or not corner:
            raise ValueError(f"address must look like 'word@corner': {text!r}")
        try:
            c = int(corner)
        except ValueError:
            raise ValueError(f"bad corner in address {text!r}") from None
        return cls(word, c)


@dataclass(frozen=True)
class GasketSpec:
    """The three outer corner points of one gasket; by default the unit
    equilateral triangle with its base on the x-axis."""

    corners: tuple = (
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, math.sqrt(3.0) / 2.0),
    )

    def __post_init__(self):
        if len(self.corners) != 3 or any(len(p) != 2 for p in self.corners):
            raise ValueError("corners must be three (x, y) pairs")
        if not np.isfinite([*self.corner_array.flat, *self.side_lengths]).all():
            raise ValueError(f"corners and side lengths must be finite: {self.corners}")
        (x1, y1), (x2, y2), (x3, y3) = self.corners
        area2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if not abs(area2) >= 1e-14:  # also refuses an area that overflows to NaN
            raise ValueError("corner points are (nearly) collinear")

    @cached_property
    def corner_array(self) -> np.ndarray:
        return np.asarray(self.corners, dtype=float)

    @cached_property
    def side_lengths(self) -> tuple:
        p = self.corner_array
        with np.errstate(over="ignore"):  # an overflow is refused as inf
            return (
                float(np.linalg.norm(p[0] - p[1])),
                float(np.linalg.norm(p[1] - p[2])),
                float(np.linalg.norm(p[2] - p[0])),
            )

    @cached_property
    def side(self) -> float:
        return max(self.side_lengths)

    @cached_property
    def min_side(self) -> float:
        return min(self.side_lengths)

    @cached_property
    def _bary_inv(self) -> tuple:
        # inverse of [[x1,x2,x3],[y1,y2,y3],[1,1,1]], flattened row-major
        m = np.vstack([self.corner_array.T, np.ones(3)])
        inv = np.linalg.inv(m)
        return tuple(float(v) for v in inv.ravel())

    @cached_property
    def _hull_window(self) -> float:
        """The largest `_window_start` on the hull: the rounding scale is
        convex, so it peaks at a corner (SNAP_TOL outside, by a factor
        1 + 6 SNAP_TOL at most, well inside the window's margin of 2)."""
        return max(_window_start(self, x, y) for x, y in self.corners)

    @cached_property
    def _bary_residual(self) -> float:
        """Largest row sum of |A M - I|, in exact arithmetic, for the float
        inverse A of the corner matrix M: bary_f's error on top of its
        rounding, worth up to this much in a coordinate of a hull point."""
        a = [Fraction(v) for v in self._bary_inv]
        m = [[Fraction(p[r]) for p in self.corners] for r in (0, 1)] + [[Fraction(1)] * 3]
        rows = (
            sum(abs(sum(a[3 * i + r] * m[r][j] for r in range(3)) - (i == j)) for j in range(3))
            for i in range(3)
        )
        return float(max(rows))

    @cached_property
    def _descent_coeffs(self) -> tuple:
        """What `_descent_start` reads: bary_f's nine coefficients and
        twice the residual, ten Python floats."""
        return (*self._bary_inv, 2.0 * self._bary_residual)


def _affine_rows(a: tuple, x, y, absolute: bool, out=None, scratch=None) -> np.ndarray:
    """Row i of `out`, i = 0, 1, 2: (a[3i] x + a[3i+1] y) + a[3i+2] on the
    (P,) arrays x and y, each term in absolute value when `absolute`.  The
    float operations of that expression, in its order, written in place
    into the (3, P) `out` with the (P,) `scratch`, new arrays when None."""
    if out is None:
        out = np.empty((3, len(x)))
    if scratch is None:
        scratch = np.empty(len(x))
    with np.errstate(invalid="ignore", over="ignore"):  # as floats: inf * 0 is NaN
        for i, row in enumerate(out):
            np.multiply(a[3 * i], x, out=row)
            np.multiply(a[3 * i + 1], y, out=scratch)
            c = a[3 * i + 2]
            if absolute:
                np.abs(row, out=row)
                np.abs(scratch, out=scratch)
                c = abs(c)
            row += scratch
            row += c
    return out


def bary_f(spec: GasketSpec, x, y, out=None, scratch=None):
    """Barycentric coordinates of (x, y) w.r.t. the outer triangle: three
    floats for floats x, y; for (P,) arrays, a (3, P) array, written into
    `out` with the (P,) `scratch` row when they are given."""
    if np.ndim(x) == 0:
        return tuple(bary_f(spec, [x], [y])[:, 0].tolist())
    return _affine_rows(spec._bary_inv, x, y, False, out, scratch)


def address_numerators(a: Address, depth: int):
    """The barycentric coordinates of L_w(p_c), a = (w, c), as integer
    numerators over 2^depth: sum_k 2^(depth-k) e_{w_k} + 2^(depth-|w|) e_c.
    None when they are not integers: L_wc(p_c) = L_w(p_c), and once w
    ends in another letter L_w(p_c) is a vertex of level |w| and of no
    coarser one."""
    w = a.word.rstrip(str(a.corner))
    if len(w) > depth:
        return None
    nums = [0, 0, 0]
    for k, ch in enumerate(w, start=1):
        nums[int(ch) - 1] += 1 << (depth - k)
    nums[a.corner - 1] += 1 << (depth - len(w))
    return nums


def address_bary(a: Address) -> np.ndarray:
    """Barycentric coordinates of L_w(p_c) for the address a = (w, c), the
    same on every gasket: `address_numerators` over 2^|w|, rounded once,
    so exact for words of up to 52 letters."""
    m = len(a.word)
    return np.array([v / 2**m for v in address_numerators(a, m)])


def address_point(spec: GasketSpec, a: Address) -> np.ndarray:
    return address_bary(a) @ spec.corner_array


def word_map_inverse(spec: GasketSpec, w: str, t, tol: float = SNAP_TOL) -> np.ndarray:
    """Invert L_w on its image cell; raises DomainError off the cell."""
    scale = 2.0 ** len(w)
    # L_w maps lam to lam / scale + address_bary((w, 1)) - e_1 / scale
    lam = (np.array(bary_f(spec, float(t[0]), float(t[1]))) - address_bary(Address(w, 1))) * scale
    lam[0] += 1.0
    # the snap tolerance is relative to the cell size, hence scaled by 2^|w|
    if lam.min() < -tol * scale:
        raise DomainError(f"point {tuple(t)} is not in the cell of word {w!r}")
    return lam @ spec.corner_array


def canonicalize(a: Address) -> Address:
    """Unique representative of a geometric vertex.

    Trailing word letters equal to the corner are dropped (L_{wv}(p_v) =
    L_w(p_v)); then, at a touching point, the lexicographically smaller of
    the two representations (w.l, v) and (w.v, l) is chosen.
    """
    w, c = a.word, a.corner
    cl = str(c)
    while w and w[-1] == cl:
        w = w[:-1]
    if w:
        alt_w = w[:-1] + cl
        alt_c = int(w[-1])
        if (alt_w, alt_c) < (w, c):
            w, c = alt_w, alt_c
    return Address(w, c)


def words_of_length(n: int) -> list:
    """The 3^n words of length n, in lexicographic order."""
    return ["".join(p) for p in itertools.product("123", repeat=n)]


def vertex_count(m: int) -> int:
    """Number of distinct gasket vertices of level m, 3(3^m + 1)/2."""
    return 3 * (3**m + 1) // 2


def enumerate_vertices(m: int) -> list:
    """All distinct gasket vertices {L_w(p_i): |w| = m}, canonical, sorted.

    The count is vertex_count(m).  `canonicalize` gives each point one
    address, so the canonical addresses deduplicate the points exactly.
    """
    if m < 0:
        raise ValueError("depth must be non-negative")
    if m > MAX_ENUM_DEPTH:
        raise CapacityError(f"vertex enumeration supports depth <= {MAX_ENUM_DEPTH}")
    seen = {
        canonicalize(Address("".join(letters), corner))
        for letters in itertools.product("123", repeat=m)
        for corner in LETTERS
    }
    return sorted(seen, key=lambda a: (len(a.word), a.word, a.corner))


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if depth > MAX_DESCENT_DEPTH:
        raise PreconditionError(
            f"depth {depth} exceeds {MAX_DESCENT_DEPTH}, the deepest descent "
            "that float input can resolve"
        )


def _window_start(spec: GasketSpec, x, y, out=None, scratch=None):
    """Starting snap window of a descent from the point (x, y): 8 ulp of
    bary_f's rounding scale S = max_i(|a_i0 x| + |a_i1 y| + |a_i2|) plus
    twice the float inverse's residual.  bary_f's rounding error in
    coordinate i is a few ulp of row i's sum, and so is the error that
    the rounding of x and y carries into it; so half the window bounds,
    in every coordinate, how far bary_f(x, y) lies from the exact
    barycentrics of any point that rounds to (x, y).

    A float for floats x, y; for (P,) arrays, a (P,) array: row 0 of the
    (3, P) work rows `out`, with the (P,) `scratch`, when they are given.
    """
    if np.ndim(x) == 0:
        return _window_start(spec, [x], [y]).item()
    peak, r1, r2 = _affine_rows(spec._bary_inv, x, y, True, out, scratch)
    # max of the rows as Python compares: NaN when row 0 is, else the largest number
    np.fmax(r1, r2, out=r1)
    np.fmax(r1, peak, out=r1)
    np.maximum(peak, r1, out=peak)
    peak *= _WINDOW_ULPS
    peak += 2.0 * spec._bary_residual
    return peak


def _window_error(t, depth: int) -> PreconditionError:
    return PreconditionError(
        f"point {tuple(t)} cannot be resolved to depth {depth} in float: the "
        "gasket's coordinates are too large against its size"
    )


def _descent_start(coeffs: tuple, t, depth: int) -> tuple:
    """The gates of a descent of t to `depth`, before its first letter, on
    the gasket of `coeffs`, its `GasketSpec._descent_coeffs`: the gates of
    `locate_many` for one point, for eval_approx's scalar loop.

    Returns (l0, l1, l2, neg): lam = bary_f(t) and neg = -eff, the
    negated starting window (`_window_start`).  Both are written out here
    on the unpacked coefficients, with the float operations of `bary_f`
    and `_window_start` in their order and the comparisons of `min` and
    `max`, so they are the same bits, NaN included, at no call's cost.
    Raises DomainError outside the hull (by SNAP_TOL), PreconditionError
    for a window that would exceed MAX_WINDOW, and DomainError at depth 1
    when a coordinate lies below -eff: the hull gate admits coordinates
    down to -SNAP_TOL, far below the window, and no letter accepts them.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, residual2 = coeffs
    x, y = float(t[0]), float(t[1])
    l0 = a0 * x + a1 * y + a2
    l1 = a3 * x + a4 * y + a5
    l2 = a6 * x + a7 * y + a8
    low = l0
    if l1 < low:
        low = l1
    if l2 < low:
        low = l2
    if low < -SNAP_TOL:
        raise _hull_error(t)
    peak = abs(a0 * x) + abs(a1 * y) + abs(a2)
    row = abs(a3 * x) + abs(a4 * y) + abs(a5)
    if row > peak:
        peak = row
    row = abs(a6 * x) + abs(a7 * y) + abs(a8)
    if row > peak:
        peak = row
    eff = _WINDOW_ULPS * peak + residual2
    if eff * 2.0**depth > MAX_WINDOW:
        raise _window_error(t, depth)
    neg = -eff
    if not (l0 >= neg and l1 >= neg and l2 >= neg):
        raise _hole_error(t, 1)
    return l0, l1, l2, neg


def _hole_error(t, depth: int) -> DomainError:
    return DomainError(f"point {tuple(t)} is not on the gasket at depth {depth}")


def _hull_error(t) -> DomainError:
    return DomainError(f"point {tuple(t)} lies outside the gasket hull")


def locate(spec: GasketSpec, t, depth: int) -> str:
    """Word of length `depth` whose cell contains the point t: the letters
    of ``locate_many(spec, (t,), depth)``, with its errors."""
    return "".join(map(str, locate_many(spec, (t,), depth)[0].tolist()))


def locate_many(spec: GasketSpec, pts, depth: int) -> np.ndarray:
    """Letters (1, 2 or 3) of the depth-`depth` cell of every row of the
    (P, 2) points `pts`, as a (P, depth) int8 array, each level's letters
    contiguous.

    lam = bary_f(t) is computed once per point t.  Each level takes the
    first letter a (1, 2, 3) for which every coordinate of 2 lam - e_a is
    >= -eff, so ties at touching points go to the lexicographically
    smallest word, and moves on to lam = 2 lam - e_a, exact in floating
    point (Sterbenz); eff starts at twice a bound on lam's error
    (`_window_start`) and doubles per level with it.  The gates compare
    in `_descent_start`'s order, as Python's `min` and `max` do, NaN
    included, and raise as it does.  After a letter every coordinate is
    >= -eff and doubling is exact, so the letter is the first a with
    2 lam_a - 1 >= -2 eff; a point no letter takes is in a hole
    (DomainError).  Errors name the first row at the first failing gate or
    the shallowest failing level.
    """
    return _descend(spec, pts, depth)[0].T


def _point(pts, rows: np.ndarray, i: int) -> tuple:
    """Row i as errors name it: as given in a sequence of points, else as Python floats."""
    given = not isinstance(pts, np.ndarray) and len(pts) == len(rows)
    return tuple(pts[i]) if given else tuple(rows[i].tolist())


def _descend(spec: GasketSpec, pts, depth: int) -> tuple:
    """The descent of `locate_many`: the (depth, P) int8 letters and the
    (l0, l1, l2) arrays of the barycentrics in the last cells.  Each level
    steps the coordinates in place and subtracts the hit masks."""
    _check_depth(depth)
    rows = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = np.ascontiguousarray(rows.T)
    # lam, the window's three work rows and a scratch row, for the whole call
    work = np.empty((7, len(rows)))
    scratch = work[6]
    l0, l1, l2 = bary_f(spec, x, y, work[:3], scratch)
    # min(l0, l1, l2), NaN as in Python
    low = np.minimum(l0, np.fmin(np.fmin(l1, l2, out=scratch), l0, out=scratch), out=scratch)
    outside = np.flatnonzero(low < -SNAP_TOL)
    if len(outside):
        raise _hull_error(_point(pts, rows, outside[0]))
    eff = _window_start(spec, x, y, work[3:6], scratch)
    coarse = np.flatnonzero(np.multiply(eff, 2.0**depth, out=scratch) > MAX_WINDOW)
    if len(coarse):
        raise _window_error(_point(pts, rows, coarse[0]), depth)
    neg = np.negative(eff, out=eff)
    # rows with a coordinate below -eff: no letter takes them at level 1
    stray = ~((l0 >= neg) & (l1 >= neg) & (l2 >= neg))
    letters = np.empty((depth, len(rows)), dtype=np.int8)
    for level in range(depth):
        neg *= 2.0
        l0 *= 2.0
        l1 *= 2.0
        l2 *= 2.0
        hit1 = np.subtract(l0, 1.0, out=scratch) >= neg
        hit2 = np.subtract(l1, 1.0, out=scratch) >= neg
        hit2 &= ~hit1
        hit3 = ~(hit1 | hit2)
        missed = ~(np.subtract(l2, 1.0, out=scratch) >= neg)
        missed &= hit3
        missed |= stray
        if missed.any():
            raise _hole_error(_point(pts, rows, np.argmax(missed)), level + 1)
        stray = False
        row = letters[level]  # 1 + hit2 + 2 hit3, in int8
        np.add(hit2.view(np.int8), 1, out=row)
        row += hit3.view(np.int8)
        row += hit3.view(np.int8)
        l0 -= hit1
        l1 -= hit2
        l2 -= hit3
    return letters, (l0, l1, l2)
