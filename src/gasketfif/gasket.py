"""Geometry of a single Sierpinski gasket.

Words over the letters 1,2,3 select nested cells of the gasket; an address
(word plus a terminal corner) names a vertex.  Vertex identity is decided
with exact dyadic barycentric arithmetic so that touching points shared by
two cells deduplicate reliably, independent of floating point noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DomainError

LETTERS = (1, 2, 3)

#: snap tolerance for cell-membership tests, relative to the triangle side
SNAP_TOL = 1e-9

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
class DyadicBary:
    """Exact barycentric coordinates numerators/2^level of a gasket vertex."""

    numerators: tuple
    level: int

    def reduced(self) -> "DyadicBary":
        nums, lev = self.numerators, self.level
        while lev > 0 and all(x % 2 == 0 for x in nums):
            nums = tuple(x // 2 for x in nums)
            lev -= 1
        return DyadicBary(nums, lev)


@dataclass(frozen=True)
class GasketSpec:
    """The three outer corner points of one gasket."""

    corners: tuple = (
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, math.sqrt(3.0) / 2.0),
    )

    def __post_init__(self):
        if len(self.corners) != 3 or any(len(p) != 2 for p in self.corners):
            raise ValueError("corners must be three (x, y) pairs")
        (x1, y1), (x2, y2), (x3, y3) = self.corners
        area2 = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if abs(area2) < 1e-14:
            raise ValueError("corner points are (nearly) collinear")

    @cached_property
    def corner_array(self) -> np.ndarray:
        return np.asarray(self.corners, dtype=float)

    @cached_property
    def side_lengths(self) -> tuple:
        p = self.corner_array
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


def standard_gasket() -> GasketSpec:
    """Unit equilateral triangle with base on the x-axis."""
    return GasketSpec()


def bary_f(spec: GasketSpec, x: float, y: float) -> tuple:
    """Barycentric coordinates of (x, y) w.r.t. the outer triangle (floats)."""
    a = spec._bary_inv
    return (
        a[0] * x + a[1] * y + a[2],
        a[3] * x + a[4] * y + a[5],
        a[6] * x + a[7] * y + a[8],
    )


def barycentric(spec: GasketSpec, t) -> np.ndarray:
    x, y = float(t[0]), float(t[1])
    return np.array(bary_f(spec, x, y))


def barycentric_many(spec: GasketSpec, pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates for an (n, 2) array of points, shape (n, 3)."""
    a = np.array(spec._bary_inv).reshape(3, 3)
    ones = np.ones((len(pts), 1))
    return np.hstack([pts, ones]) @ a.T


def _word_offset(spec: GasketSpec, w: str) -> tuple:
    ox = oy = 0.0
    f = 0.5
    for ch in w:
        px, py = spec.corners[int(ch) - 1]
        ox += f * px
        oy += f * py
        f *= 0.5
    return ox, oy


def word_map_xy(spec: GasketSpec, w: str, x: float, y: float) -> tuple:
    scale = 0.5 ** len(w)
    ox, oy = _word_offset(spec, w)
    return x * scale + ox, y * scale + oy


def word_map(spec: GasketSpec, w: str, t) -> np.ndarray:
    """Apply the composed contraction L_w: t -> 2^-|w| t + sum 2^-k p_{w_k}."""
    x, y = word_map_xy(spec, w, float(t[0]), float(t[1]))
    return np.array([x, y])


def word_map_inverse(spec: GasketSpec, w: str, t, tol: float = SNAP_TOL) -> np.ndarray:
    """Invert L_w on its image cell; raises DomainError off the cell."""
    scale = 2.0 ** len(w)
    ox, oy = _word_offset(spec, w)
    x = (float(t[0]) - ox) * scale
    y = (float(t[1]) - oy) * scale
    lam = bary_f(spec, x, y)
    # the snap tolerance is relative to the cell size, hence scaled by 2^|w|
    if min(lam) < -tol * scale:
        raise DomainError(f"point {tuple(t)} is not in the cell of word {w!r}")
    return np.array([x, y])


def address_point(spec: GasketSpec, a: Address) -> np.ndarray:
    return word_map(spec, a.word, spec.corners[a.corner - 1])


def address_coords(spec: GasketSpec, a: Address):
    """Exact dyadic barycentric coordinates and float point of an address."""
    m = len(a.word)
    nums = [0, 0, 0]
    for k, ch in enumerate(a.word, start=1):
        nums[int(ch) - 1] += 2 ** (m - k)
    nums[a.corner - 1] += 1
    db = DyadicBary(tuple(nums), m)
    point = (np.array(nums, dtype=float) / 2.0**m) @ spec.corner_array
    return db, point


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


def enumerate_vertices(m: int) -> list:
    """All distinct gasket vertices {L_w(p_i): |w| = m}, canonical, sorted.

    The count is 3(3^m + 1)/2.  Deduplication is by exact dyadic
    barycentric coordinates, not floating-point hashing.
    """
    if m < 0:
        raise ValueError("depth must be non-negative")
    if m > MAX_ENUM_DEPTH:
        raise CapacityError(f"vertex enumeration supports depth <= {MAX_ENUM_DEPTH}")
    seen = {}
    for letters in itertools.product("123", repeat=m):
        word = "".join(letters)
        for corner in LETTERS:
            addr = Address(word, corner)
            mnum = [0, 0, 0]
            for k, ch in enumerate(word, start=1):
                mnum[int(ch) - 1] += 2 ** (m - k)
            mnum[corner - 1] += 1
            key = DyadicBary(tuple(mnum), m).reduced()
            if key not in seen:
                seen[key] = canonicalize(addr)
    return sorted(seen.values(), key=lambda a: (len(a.word), a.word, a.corner))


def locate(spec: GasketSpec, t, depth: int, tol: float = SNAP_TOL) -> str:
    """Word of length `depth` whose cell contains t.

    Ties at touching points resolve to the lexicographically smallest
    word.  Points outside the hull (or inside a hole of the gasket) raise
    DomainError.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x, y = float(t[0]), float(t[1])
    if min(bary_f(spec, x, y)) < -tol:
        raise DomainError(f"point {tuple(t)} lies outside the gasket hull")
    letters = []
    eff = tol
    for _ in range(depth):
        # inverse maps double any input error, so the snap window doubles too
        eff *= 2.0
        for a in LETTERS:
            px, py = spec.corners[a - 1]
            ux, uy = 2.0 * x - px, 2.0 * y - py
            if min(bary_f(spec, ux, uy)) >= -eff:
                letters.append(str(a))
                x, y = ux, uy
                break
        else:
            raise DomainError(
                f"point {tuple(t)} is not on the gasket at depth {len(letters) + 1}"
            )
    return "".join(letters)


def locate_many(spec: GasketSpec, pts, depth: int) -> np.ndarray:
    """Batched `locate`: the letters (1, 2 or 3) of the depth-`depth` cell
    of every row of the (P, 2) array `pts`, as a (P, depth) int8 array.

    Digits are extracted level by level with the float operations of
    `bary_f` and `locate`, in the same order, the same first-letter tie
    rule and the same doubling snap window, so row i spells exactly
    ``locate(spec, pts[i], depth)``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    a = spec._bary_inv

    def bary_min(x, y):
        return np.minimum(
            np.minimum(a[0] * x + a[1] * y + a[2], a[3] * x + a[4] * y + a[5]),
            a[6] * x + a[7] * y + a[8],
        )

    x, y = pts[:, 0], pts[:, 1]
    outside = np.flatnonzero(bary_min(x, y) < -SNAP_TOL)
    if len(outside):
        raise DomainError(
            f"point {tuple(pts[outside[0]].tolist())} lies outside the gasket hull"
        )
    letters = np.empty((len(pts), depth), dtype=np.int8)
    eff = SNAP_TOL
    for level in range(depth):
        eff *= 2.0
        chosen = np.zeros(len(pts), dtype=np.int8)
        nx, ny = x, y
        for letter in LETTERS:
            px, py = spec.corners[letter - 1]
            ux, uy = 2.0 * x - px, 2.0 * y - py
            hit = (chosen == 0) & (bary_min(ux, uy) >= -eff)
            chosen[hit] = letter
            nx, ny = np.where(hit, ux, nx), np.where(hit, uy, ny)
        missed = np.flatnonzero(chosen == 0)
        if len(missed):
            raise DomainError(
                f"point {tuple(pts[missed[0]].tolist())} is not on the gasket "
                f"at depth {level + 1}"
            )
        letters[:, level] = chosen
        x, y = nx, ny
    return letters


def shift(w: str, k: int) -> str:
    """Drop the first k letters; shifts past the end give the empty word."""
    if k < 0:
        raise ValueError("shift count must be non-negative")
    return w[k:]
