"""Assembly of the interpolation system on the product of two gaskets.

A model bundles the two gasket geometries, the subdivision depth N, the
vertical scaling field alpha and the shift field h.  Data values live on
the product vertex set V_N, vanish on the boundary, and fix the corner
values of each shift cell; the shift field is the tensor-barycentric
interpolant of those nine corner values, which makes every junction
compatibility identity hold by construction.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ContractionError, ValidationError
from .gasket import (
    Address,
    GasketSpec,
    address_bary,
    canonicalize,
    enumerate_vertices,
    vertex_count,
    words_of_length,
)
from .grids import FactorGrid, is_word, word_index


@dataclass(frozen=True)
class ProductVertex:
    """A vertex of the product grid, keyed by canonical addresses."""

    first: Address
    second: Address

    def __str__(self):
        return f"{self.first}|{self.second}"


def real_number(v, what: str) -> float:
    """float(v) for a real number v: an int or a float, Python's or
    numpy's, not a bool.  Anything else, a string among them, raises
    TypeError naming `what`: float() alone would read "0.5" and True."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"{what} must be a number, not {v!r}")
    return float(v)


@dataclass(frozen=True)
class DataSet:
    """Interpolation values z on the depth-N product vertex set V_N x V_N.

    values[i, j] is z at vertex i of the first gasket and vertex j of the
    second, both in FactorGrid(N) order.  build_model checks the rest for
    every data set, however it was made: the shape, and that the values
    are finite and zero on the boundary.
    """

    n: int
    values: np.ndarray = field(compare=False)

    @classmethod
    def build(cls, n: int, triples) -> "DataSet":
        """Parse raw (first, second, z) triples into a DataSet.

        Addresses may be Address objects or "word@corner" strings and need
        not be canonical; each distinct one is parsed once and found by its
        barycentric numerators (FactorGrid.indices_of).  A malformed address
        raises ValueError.  Refused with ValidationError: a vertex outside
        V_N, two spellings of one vertex pair with different z (never
        last-writer-wins; equal ones collapse), a missing pair.
        """
        if n < 1:
            raise ValidationError("depth N must be >= 1")
        triples = list(triples)
        firsts, seconds, zs = zip(*triples) if triples else ((), (), ())
        z = np.fromiter(map(float, zs), dtype=float, count=len(zs))
        # distinct addresses in order of first use, so a bad one is met in
        # input order
        named = dict.fromkeys(itertools.chain.from_iterable(zip(firsts, seconds)))
        parsed = {a: a if isinstance(a, Address) else Address.parse(a) for a in named}
        fg = FactorGrid(n)
        index = dict(zip(named, fg.indices_of(parsed.values()).tolist()))
        i = np.fromiter(map(index.__getitem__, firsts), dtype=np.intp, count=len(z))
        j = np.fromiter(map(index.__getitem__, seconds), dtype=np.intp, count=len(z))
        outside = np.flatnonzero((i < 0) | (j < 0))
        if len(outside):
            a, b = (canonicalize(parsed[x[outside[0]]]) for x in (firsts, seconds))
            raise ValidationError(f"data vertex {a}|{b} lies outside V_{n} x V_{n}")
        nv = vertex_count(n)
        pair = i * nv + j
        # each pair's entries in input order: one that differs from the
        # value before it clashes (a NaN always does)
        order = np.argsort(pair, kind="stable")
        pair, z = pair[order], z[order]
        same = pair[1:] == pair[:-1]
        clash = np.flatnonzero(same & (z[1:] != z[:-1]))
        if len(clash):
            k = clash[np.argmin(order[clash + 1])]  # the first clash in input order
            raise ValidationError(
                f"conflicting values {float(z[k])} and {float(z[k + 1])} for vertex "
                f"{_pair_name(fg, pair[k])}"
            )
        written = np.zeros(nv * nv, dtype=bool)
        written[pair] = True
        if not written.all():
            raise ValidationError(f"missing data for vertex {_pair_name(fg, np.argmin(written))}")
        # every pair, in order: of its equal values, the one given last
        # (0.0 or -0.0)
        return cls(n, z[np.append(~same, True)].reshape(nv, nv))

    @classmethod
    def zeros(cls, n: int) -> "DataSet":
        return cls(n, np.zeros((vertex_count(n),) * 2))

    @cached_property
    def entries(self) -> dict:
        """The values by canonical vertex pair, {ProductVertex: float}, in
        `enumerate_vertices` order; built on first use."""
        verts = enumerate_vertices(self.n)
        idx = FactorGrid(self.n).indices_of(verts)
        rows = self.values[np.ix_(idx, idx)].tolist()
        return {
            ProductVertex(a, b): z for a, row in zip(verts, rows) for b, z in zip(verts, row)
        }


@dataclass(frozen=True)
class ScalingField:
    """Vertical scaling alpha per cell-pair: a constant or a 3x3 corner
    tensor extended bilinearly in barycentric coordinates.

    corners[:, :, c] holds the cell-pair c = i * 3**N + j of the words i
    and j in words_of_length order, a constant filling its 3x3;
    is_tensor[c] tells the tensors apart.
    """

    n: int
    corners: np.ndarray = field(compare=False)  # (3, 3, 9**N)
    is_tensor: np.ndarray = field(compare=False)  # (9**N,) bool

    @classmethod
    def constant(cls, value: float, n: int) -> "ScalingField":
        value = real_number(value, "the constant")
        return cls(n, np.full((3, 3, 9**n), value), np.zeros(9**n, dtype=bool))

    @classmethod
    def from_cells(cls, mapping: dict, n: int) -> "ScalingField":
        """The field of {(omega, eta): a number or a 3x3 corner tensor},
        one entry for every cell-pair of length n and no other."""
        words = words_of_length(n)
        corners = np.empty((3, 3, len(words) ** 2))
        is_tensor = np.zeros(len(words) ** 2, dtype=bool)
        for c, key in enumerate(itertools.product(words, repeat=2)):
            if key not in mapping:
                raise ValidationError(f"scaling field misses cell-pair {key[0]}|{key[1]}")
            v = mapping[key]
            if np.isscalar(v):
                corners[:, :, c] = real_number(v, f"scaling of {key[0]}|{key[1]}")
                continue
            arr = np.asarray(v, dtype=float)
            if arr.shape != (3, 3):
                raise ValidationError(
                    f"corner tensor for {key[0]}|{key[1]} must be 3x3, got {arr.shape}"
                )
            for x in np.asarray(v, dtype=object).flat:  # np.asarray parses "0.5" and True too
                real_number(x, f"an entry of the corner tensor for {key[0]}|{key[1]}")
            corners[:, :, c] = arr
            is_tensor[c] = True
        pairs = set(itertools.product(words, repeat=2))
        for key in mapping:
            if key not in pairs:
                name = "|".join(map(str, key)) if isinstance(key, tuple) else key
                raise ValidationError(f"scaling key {name} is not a cell-pair of length {n}")
        return cls(n, corners, is_tensor)


@dataclass(frozen=True)
class FifModel:
    """Immutable, fully assembled interpolation system: its cell-pair maps
    in `cell_table` and its derived constants."""

    gasket1: GasketSpec
    gasket2: GasketSpec
    n: int
    data: DataSet = field(compare=False)
    cell_table: "CellTable" = field(compare=False)
    a: float = 0.0
    alpha_sup: float = 0.0
    shift_sup: float = 0.0
    f_sup_bound: float = 0.0
    k_h: float = 0.0
    k_alpha: float = 0.0


@dataclass(frozen=True, eq=False)
class CellTable:
    """The cell-pair maps of a model in one flat table, their only store.

    Row c = i1 * 3**N + i2 holds the cell-pair (words[i1], words[i2]),
    with words in `words_of_length` order.  On the barycentrics of either
    gasket, L_w of the i-th word maps lam to 2^-N lam + offset[:, i],
    exactly.  alpha holds the scaling corners as `ScalingField.corners`
    does, a constant cell filling its 3x3, so alpha[0, 0] holds the
    constants; is_tensor tells the tensors apart.  The arrays serve
    vectorised code; `shift_rows` and `alpha_rows`, built on first use,
    hold the same numbers as Python floats for scalar loops.
    """

    offset: np.ndarray  # (3, 3**N) barycentric offsets of the maps L_w
    shift: np.ndarray  # (3, 3, C) corner values
    alpha: np.ndarray  # (3, 3, C) scaling corners
    is_tensor: np.ndarray  # (C,) bool
    any_tensor: bool  # is_tensor.any()

    @classmethod
    def build(
        cls, n: int, shift: np.ndarray, alpha: np.ndarray, is_tensor: np.ndarray
    ) -> "CellTable":
        """The table of the (3, 3, C) corner values `shift` and `alpha`."""
        # L_w(p_1) less its 2^-N e_1 term: a dyadic difference, so exact
        offset = np.array([address_bary(Address(w, 1)) for w in words_of_length(n)]).T
        offset[0] -= 0.5**n
        return cls(offset, shift, alpha, is_tensor, bool(is_tensor.any()))

    @cached_property
    def shift_rows(self) -> tuple:
        """C tuples of 9 corner values, row-major."""
        return tuple(map(tuple, self.shift.reshape(9, -1).T.tolist()))

    @cached_property
    def alpha_rows(self) -> tuple:
        """C entries: the constant as a float, or a tuple of 9 corner values."""
        # the tensors' rows alone: one float kept out of every row of 9
        # holds the memory of the rest (0.2-0.4 MB of the points
        # benchmark's peak RSS)
        tensors = map(tuple, self.alpha.reshape(9, -1)[:, self.is_tensor].T.tolist())
        constants = self.alpha[0, 0].tolist()
        return tuple(next(tensors) if t else a for t, a in zip(self.is_tensor.tolist(), constants))


def _vertex_names(fg: FactorGrid) -> dict:
    """The canonical address of each vertex of FactorGrid's deepest level, by index."""
    verts = enumerate_vertices(fg.depth)
    return dict(zip(fg.indices_of(verts).tolist(), verts))


def _pair_name(fg: FactorGrid, pair: int) -> str:
    """The canonical addresses "a|b" of the vertex pair i * V + j of
    FactorGrid's deepest level."""
    i, j = divmod(int(pair), len(fg.lam[fg.depth]))
    name = _vertex_names(fg)
    return f"{name[i]}|{name[j]}"


def build_model(
    data: DataSet,
    scaling: ScalingField,
    g1: GasketSpec = None,
    g2: GasketSpec = None,
) -> FifModel:
    """Assemble a FifModel from a data set and a scaling field, however
    they were made.  Refused with ValidationError: a data matrix of another
    shape than V_N x V_N; a data value that is not finite or, on a
    boundary pair, not zero; a scaling value that is not finite."""
    g1 = g1 if g1 is not None else GasketSpec()
    g2 = g2 if g2 is not None else GasketSpec()
    if scaling.n != data.n:
        raise ValidationError(
            f"scaling field depth {scaling.n} does not match data depth {data.n}"
        )
    n = data.n
    # the model's own read-only copies, validated here
    alpha, is_tensor = np.array(scaling.corners, dtype=float), np.array(scaling.is_tensor, bool)
    alpha.setflags(write=False)
    is_tensor.setflags(write=False)
    bad = ~np.isfinite(alpha).all(axis=(0, 1))
    if bad.any():
        w1, w2 = divmod(int(np.argmax(bad)), 3**n)
        words = words_of_length(n)
        raise ValidationError(f"scaling on cell-pair {words[w1]}|{words[w2]} is not finite")
    alpha_sup = float(abs(alpha).max())  # a bilinear form's sup is at a corner pair
    if alpha_sup >= 1.0:
        raise ContractionError(f"scaling sup norm {alpha_sup} must be < 1")
    fg = FactorGrid(n)
    z = data.values
    nv = vertex_count(n)
    if z.shape != (nv, nv):
        raise ValidationError(f"data values must have shape {(nv, nv)}, not {z.shape}")
    bad = ~np.isfinite(z)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"data value {float(z.flat[k])} at vertex {_pair_name(fg, k)} is not finite"
        )
    # f vanishes at the corners p_c: on their rows and columns
    corner = fg.lift(np.arange(3), 0, n)
    bad[corner] = z[corner] != 0.0
    bad[:, corner] |= z[:, corner] != 0.0
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"boundary vertex {_pair_name(fg, k)} must carry z = 0, got {float(z.flat[k])}"
        )
    cells = fg.cells[n].T
    # corners[a, b, i * 3**n + j] is z on corner a of the i-th cell and corner b of the j-th
    corners = z[cells[:, None, :, None], cells[None, :, None, :]].reshape(3, 3, -1)
    corners.setflags(write=False)
    k_h_range = float((corners.max(axis=(0, 1)) - corners.min(axis=(0, 1))).max())
    shift_sup = float(np.max(np.abs(z)))
    min_sep = min(g1.min_side, g2.min_side)
    return FifModel(
        gasket1=g1,
        gasket2=g2,
        n=n,
        data=data,
        cell_table=CellTable.build(n, corners, alpha, is_tensor),
        a=2.0**-n,
        alpha_sup=alpha_sup,
        shift_sup=shift_sup,
        f_sup_bound=shift_sup / (1.0 - alpha_sup),
        k_h=k_h_range / min_sep,
        k_alpha=float(np.ptp(alpha, axis=(0, 1)).max()) / min_sep,
    )


def _bilinear_form(cell, lam, mu):
    """lam^T cell mu, written out term by term.  Also applies elementwise
    when cell is a (3, 3, P) stack and lam, mu are triples of (P,) arrays."""
    return (
        lam[0] * (cell[0, 0] * mu[0] + cell[0, 1] * mu[1] + cell[0, 2] * mu[2])
        + lam[1] * (cell[1, 0] * mu[0] + cell[1, 1] * mu[1] + cell[1, 2] * mu[2])
        + lam[2] * (cell[2, 0] * mu[0] + cell[2, 1] * mu[1] + cell[2, 2] * mu[2])
    )


def _bilinear9(c, lam, mu) -> float:
    """`_bilinear_form` for a cell given as 9 row-major Python floats,
    with the same terms in the same order; much faster than indexing a
    numpy array in scalar loops."""
    m0, m1, m2 = mu
    return (
        lam[0] * (c[0] * m0 + c[1] * m1 + c[2] * m2)
        + lam[1] * (c[3] * m0 + c[4] * m1 + c[5] * m2)
        + lam[2] * (c[6] * m0 + c[7] * m1 + c[8] * m2)
    )


#: the largest junction discrepancy check_compatibility accepts
COMPATIBILITY_TOL = 1e-12


@dataclass
class CompatibilityReport:
    max_discrepancy: float
    worst: str  # the vertex pair of max_discrepancy, "" when it is 0
    violations: list  # (description, discrepancy) not within COMPATIBILITY_TOL


def check_compatibility(model: FifModel) -> CompatibilityReport:
    """Verify that the cell-pair maps agree wherever two cells touch.

    Corner [a, b] of the cell-pair (i, j) in `cell_table` is the value the
    pair writes at the product vertex (cells[i, a], cells[j, b]) of
    FactorGrid(N).  The discrepancy of a vertex pair is the max less the
    min of all its writers; h is bilinear, so two cells agree along a
    junction exactly when they agree at its corners.  A discrepancy that
    is not <= COMPATIBILITY_TOL, NaN among them, is a violation.
    """
    n = model.n
    fg = FactorGrid(n)
    cells = fg.cells[n].T  # cells[a, i]: corner a of the i-th word cell
    nv = vertex_count(n)
    w = cells.shape[1]
    # key[a, b, i, j]: the vertex pair that corner [a, b] of cell-pair (i, j) writes
    key = (cells[:, None, :, None] * nv + cells[None, :, None, :]).ravel()
    values = model.cell_table.shift.reshape(3, 3, w, w).ravel()
    hi = np.full(nv * nv, -np.inf)
    lo = np.full(nv * nv, np.inf)
    with np.errstate(invalid="ignore"):  # a NaN writer makes its pair's spread NaN
        np.maximum.at(hi, key, values)
        np.minimum.at(lo, key, values)
        disc = hi - lo  # and so does a lone infinite one: inf - inf
    worst = int(np.argmax(disc))  # the first NaN, if any
    bad = np.flatnonzero(~(disc <= COMPATIBILITY_TOL))
    names = _vertex_names(fg) if disc[worst] != 0 else {}

    def junction(pair):
        i, j = divmod(int(pair), nv)
        return f"junction at {names[i]}|{names[j]}"

    return CompatibilityReport(
        max_discrepancy=float(disc[worst]),
        worst=junction(worst) if names else "",
        violations=[(junction(pair), float(disc[pair])) for pair in bad],
    )


def perturb_shift(
    model: FifModel, omega: str, eta: str, i: int, j: int, delta: float
) -> FifModel:
    """Copy of the model with one shift corner value perturbed.

    Breaks junction compatibility on purpose; used by diagnostics and
    tests, never by construction.  i and j, the corner's row and column,
    are 1, 2 or 3; anything else raises ValueError.  omega or eta not a
    word of length N raises KeyError.  The copy shares every other array.
    """
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"corner ({i}, {j}) is not in 1..3 x 1..3")
    n = model.n
    for w in (omega, eta):
        if not is_word(w, n):
            raise KeyError(w)
    shift = model.cell_table.shift.copy()
    shift[i - 1, j - 1, word_index(omega) * 3**n + word_index(eta)] += delta
    shift.setflags(write=False)
    return replace(model, cell_table=replace(model.cell_table, shift=shift))
