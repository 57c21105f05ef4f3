"""Assembly of the interpolation system on the product of two gaskets.

A model bundles the two gasket geometries, the subdivision depth N, the
vertical scaling field alpha and the shift field h.  Data values live on
the product vertex set V_N, vanish on the boundary, and fix the corner
values of each shift cell; the shift field is the tensor-barycentric
interpolant of those nine corner values, which makes every junction
compatibility identity hold by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import ContractionError, ValidationError
from .gasket import (
    Address,
    GasketSpec,
    address_bary,
    canonicalize,
    enumerate_vertices,
    standard_gasket,
    vertex_count,
    words_of_length,
)
from .grids import FactorGrid


@dataclass(frozen=True)
class ProductVertex:
    """A vertex of the product grid, keyed by canonical addresses."""

    first: Address
    second: Address

    def __str__(self):
        return f"{self.first}|{self.second}"


@dataclass(frozen=True)
class DataSet:
    """Interpolation values z on the depth-N product vertex set, keyed by
    canonical vertex pairs.

    build_model checks the rest for every data set, however it was made:
    that it is complete, lies in V_N x V_N, is finite and is zero on the
    boundary.
    """

    n: int
    entries: dict = field(compare=False)

    @classmethod
    def build(cls, n: int, triples) -> "DataSet":
        """Parse raw (first, second, z) triples into a DataSet.

        Addresses may be Address objects or "word@corner" strings and need
        not be canonical.  Two representations of the same vertex with
        different z are refused, never last-writer-wins.
        """
        if n < 1:
            raise ValidationError("depth N must be >= 1")
        entries = {}
        canonical = {}  # each distinct address is parsed and canonicalized once

        def vertex(a):
            c = canonical.get(a)
            if c is None:
                c = canonical[a] = canonicalize(
                    a if isinstance(a, Address) else Address.parse(a)
                )
            return c

        for first, second, z in triples:
            key = ProductVertex(vertex(first), vertex(second))
            z = float(z)
            if key in entries and entries[key] != z:
                raise ValidationError(
                    f"conflicting values {entries[key]} and {z} for vertex {key}"
                )
            entries[key] = z
        return cls(n, entries)

    @classmethod
    def zeros(cls, n: int) -> "DataSet":
        verts = enumerate_vertices(n)
        return cls(n, {ProductVertex(a, b): 0.0 for a in verts for b in verts})


@dataclass(frozen=True)
class ScalingField:
    """Vertical scaling alpha per cell-pair: a constant or a 3x3 corner
    tensor extended bilinearly in barycentric coordinates."""

    n: int
    cells: dict = field(compare=False)  # (omega, eta) -> float | 3x3 ndarray

    @classmethod
    def constant(cls, value: float, n: int) -> "ScalingField":
        value = float(value)
        words = words_of_length(n)
        return cls(n, {(w1, w2): value for w1 in words for w2 in words})

    @classmethod
    def from_cells(cls, mapping: dict, n: int) -> "ScalingField":
        words = words_of_length(n)
        cells = {}
        for w1 in words:
            for w2 in words:
                if (w1, w2) not in mapping:
                    raise ValidationError(f"scaling field misses cell-pair {w1}|{w2}")
                v = mapping[(w1, w2)]
                if np.isscalar(v):
                    cells[(w1, w2)] = float(v)
                else:
                    arr = np.asarray(v, dtype=float)
                    if arr.shape != (3, 3):
                        raise ValidationError(
                            f"corner tensor for {w1}|{w2} must be 3x3, got {arr.shape}"
                        )
                    cells[(w1, w2)] = arr
        for key in mapping:
            if key not in cells:
                name = "|".join(map(str, key)) if isinstance(key, tuple) else key
                raise ValidationError(f"scaling key {name} is not a cell-pair of length {n}")
        return cls(n, cells)


@dataclass(frozen=True)
class FifModel:
    """Immutable, fully assembled interpolation system: its cell-pair maps
    in `cell_table` and its derived constants."""

    gasket1: GasketSpec
    gasket2: GasketSpec
    n: int
    scaling: ScalingField
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
    with words in `words_of_length` order and `index` mapping a word to
    its i.  On the barycentrics of either gasket, L_w of the i-th word
    maps lam to 2^-N lam + offset[:, i], exactly.  The arrays serve
    vectorised code; `offset_rows`, `shift_rows` and `alpha_rows` hold the
    same numbers as tuples of Python floats for scalar loops.
    """

    index: dict  # block word -> i
    offset: np.ndarray  # (3, 3**N) barycentric offsets of the maps L_w
    offset_rows: tuple  # 3**N triples, offset[:, i] for each word
    shift: np.ndarray  # (3, 3, C) corner values
    alpha: np.ndarray  # (C,) constant scaling, 0 on tensor cells
    alpha_tensor: np.ndarray  # (3, 3, C) corner tensors, 0 on constant cells
    is_tensor: np.ndarray  # (C,) bool
    any_tensor: bool  # is_tensor.any()
    shift_rows: tuple  # C tuples of 9 corner values, row-major
    alpha_rows: tuple  # C entries: a float, or a tuple of 9 corner values

    @classmethod
    def build(
        cls, n: int, shift: np.ndarray, alpha: np.ndarray, is_tensor: np.ndarray
    ) -> "CellTable":
        """The table of the (3, 3, C) corner values `shift` and `alpha`,
        where a constant cell (not is_tensor) fills its 3x3 of alpha."""
        words = words_of_length(n)
        # L_w(p_1) less its 2^-N e_1 term: a dyadic difference, so exact
        offset = np.array([address_bary(Address(w, 1)) for w in words]).T
        offset[0] -= 0.5**n
        alpha_rows = alpha.reshape(9, -1).T.tolist()
        return cls(
            index={w: i for i, w in enumerate(words)},
            offset=offset,
            offset_rows=tuple(map(tuple, offset.T.tolist())),
            shift=shift,
            alpha=np.where(is_tensor, 0.0, alpha[0, 0]),
            alpha_tensor=np.where(is_tensor, alpha, 0.0),
            is_tensor=is_tensor,
            any_tensor=bool(is_tensor.any()),
            shift_rows=tuple(map(tuple, shift.reshape(9, -1).T.tolist())),
            alpha_rows=tuple(
                tuple(v) if t else v[0] for v, t in zip(alpha_rows, is_tensor.tolist())
            ),
        )


def _vertex_names(fg: FactorGrid) -> dict:
    """The canonical address of each vertex of FactorGrid's deepest level, by index."""
    return {fg.index_of(a): a for a in enumerate_vertices(fg.depth)}


def build_model(
    data: DataSet,
    scaling: ScalingField,
    g1: GasketSpec = None,
    g2: GasketSpec = None,
) -> FifModel:
    """Assemble a FifModel from a data set and a scaling field, however
    they were made.  The data are read once into the level-N value matrix
    z, in FactorGrid order.  Refused with ValidationError: a pair outside
    V_N, missing or given twice; a data value that is not finite or, on a
    boundary pair, not zero; a scaling value that is not finite."""
    g1 = g1 if g1 is not None else standard_gasket()
    g2 = g2 if g2 is not None else standard_gasket()
    if scaling.n != data.n:
        raise ValidationError(
            f"scaling field depth {scaling.n} does not match data depth {data.n}"
        )
    n = data.n
    words = words_of_length(n)
    pairs = [(w1, w2) for w1 in words for w2 in words]
    stacked = np.empty((3, 3, len(pairs)))
    for c, p in enumerate(pairs):
        stacked[:, :, c] = scaling.cells[p]  # a constant fills its 3x3
    is_tensor = np.array([not np.isscalar(scaling.cells[p]) for p in pairs])
    bad = ~np.isfinite(stacked).all(axis=(0, 1))
    if bad.any():
        w1, w2 = pairs[int(np.argmax(bad))]
        raise ValidationError(f"scaling on cell-pair {w1}|{w2} is not finite")
    alpha_sup = float(abs(stacked).max())  # a bilinear form's sup is at a corner pair
    if alpha_sup >= 1.0:
        raise ContractionError(f"scaling sup norm {alpha_sup} must be < 1")
    fg = FactorGrid(n)
    z = np.empty((vertex_count(n),) * 2)
    written = np.zeros(z.shape, dtype=bool)
    edge = set(fg.restriction(0, n).tolist())  # the corners p_c, where f vanishes
    index_of = cache(fg.index_of)  # once per distinct address
    for key, value in data.entries.items():
        try:
            i, j = index_of(key.first), index_of(key.second)
        except KeyError:
            raise ValidationError(f"data vertex {key} lies outside V_{n} x V_{n}") from None
        if not math.isfinite(value):
            raise ValidationError(f"data value {value} at vertex {key} is not finite")
        if value != 0.0 and (i in edge or j in edge):
            raise ValidationError(f"boundary vertex {key} must carry z = 0, got {value}")
        if written[i, j] and z[i, j] != value:
            raise ValidationError(f"conflicting values {z[i, j]} and {value} for vertex {key}")
        z[i, j] = value
        written[i, j] = True
    if not written.all():
        i, j = np.argwhere(~written)[0]
        name = _vertex_names(fg)
        raise ValidationError(f"missing data for vertex {name[i]}|{name[j]}")
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
        scaling=scaling,
        data=data,
        cell_table=CellTable.build(n, corners, stacked, is_tensor),
        a=2.0**-n,
        alpha_sup=alpha_sup,
        shift_sup=shift_sup,
        f_sup_bound=shift_sup / (1.0 - alpha_sup),
        k_h=k_h_range / min_sep,
        k_alpha=float(np.ptp(stacked, axis=(0, 1)).max()) / min_sep,
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
    are 1, 2 or 3; anything else raises ValueError.
    """
    if not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError(f"corner ({i}, {j}) is not in 1..3 x 1..3")
    table = model.cell_table
    shift = table.shift.copy()
    shift[i - 1, j - 1, table.index[omega] * len(table.index) + table.index[eta]] += delta
    shift.setflags(write=False)
    alpha = np.where(table.is_tensor, table.alpha_tensor, table.alpha)
    return replace(model, cell_table=CellTable.build(model.n, shift, alpha, table.is_tensor))
