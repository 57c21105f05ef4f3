"""Evaluation of the interpolation function.

Four routes are provided and cross-check each other: the exact recursion
at dyadic addresses, a truncated unrolling at arbitrary points with a
certified error bound, the contraction operator on grid functions (whose
fixed point is f), and chaos-game sampling of the graph.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PreconditionError
from .fileio import atomic_open, format_17g
from .gasket import MAX_DESCENT_DEPTH, Address, _descend, _descent_start, locate_many
from .grids import GRID_BYTES, FactorGrid, check_grid_bytes, level_step, product_values
from .model import FifModel, _bilinear9, _bilinear_form


def address_letters(addresses) -> tuple:
    """Addresses in the letter form of `eval_exact`: (letters, corners),
    letters a (P, L) int8 array of each word's letters 1, 2, 3 followed by
    0s, and corners a (P,) array."""
    letters = np.zeros((len(addresses), max((len(a.word) for a in addresses), default=0)), np.int8)
    for row, a in zip(letters, addresses):
        row[: len(a.word)] = np.frombuffer(a.word.encode("ascii"), np.int8) - ord("0")
    return letters, np.array([a.corner for a in addresses])


def _exact_step(table, c, x, lam, mu):
    """One step of the recursion on the cell-pair rows c of the cell
    table, in eval_exact and in chaos_game: alpha_c(lam, mu) x +
    h_c(lam, mu), for (3, P) barycentric triples lam, mu; each entry as
    `_bilinear9` rounds it."""
    alpha = table.alpha[0, 0].take(c)
    if table.any_tensor:
        tensor = table.alpha.reshape(9, -1).take(c, axis=1).reshape(3, 3, -1)
        alpha = np.where(table.is_tensor.take(c), _bilinear_form(tensor, lam, mu), alpha)
    shift = table.shift.reshape(9, -1).take(c, axis=1).reshape(3, 3, -1)
    return alpha * x + _bilinear_form(shift, lam, mu)


def _exact(model: FifModel, t, s) -> tuple:
    """eval_exact on letter-form addresses, with the barycentrics of t and
    s that the recursion ends on: (values, lam, mu), each lam[:, p] and
    mu[:, p] the exact `address_bary` of point p's address."""
    n = model.n
    (lt, ct), (ls, cs) = t, s
    # (w, c) and (w.c^r, c) name the same point: pad the two words of each
    # pair with their corners to one length, a multiple of N, in `blocks`
    # blocks of N letters
    blocks = np.maximum(np.count_nonzero(lt, axis=1), np.count_nonzero(ls, axis=1))
    blocks = -(-np.maximum(blocks, 1) // n)
    width = n * int(blocks.max(initial=0))
    it, js = (_block_indices(w, np.asarray(c), width, n) for w, c in ((lt, ct), (ls, cs)))
    table = model.cell_table
    lam = (np.arange(1, 4)[:, None] == ct).astype(float)
    mu = (np.arange(1, 4)[:, None] == cs).astype(float)
    x = np.zeros(len(lam[0]))
    for k in range(1, width // n + 1):  # the k-th block from the inside
        p = np.flatnonzero(blocks >= k)
        i, j = it[p, blocks[p] - k], js[p, blocks[p] - k]
        x[p] = _exact_step(table, i * 3**n + j, x[p], lam[:, p], mu[:, p])
        lam[:, p] = table.offset.take(i, axis=1) + 0.5**n * lam[:, p]
        mu[:, p] = table.offset.take(j, axis=1) + 0.5**n * mu[:, p]
    return x, lam, mu


def _block_indices(letters, corners, width: int, n: int) -> np.ndarray:
    """The words of `letters` padded with their corners to `width` letters,
    as (P, width / n) indices of their n-letter blocks in words_of_length
    order."""
    padded = np.zeros((len(corners), width), dtype=np.intp)
    padded[:, : letters.shape[1]] = letters[:, :width]
    padded = np.where(padded == 0, corners[:, None], padded) - 1
    index = np.zeros((len(corners), width // n), dtype=np.intp)
    for k in range(n):
        index = 3 * index + padded[:, k::n]
    return index


def eval_exact(model: FifModel, addr_t, addr_s):
    """f at exact product vertices, by peeling N letters per step.

    addr_t and addr_s are two Addresses, for one value (a float), or two
    arrays of P addresses in the letter form of `address_letters`, for
    an array of P values.  Each pair's words are padded with their corners
    to one length, a multiple of N.  Reads neither gasket: alpha and h are
    bilinear in barycentric coordinates, and the coordinates of each
    block's tail are built from the innermost one as 2^-N lam + the
    block's offset, exact dyadics for words of up to 52 letters.  The
    recursion bottoms out at a corner pair, where f vanishes; the result
    carries no truncation error, only the rounding of the bilinear forms,
    each rounded as `_bilinear9` rounds it.
    """
    if isinstance(addr_t, Address):
        return float(_exact(model, address_letters([addr_t]), address_letters([addr_s]))[0][0])
    return _exact(model, addr_t, addr_s)[0]


def eval_approx(model: FifModel, t, s, k: int) -> tuple:
    """Truncated unrolling of f at an arbitrary point of the product.

    Descends k*N letters into the nested cell chain of (t, s), both
    factors in one loop, letter by letter, by the rule of `locate_many`; the
    block indices i, j build up as base-3 integers.  At the end of each
    block it adds coeff * h_(i, j)(lam, mu), the shift at the block's
    barycentrics, and multiplies coeff, the product of the scaling
    factors along the path, by alpha_(i, j)(lam, mu); the dropped residual
    is coeff * f(t', s').  Returns (value, error_bound).  The bound is the
    a-posteriori |coeff| * f_sup_bound, never above alpha_sup^k *
    f_sup_bound, plus `_input_rounding_bound`, what the rounding of t and
    s can move the sum by.  k*N beyond MAX_DESCENT_DEPTH raises
    PreconditionError; a point that `locate_many` refuses raises its
    error, t's before s's.
    """
    n, g1, g2, nw, shift_rows, alpha_rows, f_sup_bound, rounding = _approx_constants(model)
    if k < 1:
        raise PreconditionError("truncation depth k must be >= 1")
    d = k * n
    if d > MAX_DESCENT_DEPTH:
        raise PreconditionError(
            f"truncation depth k={k} needs {d} letters per factor; float input "
            f"resolves at most {MAX_DESCENT_DEPTH} (k <= {MAX_DESCENT_DEPTH // n} "
            f"for N={n})"
        )
    l0, l1, l2, neg1 = _descent_start(g1, t, d)
    try:
        m0, m1, m2, neg2 = _descent_start(g2, s, d)
    except Exception:
        locate_many(model.gasket1, (t,), d)  # an error of t at any depth comes first
        raise
    value = 0.0
    coeff = 1.0
    i = j = 0
    left = n
    for _ in range(d):
        neg1 *= 2.0
        neg2 *= 2.0
        l0, l1, l2 = 2.0 * l0, 2.0 * l1, 2.0 * l2
        m0, m1, m2 = 2.0 * m0, 2.0 * m1, 2.0 * m2
        if l0 - 1.0 >= neg1:
            l0 -= 1.0
            i *= 3
        elif l1 - 1.0 >= neg1:
            l1 -= 1.0
            i = 3 * i + 1
        elif l2 - 1.0 >= neg1:
            l2 -= 1.0
            i = 3 * i + 2
        else:
            _descent_error(model, t, s, d)
        if m0 - 1.0 >= neg2:
            m0 -= 1.0
            j *= 3
        elif m1 - 1.0 >= neg2:
            m1 -= 1.0
            j = 3 * j + 1
        elif m2 - 1.0 >= neg2:
            m2 -= 1.0
            j = 3 * j + 2
        else:
            _descent_error(model, t, s, d)
        left -= 1
        if left:
            continue
        left = n
        c = i * nw + j
        h = shift_rows[c]
        # _bilinear9(h, lam, mu), its terms in its order
        value += coeff * (
            l0 * (h[0] * m0 + h[1] * m1 + h[2] * m2)
            + l1 * (h[3] * m0 + h[4] * m1 + h[5] * m2)
            + l2 * (h[6] * m0 + h[7] * m1 + h[8] * m2)
        )
        alpha = alpha_rows[c]
        coeff *= alpha if type(alpha) is float else _bilinear9(alpha, (l0, l1, l2), (m0, m1, m2))
        i = j = 0
    bound = abs(coeff) * f_sup_bound
    return value, bound + rounding[k - 1]


def _approx_constants(model: FifModel) -> tuple:
    """What eval_approx reads of a model, built on its first call and
    kept in the model's __dict__, as a cached_property keeps its value:
    (n, both gaskets' `_descent_coeffs`, the number of block words,
    `CellTable.shift_rows` and `alpha_rows`, f_sup_bound, and
    `_input_rounding_bound` for every k the depth limit admits, k - 1 its
    index).  One dict lookup per call instead of the attribute reads and
    the rounding bound's arithmetic."""
    consts = model.__dict__.get("_approx_constants")
    if consts is None:
        table = model.cell_table
        rounding = tuple(
            _input_rounding_bound(model, k) for k in range(1, MAX_DESCENT_DEPTH // model.n + 1)
        )
        consts = (
            model.n,
            model.gasket1._descent_coeffs,
            model.gasket2._descent_coeffs,
            3**model.n,
            table.shift_rows,
            table.alpha_rows,
            model.f_sup_bound,
            rounding,
        )
        object.__setattr__(model, "_approx_constants", consts)
    return consts


def _descent_error(model: FifModel, t, s, d: int):
    """Raise the error of locating t, else that of locating s, to d
    letters: what eval_approx's fused descent met, t's first."""
    locate_many(model.gasket1, (t,), d)
    locate_many(model.gasket2, (s,), d)
    raise RuntimeError(f"locate_many accepts {tuple(t)}, {tuple(s)}; eval_approx does not")


def _input_rounding_bound(model: FifModel, k: int) -> float:
    """How far the rounding of the input can move eval_approx's sum.

    The descent's first barycentrics lie within half a starting window of
    those of the point that the input rounds, per coordinate; delta sums
    the largest over both gaskets.  Exact steps double it, so block b's
    coordinates are off by d_b = delta 2^((b+1)N) <= 1/8 (wider windows
    are refused).  With A = alpha_sup and H = shift_sup, the largest
    corner of any h_w, h_w moves by at most 4 H d_b, and |coeff| at
    block b is at most A^b.  Tensor scaling also moves alpha_w by 4 A d_b:
    then |coeff| is at most 3 A^b and off by at most 24 A^b delta 2^(bN),
    also after the last block, where it multiplies f_sup_bound.  Summed
    in closed form over G = sum_(b<k) (A 2^N)^b, with no per-block work.
    This holds when the rounded point lies in the cells the descent took.
    """
    delta = 0.5 * (model.gasket1._hull_window + model.gasket2._hull_window)
    two_n = 2.0**model.n
    rho = model.alpha_sup * two_n
    # the closed form's float error is far below the slack in 4 and 3 above
    geo = k if rho == 1.0 else (rho**k - 1.0) / (rho - 1.0)
    h = model.shift_sup
    if not model.cell_table.any_tensor:
        return delta * 4.0 * h * two_n * geo
    return delta * ((12.0 * two_n + 24.0) * h * geo + 24.0 * rho**k * model.f_sup_bound)


def _check_depth(model: FifModel, depth: int) -> None:
    """Refuse a grid-function depth, before anything is built."""
    if depth < model.n or depth % model.n:
        raise PreconditionError(f"grid depth must be a positive multiple of N={model.n}")
    check_grid_bytes(depth)


class GridFunction:
    """Values on a depth-m product vertex grid with tensor-barycentric
    off-grid extension; the domain and range of the contraction operator.

    values[i, j] belongs to vertex i of the first gasket and vertex j of
    the second at level m, both in the order of the one FactorGrid `grid`;
    `at` and `__call__` read it by address and by point.
    """

    def __init__(
        self, model: FifModel, depth: int, values: np.ndarray = None, grid: FactorGrid = None
    ):
        """`grid`, when given, is the FactorGrid(depth) to index by."""
        _check_depth(model, depth)
        if grid is not None and grid.depth != depth:
            raise PreconditionError(f"grid has depth {grid.depth}, not {depth}")
        self.model = model
        self.depth = depth
        self.grid = FactorGrid(depth) if grid is None else grid
        shape = (len(self.grid.lam[depth]),) * 2
        if values is None:
            values = np.zeros(shape)
        if values.shape != shape:
            raise PreconditionError(f"values must have shape {shape}")
        self.values = values
        #: set by solve_fixed_point: depth/N + 1, the applications of T by
        #: which the plain iteration from zero stops; None otherwise
        self.iterations = None

    def at(self, addr_t: Address, addr_s: Address) -> float:
        return float(self.values[self.grid.index_of(addr_t), self.grid.index_of(addr_s)])

    def __call__(self, t, s) -> float:
        """Off-grid evaluation: bilinear in the barycentric coordinates of
        the containing depth-m cell-pair (`locate_many`), from its nine corner values."""
        w1, lam = _descend(self.model.gasket1, (t,), self.depth)
        w2, mu = _descend(self.model.gasket2, (s,), self.depth)
        i, j = (np.ravel_multi_index(w - 1, (3,) * self.depth)[0] for w in (w1, w2))
        cells = self.grid.cells[self.depth]
        corner = self.values[np.ix_(cells[i], cells[j])]
        return float(_bilinear_form(corner, lam, mu)[0])

    def _on_grid(self, model: FifModel, values: np.ndarray) -> "GridFunction":
        """A grid function of `model` on this one's grids."""
        out = copy.copy(self)
        out.model, out.values, out.iterations = model, values, None
        return out

    def copy(self) -> "GridFunction":
        return self._on_grid(self.model, self.values.copy())


#: rows of a restriction that _gather copies at a time
_GATHER_ROWS = 64


def _gather(values: np.ndarray, idx, out: np.ndarray) -> None:
    """Copy values[idx][:, idx] into `out`, _GATHER_ROWS rows at a time,
    with no temporary of its full size."""
    for lo in range(0, len(idx), _GATHER_ROWS):
        out[lo : lo + _GATHER_ROWS] = values[np.ix_(idx[lo : lo + _GATHER_ROWS], idx)]


def rb_apply(model: FifModel, g: GridFunction) -> GridFunction:
    """One application of the contraction operator T on a grid function.

    Each grid vertex is pulled back through its lexicographically smallest
    containing depth-N cell-pair; the preimages of grid vertices are grid
    vertices of level m-N, so the application is exact.
    """
    if g.depth < model.n:
        raise PreconditionError("grid depth must be at least N")
    k = g.depth - model.n
    idx = g.grid.restriction(k, g.depth)
    f = np.empty((len(idx),) * 2)
    _gather(g.values, idx, f)
    return g._on_grid(model, level_step(model, g.grid, k, f, np.empty_like(g.values)))


def solve_fixed_point(model: FifModel, depth: int, tol: float) -> GridFunction:
    """The fixed point of T on the depth-`depth` grid: product_values'
    matrix.

    T^j 0 holds the exact values on the level jN vertices, so the plain
    iteration g -> T g from zero reaches the recursion's values bit for
    bit at application depth/N, and the next application changes
    nothing: whatever tol, that iteration stops by application depth/N +
    1, which `iterations` reports.  The values carry no iteration error;
    `tol` must be positive and bounds nothing further.
    """
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    _check_depth(model, depth)
    fg, _, values = product_values(model, depth)
    g = GridFunction(model, depth, values, grid=fg)
    g.iterations = depth // model.n + 1
    return g


@dataclass(frozen=True)
class GraphSample:
    """One point of the graph of f produced by the chaos game."""

    t: tuple
    s: tuple
    value: float


@dataclass(frozen=True, eq=False)
class GraphSamples:
    """Graph samples held as arrays: t (P, 2), s (P, 2) and value (P,).

    Behaves as a sequence of GraphSample: integer indexing and iteration
    build GraphSample objects with tuples of Python floats, slicing gives
    a GraphSamples, and == compares all arrays with one bool.  Iteration
    converts the arrays to Python floats one block of CHAOS_ORBITS samples
    at a time, so it holds O(CHAOS_ORBITS) Python objects, not O(P).
    """

    t: np.ndarray
    s: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return GraphSamples(self.t[i], self.s[i], self.value[i])
        return GraphSample(
            tuple(self.t[i].tolist()), tuple(self.s[i].tolist()), float(self.value[i])
        )

    def __iter__(self):
        for lo in range(0, len(self), CHAOS_ORBITS):
            hi = lo + CHAOS_ORBITS
            block = zip(self.t[lo:hi].tolist(), self.s[lo:hi].tolist(), self.value[lo:hi].tolist())
            for t, s, v in block:
                yield GraphSample(tuple(t), tuple(s), v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphSamples):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.value, other.value)
        )

    __hash__ = None


#: independent orbits the chaos game steps in lock-step
CHAOS_ORBITS = 1024


def chaos_game(
    model: FifModel, count: int, seed: int, burn_in: int = 100
) -> GraphSamples:
    """Random iteration of the lifted maps, started on the graph.

    min(count, CHAOS_ORBITS) independent orbits are stepped in lock-step.
    Each starts at (p1, q1, 0), which lies on the graph because f vanishes
    at corner pairs and stays on it under every map, and discards its own
    first `burn_in` points.  Orbits move in barycentric coordinates, the
    same on both gaskets; a kept point is lam @ corner_array.  Sample
    j*orbits + i is the j-th kept point of orbit i.  Cell-pairs are drawn
    uniformly; the stream is deterministic for a fixed seed, which must be
    non-negative (numpy's rule) or raises PreconditionError.  A count whose
    sample arrays, steps x orbits x 5 floats, would pass GRID_BYTES raises
    CapacityError before anything is allocated.
    """
    if count <= 0:
        raise PreconditionError("count must be positive")
    if burn_in < 0:
        raise PreconditionError("burn_in must be non-negative")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    orbits = min(count, CHAOS_ORBITS)
    steps = -(-count // orbits)
    if (size := 5 * 8 * steps * orbits) > GRID_BYTES:
        raise CapacityError(f"{count} chaos samples need {size} bytes, over {GRID_BYTES}")
    table = model.cell_table
    cells = 9**model.n
    scale = 0.5**model.n
    # the offsets of row c's maps: of the first factor in rows 0-2, of the
    # second in rows 3-5
    i1, i2 = np.divmod(np.arange(cells), 3**model.n)
    offset = np.vstack((table.offset[:, i1], table.offset[:, i2]))
    rng = np.random.default_rng(seed)
    # lam, then mu: one column per orbit
    bary = np.outer((1.0, 0.0, 0.0, 1.0, 0.0, 0.0), np.ones(orbits))
    lam, mu = bary[:3], bary[3:]
    x = np.zeros(orbits)
    t_out = np.empty((steps, orbits, 2))
    s_out = np.empty((steps, orbits, 2))
    v_out = np.empty((steps, orbits))
    for step in range(burn_in + steps):
        c = rng.integers(0, cells, size=orbits)
        x = _exact_step(table, c, x, lam, mu)
        bary = bary * scale + offset.take(c, axis=1)
        lam, mu = bary[:3], bary[3:]
        if step >= burn_in:
            j = step - burn_in
            np.matmul(lam.T, model.gasket1.corner_array, out=t_out[j])
            np.matmul(mu.T, model.gasket2.corner_array, out=s_out[j])
            v_out[j] = x
    return GraphSamples(
        t_out.reshape(-1, 2)[:count], s_out.reshape(-1, 2)[:count], v_out.reshape(-1)[:count]
    )


#: header of every graph CSV: one row per point (t, s, f(t, s))
CSV_HEADER = "t_x,t_y,s_x,s_y,f\n"

#: rows of a graph CSV formatted per write
_CSV_BLOCK_ROWS = 4096


def write_graph_csv(fh, count: int, rows) -> None:
    """Write `count` graph points as CSV to the binary file fh, each value
    as its '%.17g' text (`fileio.format_17g`).  rows(lo, hi) returns rows
    lo to hi - 1 as a (hi - lo, 5) array; they are formatted a block at a
    time, so no Python object is held per row of the file."""
    fh.write(CSV_HEADER.encode("ascii"))
    for lo in range(0, count, _CSV_BLOCK_ROWS):
        fh.write(format_17g(rows(lo, min(lo + _CSV_BLOCK_ROWS, count))))


def samples_to_csv(samples: GraphSamples, path) -> None:
    """Write graph samples with `write_graph_csv`, atomically (temp file +
    rename)."""
    cols = (samples.t, samples.s, samples.value[:, None])
    with atomic_open(path) as fh:
        write_graph_csv(fh, len(samples), lambda lo, hi: np.hstack([c[lo:hi] for c in cols]))
