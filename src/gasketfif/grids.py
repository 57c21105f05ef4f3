"""Level-by-level vertex indexing of the gaskets and the vectorized exact
evaluation of the interpolation function on product vertex grids.

The oscillation and box-counting pipeline needs f on every depth-m product
vertex for m up to ~6, which is far too many points for the scalar
evaluator.  Here vertices are indexed level by level, from their exact
integer barycentric numerators, and the defining recursion is applied
to whole index blocks with numpy, one cell-pair at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, PreconditionError
from .gasket import Address, vertex_count, words_of_length

if TYPE_CHECKING:
    from .model import FifModel

#: bytes one level's value matrix may take: depth 7 (86 MB) fits, depth 8 (775 MB) does not.
#: The calls under it hold more, in level-m matrices: product_values 1 + 9^-N
#: (the level m-N values it steps from), solve_fixed_point 1 + 9^-N + 81^-N
#: (the level m-N values it steps from or compares with, or its copy of their
#: restriction; beside a level m-N iterate it rebuilds, the level m-2N one it
#: steps from), 97 MB for both at depth 7, N=1, oscillation 2 * 9^-N (the level
#: m-N values and one image block of the last step) plus its 9^n-entry
#: table; box_count holds 2^16 table entries at a time beside the table
#: (1.0 MB at level 7).
GRID_BYTES = 2**28


def check_grid_bytes(depth: int) -> None:
    """Refuse a depth-`depth` product grid, before building it, past GRID_BYTES."""
    size = 8 * vertex_count(depth) ** 2
    if size > GRID_BYTES:
        raise CapacityError(f"a depth-{depth} product grid needs {size} bytes, over {GRID_BYTES}")


def word_index(w: str) -> int:
    """Position of the word w among the words of its length in
    lexicographic order (letters 1, 2, 3 read as base-3 digits)."""
    i = 0
    for ch in w:
        i = 3 * i + int(ch) - 1
    return i


def _runs(idx: np.ndarray, keep: np.ndarray = None) -> list:
    """(start, stop, first) of each maximal run of consecutive values in
    idx, so that idx[start:stop] == range(first, first + stop - start);
    given a boolean mask `keep`, only the runs of kept positions."""
    cut = np.diff(idx) != 1
    if keep is not None:
        cut |= keep[1:] != keep[:-1]
    cut = np.flatnonzero(cut) + 1
    starts = [0, *cut.tolist()]
    stops = [*cut.tolist(), len(idx)]
    return [
        (a, b, int(idx[a])) for a, b in zip(starts, stops) if keep is None or keep[a]
    ]


class FactorGrid:
    """The vertex index of every level up to `depth`, the same for any
    gasket: lam[k] holds the exact barycentric coordinates of the level-k
    vertices, so a gasket's level-k points are lam[k] @ spec.corner_array.

    child[k][a-1][v] is the index at level k+1 of L_a(vertex v of level k);
    emb[k][v] re-indexes a level-k vertex inside level k+1; cells[k] holds
    the three corner indices of each length-k word cell in lexicographic
    word order.
    """

    def __init__(self, depth: int):
        self.depth = depth
        # level k's vertices as integer barycentric numerators over 2^k: L_a
        # maps numerators n over 2^k to n + 2^k e_a over 2^(k+1), and a
        # vertex keeps its point as 2n over 2^(k+1)
        nums = np.eye(3, dtype=np.int64)
        self.lam = [np.eye(3)]
        self.child = []
        self.emb = []
        self.cells = [np.array([[0, 1, 2]])]
        for k in range(depth):
            images = nums[None] + 2**k * np.eye(3, dtype=np.int64)[:, None]  # (a, v, 3)
            base = 2 ** (k + 1) + 1  # two numerators fix the third
            keys = (images[..., 0] * base + images[..., 1]).ravel()
            uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            # new indices in order of first occurrence, L_1's images first
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            child_k = rank[inverse].reshape(3, -1)
            self.child.append(child_k)
            self.emb.append(rank[np.searchsorted(uniq, 2 * (nums[:, 0] * base + nums[:, 1]))])
            self.cells.append(child_k[:, self.cells[k]].reshape(-1, 3))
            nums = images.reshape(-1, 3)[first[order]]
            self.lam.append(np.ldexp(nums.astype(float), -(k + 1)))  # exact: nums / 2^(k+1)

    def compose(self, k: int, w: str) -> np.ndarray:
        """Index map of L_w from level-k vertices into level k+|w|."""
        idx = np.arange(len(self.lam[k]), dtype=np.intp)
        lvl = k
        for ch in reversed(w):
            idx = self.child[lvl][int(ch) - 1][idx]
            lvl += 1
        return idx

    def owned_runs(self, k: int, n: int) -> list:
        """Ownership table of the step from level k to level k+n.

        A level-(k+n) vertex lies in the images L_w(level k) of one or more
        length-n words w and is owned by the lexicographically smallest of
        them.  Entry i, for the i-th word in lexicographic order, lists the
        runs (start, stop, first) of compose(k, w) that w owns, with
        compose(k, w)[start:stop] == range(first, first + stop - start);
        together they name every level-(k+n) vertex exactly once.
        """
        maps = [self.compose(k, w) for w in words_of_length(n)]
        owner = np.empty(len(self.lam[k + n]), dtype=np.intp)
        for i in reversed(range(len(maps))):
            owner[maps[i]] = i
        return [_runs(idx, owner[idx] == i) for i, idx in enumerate(maps)]

    def lift(self, idx: np.ndarray, level_from: int, level_to: int) -> np.ndarray:
        """Re-index vertices of a coarse level inside a finer level."""
        for k in range(level_from, level_to):
            idx = self.emb[k][idx]
        return idx

    def restriction(self, k: int, depth: int) -> np.ndarray:
        """Indices at level `depth` of the level-k vertices."""
        return self.lift(np.arange(vertex_count(k)), k, depth)

    def index_of(self, a: Address) -> int:
        """Index at level `depth` of the vertex named by the address a;
        KeyError when it is not a vertex of that level.  L_wc(p_c) =
        L_w(p_c), and once w ends in another letter L_w(p_c) is a vertex
        of level |w| and of no coarser one."""
        w = a.word.rstrip(str(a.corner))
        if len(w) > self.depth:
            raise KeyError(str(a))
        return int(self.lift(self.compose(0, w)[a.corner - 1], len(w), self.depth))


#: rows of a cell-pair block that step_blocks computes at a time, so that
#: its temporaries stay in cache
_STEP_ROWS = 64


def _row_chunks(rows: int) -> list:
    """(lo, hi) chunks of _STEP_ROWS rows, none of a single row: numpy
    hands a one-row product to gemv, which may round differently from the
    gemm that a whole-block product uses."""
    starts = list(range(0, rows, _STEP_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _image_chunks(model: FifModel, lam, lamt, f: np.ndarray, c: int, h, out):
    """The image block alpha_w f + h_w of the cell-pair in row c of the
    model's cell_table, one chunk of rows (_row_chunks) at a time.

    lam and lamt are the level-k barycentrics and their transpose, f the
    level-k values.  Yields (lo, hi, rows) with rows the block's rows
    lo..hi-1.  `out` holds either the whole block, whose rows are then
    written in place, or one chunk, which the next reuses; h is scratch of
    one chunk.
    """
    table = model.cell_table
    # unit-stride copies of the (3, 3) slices, so that matmul calls BLAS
    shift = lam @ np.ascontiguousarray(table.shift[:, :, c])
    sc, scale = table.alpha[c], None
    if table.is_tensor[c]:
        scale = lam @ np.ascontiguousarray(table.alpha_tensor[:, :, c])
    whole = len(out) == len(f)
    for lo, hi in _row_chunks(len(f)):
        hb = h[: hi - lo]
        bb = out[lo:hi] if whole else out[: hi - lo]
        np.matmul(shift[lo:hi], lamt, out=hb)
        if scale is None:
            np.multiply(f[lo:hi], sc, out=bb)
        else:
            np.matmul(scale[lo:hi], lamt, out=bb)
            bb *= f[lo:hi]
        bb += hb
        yield lo, hi, bb


def step_blocks(model: FifModel, fg: FactorGrid, k: int, f: np.ndarray):
    """One step of the defining recursion, from level k to level k+N, as
    rectangles of the level-(k+N) value matrix.

    f holds values at the level-k product vertices of the index fg; every
    level-(k+N) vertex pair is L_w1(v) x L_w2(u) for some cell-pair
    (w1, w2) of length N, and gets alpha_w(v, u) f[v, u] + h_w(v, u) from
    the cell-pair that owns it: the lexicographically smallest containing
    one (FactorGrid.owned_runs in each factor).  Yields (rows, cols, block)
    with rows and cols slices of the level-(k+N) matrix and block its new
    values there; every entry is in exactly one rectangle, in no fixed
    order.  block is a view of a buffer that the next rectangle reuses.
    """
    lam = fg.lam[k]
    # each owned part of an index map L_w is a few runs of consecutive
    # indices (FactorGrid numbers the images of L_1, L_2, L_3 in turn), so a
    # block is written as a few rectangular slices, not element by element
    runs = fg.owned_runs(k, model.n)
    h = np.empty((_STEP_ROWS + 1, f.shape[1]))
    block = np.empty_like(h)
    nw = 3**model.n
    for i in range(nw):
        for j in range(nw):
            for lo, hi, bb in _image_chunks(model, lam, lam.T, f, i * nw + j, h, block):
                for a0, a1, r0 in runs[i]:
                    x0, x1 = max(a0, lo), min(a1, hi)
                    if x0 >= x1:
                        continue
                    rows = slice(r0 + x0 - a0, r0 + x1 - a0)
                    for b0, b1, c0 in runs[j]:
                        yield rows, slice(c0, c0 + b1 - b0), bb[x0 - lo : x1 - lo, b0:b1]


def image_blocks(model: FifModel, fg: FactorGrid, k: int, f: np.ndarray):
    """The whole image blocks of the step from level k to level k+N.

    For the cell-pair (w1, w2) of length N, the i-th and j-th words in
    lexicographic order, yields (i, j, block) with block[v, u] =
    alpha_w(v, u) f[v, u] + h_w(v, u) for every level-k vertex pair, the
    value at L_w1(v) x L_w2(u), computed as step_blocks computes it.
    block is one buffer, reused for every cell-pair.

    An entry that another cell-pair owns lies on a junction: v or u is a
    gasket corner p_c, where f vanishes (the data are zero on the
    boundary), and the shift there is row (or column) c of h_w, the data
    the owner reads too.  So every entry of block equals the level-(k+N)
    value, not only the owned ones.
    """
    lam = fg.lam[k]
    h = np.empty((_STEP_ROWS + 1, f.shape[1]))
    block = np.empty_like(f)
    nw = 3**model.n
    for i in range(nw):
        for j in range(nw):
            for _ in _image_chunks(model, lam, lam.T, f, i * nw + j, h, block):
                pass
            yield i, j, block


def level_step(
    model: FifModel, fg: FactorGrid, k: int, f: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """One step of the defining recursion (see step_blocks), from the
    level-k values f into the level-(k+N) matrix `out`."""
    for rows, cols, block in step_blocks(model, fg, k, f):
        out[rows, cols] = block
    return out


def level_steps(
    model: FifModel, fg: FactorGrid, k: int, depth: int, f: np.ndarray
) -> np.ndarray:
    """The level steps from the level-k values f up to level `depth`, each
    into a new matrix; f itself when k == depth."""
    for k in range(k, depth, model.n):
        f = level_step(model, fg, k, f, np.empty((len(fg.lam[k + model.n]),) * 2))
    return f


def product_values(model: FifModel, depth: int):
    """Exact values of f at all depth-`depth` product vertices, any depth >= 1.

    Returns (fg, fg, F), the one FactorGrid once per factor, where F[v, w]
    = f(vertex v of the first gasket, vertex w of the second) at that
    level.  The steps from level k to k+N start at depth mod N, whose
    vertices lie in V_N and carry the data grid's values.
    """
    n = model.n
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    check_grid_bytes(depth)
    fg = FactorGrid(depth)
    f = np.zeros((3, 3))  # f vanishes at corner pairs
    if start := depth % n:
        data_fg, _, data = product_values(model, n)
        idx = data_fg.restriction(start, n)
        f = data[np.ix_(idx, idx)]
    return fg, fg, level_steps(model, fg, start, depth, f)
