"""Level-by-level vertex indexing of the gaskets and the vectorized exact
evaluation of the interpolation function on product vertex grids.

The oscillation and box-counting pipeline needs f on every depth-m product
vertex for m up to ~6, which is far too many points for the scalar
evaluator.  Here vertices are indexed level by level, from their exact
integer barycentric numerators, and the defining recursion is applied
to whole index blocks with numpy.  A level step computes its cell-pairs
in groups: small image blocks stacked, several cell-pairs to a group,
large ones one cell-pair at a time in row chunks, and writes each entry
from its owner through the two owner maps of FactorGrid.owners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, PreconditionError
from .gasket import Address, address_numerators, vertex_count

if TYPE_CHECKING:
    from .model import FifModel

#: bytes one level's value matrix may take: depth 7 (86 MB) fits, depth 8 (775 MB) does not.
#: The calls under it hold more, in level-m matrices, and each level step
#: one group's temporaries (_GROUP_BYTES) beside them: product_values, and
#: solve_fixed_point on it, 1 + 9^-N (the level m-N values it steps from),
#: 97 MB at depth 7, N=1, oscillation 2 * 9^-N (the level
#: m-N values and one image block of the last step) plus its 9^n-entry
#: table and its kernel's buffers, 3 x rows x (V + cells) floats for a
#: chunk of rows = analysis._CHUNK_ENTRIES // V of the cells of a V-vertex
#: block (2.5 MB at level 7); box_count holds 2^16 table entries at a time
#: beside the table (1.0 MB at level 7).
GRID_BYTES = 2**28

#: the deepest level whose product grid fits in GRID_BYTES
MAX_GRID_DEPTH = max(m for m in range(32) if 8 * vertex_count(m) ** 2 <= GRID_BYTES)


def check_grid_bytes(depth: int) -> None:
    """Refuse a depth-`depth` product grid past GRID_BYTES before building
    it, by its depth alone: V(depth) of a deep one is a huge integer."""
    if depth > MAX_GRID_DEPTH:
        raise CapacityError(
            f"a depth-{depth} product grid needs over {GRID_BYTES} bytes; "
            f"depth {MAX_GRID_DEPTH} is the deepest that fits"
        )


def word_index(w: str) -> int:
    """Position of the word w among the words of its length in
    lexicographic order (letters 1, 2, 3 read as base-3 digits)."""
    i = 0
    for ch in w:
        i = 3 * i + int(ch) - 1
    return i


class FactorGrid:
    """The vertex index of every level up to `depth`, the same for any
    gasket: lam[k] holds the exact barycentric coordinates of the level-k
    vertices, so a gasket's level-k points are lam[k] @ spec.corner_array.

    child[k][a-1][v] is the index at level k+1 of L_a(vertex v of level k);
    emb[k][v] re-indexes a level-k vertex inside level k+1; cells[k] holds
    the three corner indices of each length-k word cell in lexicographic
    word order.  A level-k vertex is keyed by its first two numerators
    over 2^k, n_1 (2^k + 1) + n_2; `indices_of` looks the keys of the
    deepest level up in their sorted order.
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
        # the sorted keys of the deepest level, and the index of each: at
        # level 0, e_3, e_2, e_1 have the keys 0, 1, 2
        self._keys, self._rank = np.arange(3), np.array([2, 1, 0])
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
            self._keys, self._rank = uniq, rank
            self.cells.append(child_k[:, self.cells[k]].reshape(-1, 3))
            nums = images.reshape(-1, 3)[first[order]]
            self.lam.append(np.ldexp(nums.astype(float), -(k + 1)))  # exact: nums / 2^(k+1)

    def owners(self, k: int, n: int) -> tuple:
        """Owner maps of the step from level k to level k+n: (o, p) with
        o[x] the lexicographically smallest length-n word (by its index in
        words_of_length order) whose image L_w(level k) holds the
        level-(k+n) vertex x, and p[x] the level-k vertex that L_w maps
        to x, for w = words[o[x]].  o is non-decreasing: the
        vertices of L_1's image are numbered first, then the new ones of
        L_2 and L_3, at every level."""
        maps = np.arange(len(self.lam[k]))[None]
        for lvl in range(k, k + n):
            # row i maps level k by L_words[i]: the new letter leads
            maps = self.child[lvl][:, maps].reshape(-1, maps.shape[1])
        # the first occurrence of each index, in word order, is its owner
        _, first = np.unique(maps, return_index=True)
        return np.divmod(first, maps.shape[1])

    def lift(self, idx: np.ndarray, level_from: int, level_to: int) -> np.ndarray:
        """Re-index vertices of a coarse level inside a finer level."""
        for k in range(level_from, level_to):
            idx = self.emb[k][idx]
        return idx

    def restriction(self, k: int, depth: int) -> np.ndarray:
        """Indices at level `depth` of the level-k vertices."""
        return self.lift(np.arange(vertex_count(k)), k, depth)

    def indices_of(self, addresses) -> np.ndarray:
        """Index at level `depth` of the vertex named by each address, -1
        where it names no vertex of that level (`address_numerators`)."""
        base = 2**self.depth + 1
        keys = []
        for a in addresses:
            nums = address_numerators(a, self.depth)
            keys.append(-1 if nums is None else nums[0] * base + nums[1])
        keys = np.array(keys, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._rank[pos], -1)

    def index_of(self, a: Address) -> int:
        """`indices_of` one address; KeyError when it names no vertex of
        level `depth`."""
        i = int(self.indices_of([a])[0])
        if i < 0:
            raise KeyError(str(a))
        return i


#: rows of an image block that a group computes at a time when the block
#: alone holds more than _GROUP_ENTRIES entries
_STEP_ROWS = 64

#: bytes of the temporaries of one group of cell-pairs: six arrays of as
#: many entries as a chunk of _STEP_ROWS rows of a 1024-column block (the
#: blocks, one scratch array, the level-k values tiled across the group's
#: columns, the left operands of the gemms for h and a tensor alpha, and
#: the corner table of one of them while it is built)
_GROUP_BYTES = 6 * 8 * _STEP_ROWS * 1024

#: image-block entries of one group
_GROUP_ENTRIES = _GROUP_BYTES // (6 * 8)


def _row_chunks(rows: int) -> list:
    """(lo, hi) chunks of _STEP_ROWS rows, none of a single row: numpy
    hands a one-row product to gemv, which may round differently from the
    gemm that a whole-block product uses."""
    starts = list(range(0, rows, _STEP_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _groups(nw: int, rows: int) -> tuple:
    """The groups of cell-pairs of a step with nw words per factor and
    rows x rows image blocks, and the row chunks each group computes at a
    time: ([(i0, i1, j0, j1), ...], [(lo, hi), ...]).  A group holds the
    cell-pairs of words i0..i1-1 by j0..j1-1, in row-major cell-pair
    order.  Small blocks stack up to _GROUP_ENTRIES entries: several row
    words by all column words, or one row word by a range of column words.
    When fewer than eight blocks fit, a group is one cell-pair, in
    _row_chunks when its block alone holds more than _GROUP_ENTRIES."""
    block = rows * rows
    # a few stacked blocks save less Python than their gather costs
    if 8 * block > _GROUP_ENTRIES:
        pairs = [(i, i + 1, j, j + 1) for i in range(nw) for j in range(nw)]
        return pairs, _row_chunks(rows) if block > _GROUP_ENTRIES else [(0, rows)]
    if nw * block > _GROUP_ENTRIES:
        step = _GROUP_ENTRIES // block
        groups = [(i, i + 1, j, min(j + step, nw)) for i in range(nw) for j in range(0, nw, step)]
    else:
        step = _GROUP_ENTRIES // (nw * block)
        groups = [(i, min(i + step, nw), 0, nw) for i in range(0, nw, step)]
    return groups, [(0, rows)]


def _images(model: FifModel, lam: np.ndarray, f: np.ndarray, whole: np.ndarray = None):
    """The image blocks alpha_w f + h_w of the step from the level-k values
    f, group by group and chunk by chunk (_groups).

    lam holds the level-k barycentrics.  Yields (group, lo, hi, blocks,
    spare): blocks an (I R, J V) view whose entry [a R + v, b V + u] is
    the block of cell-pair (i0 + a, j0 + b) at row lo + v and column u, R
    = hi - lo, and spare a flat buffer of the blocks' size that is free
    until the next chunk.  The next chunk reuses both.  Given `whole`, a
    level-k matrix, the chunks of one cell-pair are written into its rows
    instead.

    h, and a tensor alpha, is one gemm over the chunk whose inner
    dimension is the 3 of one cell-pair's product, so every entry is
    fl(fl(alpha f) + h) as the cell-pair's own products give it, bit for
    bit.
    """
    table = model.cell_table
    nw, size = 3**model.n, len(f)
    shift = table.shift.reshape(3, 3, nw, nw)
    scale = table.alpha.reshape(3, 3, nw, nw)
    alpha = scale[0, 0]
    tensor = table.is_tensor.reshape(nw, nw)
    groups, chunks = _groups(nw, size)
    i0, i1, j0, j1 = groups[0]
    most = (i1 - i0) * (j1 - j0) * max(hi - lo for lo, hi in chunks) * size
    buf = np.empty(most) if whole is None else None
    scratch = np.empty(most)
    # f once per column word, so that the products run along whole rows
    tiled = np.tile(f, j1 - j0) if j1 - j0 > 1 else f
    lamt = lam.T
    views = {}

    def chunk_views(ni, nj):
        # per chunk of a group of I x J cell-pairs: its rows of h, the
        # blocks and the scratch as (I, R, J V) for the products and as the
        # gemm's (I R J, V) rows, its level-k values, and the blocks and the
        # scratch as yielded
        out = []
        for lo, hi in chunks:
            shape = (ni, hi - lo, nj * size)
            n = shape[0] * shape[1] * shape[2]
            dst = (buf[:n] if whole is None else whole[lo:hi]).reshape(shape)
            spare = scratch[:n].reshape(shape)
            out.append((
                lo, hi, slice(lo * nj, hi * nj) if ni == 1 else slice(None),
                dst, spare, dst.reshape(-1, size), spare.reshape(-1, size),
                tiled[None, lo:hi, : nj * size], dst.reshape(ni * (hi - lo), -1), scratch[:n],
            ))
        return out

    def left(corners, ni):
        # the rows (a, v, b) of the gemm, lam[v] @ corners[:, :, a, b]: one
        # product of lam and a 3 x 3J matrix per row word
        right = np.ascontiguousarray(corners.transpose(2, 0, 3, 1)).reshape(ni, 3, -1)
        return np.matmul(lam, right).reshape(-1, 3)

    for group in groups:
        i0, i1, j0, j1 = group
        ni, nj = i1 - i0, j1 - j0
        cells = (slice(None), slice(None), slice(i0, i1), slice(j0, j1))
        h = left(shift[cells], ni)
        factor = alpha[i0, j0]
        if ni * nj > 1:
            factor = np.repeat(alpha[i0:i1, j0:j1], size, axis=1)[:, None]
        tensors = tensor[i0:i1, j0:j1]
        sc = constant = None
        if table.any_tensor and tensors.any():
            sc = left(scale[cells], ni)
            if not tensors.all():
                constant = ~np.repeat(tensors, size, axis=1)[:, None]
        if (ni, nj) not in views:
            views[ni, nj] = chunk_views(ni, nj)
        for lo, hi, rows, out, spare, out_rows, spare_rows, fr, blocks, flat in views[ni, nj]:
            np.matmul(h[rows], lamt, out=out_rows)
            if sc is None:
                np.multiply(fr, factor, out=spare)
            else:
                np.matmul(sc[rows], lamt, out=spare_rows)
                spare *= fr
                if constant is not None:
                    np.multiply(fr, factor, out=spare, where=constant)
            out += spare
            yield group, lo, hi, blocks, flat


def _owned_runs(o: np.ndarray, p: np.ndarray, nw: int) -> list:
    """For each of the nw words, the runs (x0, x1, q0) of consecutive
    positions that it owns: o[x0:x1] is the word and p[x0:x1] ==
    range(q0, q0 + x1 - x0)."""
    cut = np.flatnonzero((np.diff(p) != 1) | (np.diff(o) != 0)) + 1
    bounds = [0, *cut.tolist(), len(p)]
    runs = [[] for _ in range(nw)]
    for x0, x1 in zip(bounds, bounds[1:]):
        runs[o[x0]].append((x0, x1, int(p[x0])))
    return runs


def step_blocks(model: FifModel, fg: FactorGrid, k: int, f: np.ndarray):
    """One step of the defining recursion, from level k to level k+N, as
    rectangles of the level-(k+N) value matrix.

    f holds values at the level-k product vertices of the index fg; every
    level-(k+N) vertex pair (x, y) is L_w1(v) x L_w2(u) for some cell-pair
    (w1, w2) of length N, and gets alpha_w(v, u) f[v, u] + h_w(v, u) from
    the cell-pair that owns it: the lexicographically smallest containing
    one, words o[x] and o[y] at positions v = p[x] and u = p[y]
    (FactorGrid.owners).  The cell-pairs step in groups (_groups).  A
    group of several cell-pairs gathers the rectangle of vertex pairs its
    words own from its stacked blocks.  A group of one cell-pair, maybe
    of some of its rows only, yields views of its block, one per pair of
    runs of consecutive positions that it owns.

    Yields (rows, cols, block) with rows and cols slices of the
    level-(k+N) matrix and block its new values there; every entry is in
    exactly one rectangle, in no fixed order.  block is a view of a buffer
    that the next rectangle may reuse.
    """
    size, nw = len(f), 3**model.n
    o, p = fg.owners(k, model.n)
    # o is sorted: word i owns the vertices start[i]..start[i+1]-1
    start = np.searchsorted(o, np.arange(nw + 1)).tolist()
    runs = _owned_runs(o, p, nw)
    # per word, its runs as (level-(k+N) indices, block positions)
    cols = [[(slice(y0, y1), slice(u0, u0 + y1 - y0)) for y0, y1, u0 in word] for word in runs]
    for (i0, i1, j0, j1), lo, hi, flat, spare in _images(model, fg.lam[k], f):
        # gathered rows go to spare, gathered columns to whichever of spare
        # and the blocks' own buffer their rows are not read from
        rect = spare
        if i1 - i0 > 1:
            xs = slice(start[i0], start[i1])
            r = (o[xs] - i0) * size + p[xs]
            part = spare[: len(r) * flat.shape[1]].reshape(len(r), -1)
            np.take(flat, r, axis=0, out=part, mode="clip")
            row_parts, rect = [(xs, part)], flat.reshape(-1)
        else:
            row_parts = []
            for x0, x1, q0 in runs[i0]:
                # the positions lo..hi-1 of the chunk that the run holds
                a0, a1 = max(q0, lo), min(q0 + x1 - x0, hi)
                if a0 < a1:
                    row_parts.append((slice(x0 + a0 - q0, x0 + a1 - q0), flat[a0 - lo : a1 - lo]))
        if j1 - j0 == 1:
            for xs, part in row_parts:
                for ys, us in cols[j0]:
                    yield xs, ys, part[:, us]
            continue
        ys = slice(start[j0], start[j1])
        c = (o[ys] - j0) * size + p[ys]
        for xs, part in row_parts:
            out = rect[: len(part) * len(c)].reshape(len(part), -1)
            np.take(part, c, axis=1, out=out, mode="clip")
            yield xs, ys, out


def image_blocks(model: FifModel, fg: FactorGrid, k: int, f: np.ndarray):
    """The whole image blocks of the step from level k to level k+N.

    For the cell-pair (w1, w2) of length N, the i-th and j-th words in
    lexicographic order, yields (i, j, block) with block[v, u] =
    alpha_w(v, u) f[v, u] + h_w(v, u) for every level-k vertex pair, the
    value at L_w1(v) x L_w2(u), computed as step_blocks computes it, in
    row-major cell-pair order.  block is a view of a buffer that the next
    group of cell-pairs (_groups) reuses.

    An entry that another cell-pair owns lies on a junction: v or u is a
    gasket corner p_c, where f vanishes (the data are zero on the
    boundary), and the shift there is row (or column) c of h_w, the data
    the owner reads too.  So every entry of block equals the level-(k+N)
    value, not only the owned ones.
    """
    size = len(f)
    if size * size > _GROUP_ENTRIES:
        # one cell-pair's row chunks, written into one whole block
        whole = np.empty_like(f)
        for (i0, _, j0, _), _, hi, _, _ in _images(model, fg.lam[k], f, whole):
            if hi == size:
                yield i0, j0, whole
        return
    for (i0, i1, j0, j1), _, _, blocks, _ in _images(model, fg.lam[k], f):
        for a in range(i1 - i0):
            for b in range(j1 - j0):
                yield i0 + a, j0 + b, blocks[a * size : (a + 1) * size, b * size : (b + 1) * size]


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
