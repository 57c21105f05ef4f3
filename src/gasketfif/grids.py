"""Level-by-level vertex indexing of the gaskets and the vectorized exact
evaluation of the interpolation function on product vertex grids.

The oscillation and box-counting pipeline needs f on every depth-m product
vertex for m up to ~6, which is far too many points for the scalar
evaluator.  Here vertices are indexed level by level, from their exact
integer barycentric numerators, and the defining recursion is applied
to whole index blocks with numpy.  One image kernel computes, for one
row word at a time, chunks of rows of its image blocks with a slice of
the column words; a level step takes every column word and writes each
entry from its owner through the two owner maps of FactorGrid.owners,
and image_blocks hands out whole blocks.
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
#: the image kernel's two buffers (_STEP_ENTRIES each) beside them:
#: product_values, and solve_fixed_point on it, 1 + 9^-N (the level m-N
#: values it steps from), 97 MB at depth 7, N=1, oscillation 2 * 9^-N (the
#: level m-N values and one image block of the last step) plus its 9^n-entry
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


def is_word(w, n: int) -> bool:
    """Whether w is a word of length n over 1, 2, 3: word_index would read
    any other string as another word or past the words of length n."""
    return isinstance(w, str) and len(w) == n and not w.strip("123")


def word_index(w: str) -> int:
    """Position of the word w among the words of its length in
    lexicographic order (letters 1, 2, 3 read as base-3 digits)."""
    i = 0
    for ch in w:
        i = 3 * i + int(ch) - 1
    return i


def word_codes(letters: np.ndarray, n: int) -> np.ndarray:
    """`word_index` on arrays: the (P, L / n) int64 indices of the n-letter
    blocks of a (P, L) array of letters 1..3, L a multiple of n."""
    codes = np.zeros((len(letters), letters.shape[1] // n), dtype=np.int64)
    for k in range(n):
        codes = 3 * codes + (letters[:, k::n] - 1)
    return codes


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
        self._plans = {}  # step_plan's, by (k, n)
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

    def step_plan(self, k: int, n: int) -> tuple:
        """The index work of level_step from level k to k+n, the same for
        every model, built on the first call and held by the grid: (rows,
        cols, gather), rows[w] the runs (x0, x1, q0) that row word w owns,
        cols every run (w, ys, us) as slices, and gather = o V_k + p."""
        if (k, n) not in self._plans:
            o, p = self.owners(k, n)
            runs = _runs(o, p)
            rows = [[] for _ in range(3**n)]
            for w, x0, x1, q0 in runs:
                rows[w].append((x0, x1, q0))
            cols = [(w, slice(y0, y1), slice(u0, u0 + y1 - y0)) for w, y0, y1, u0 in runs]
            self._plans[k, n] = rows, cols, o * len(self.lam[k]) + p
        return self._plans[k, n]

    def lift(self, idx: np.ndarray, level_from: int, level_to: int) -> np.ndarray:
        """Re-index vertices of a coarse level inside a finer level."""
        for k in range(level_from, level_to):
            idx = self.emb[k][idx]
        return idx

    def restrict(self, f: np.ndarray, m: int, depth: int) -> np.ndarray:
        """The level-`depth` values f restricted to the level-m vertices:
        f itself when m == depth."""
        if m == depth:
            return f
        idx = self.lift(np.arange(vertex_count(m)), m, depth)
        return f[np.ix_(idx, idx)]

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


#: entries of each of the image kernel's two buffers, the image rows it
#: writes at a time and a scratch array: with f's rows they stay in a 2 MiB
#: L2 cache (at 2^16, the N=1 image blocks of level 5 took 40% longer)
_STEP_ENTRIES = 2**15


def _row_chunks(rows: int, size: int) -> list:
    """(lo, hi) chunks of `size` rows (two when size < 2), none of a
    single row: numpy hands a one-row product to gemv, which may round
    differently from the gemm that a whole-block product uses."""
    starts = list(range(0, rows, max(size, 2)))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _row_word(model: FifModel, lam: np.ndarray, i: int) -> tuple:
    """The operands of the image kernel for the blocks (i, j) of row word
    i, lam the level-k barycentrics: (h, scale, alpha, tensor).

    h[j, v] = lam[v] @ the shift's corners of cell-pair (i, j), for every
    column word j, from one (V, 3) x (3, 3 * 3^N) gemm, laid out (3^N, V,
    3); scale the same of the scaling's corners when some (i, j) has a
    tensor alpha, else None; alpha[j] the constant of (i, j) and
    tensor[j] whether it is a tensor.
    """
    table = model.cell_table
    nw = 3**model.n
    cells = slice(i * nw, (i + 1) * nw)

    def left(corners):
        # (V, 3) x (3, 3 * 3^N), the right operand's columns (b, j) nine
        # contiguous rows of the table
        rows = lam @ corners[:, :, cells].reshape(3, -1)
        return np.ascontiguousarray(rows.reshape(len(lam), 3, nw).transpose(2, 0, 1))

    tensor = table.is_tensor[cells]
    scale = left(table.alpha) if table.any_tensor and tensor.any() else None
    return left(table.shift), scale, table.alpha[0, 0, cells], tensor


def _image_rows(word: tuple, f: np.ndarray, lamt: np.ndarray, js: slice, lo: int, out, spare):
    """Rows lo..lo+R-1 of the image blocks alpha_w f + h_w of row word i
    (`_row_word`) and the column words j of `js`, from the level-k values
    f, into the C-contiguous (J, R, V) array out: out[b, r] is row lo + r
    of block (i, js.start + b).  lamt is lam.T, C-contiguous (a transposed
    operand slows the gemm), and spare a flat array of out's size or more.

    h is one gemm over all J R rows whose inner dimension is the 3 of one
    cell-pair's product, and so is a tensor alpha; so every entry is
    fl(fl(alpha f) + h) as the cell-pair's own products give it, bit for
    bit.
    """
    h, scale, alpha, tensor = word
    rows, size = slice(lo, lo + out.shape[1]), out.shape[2]
    fr, part = f[None, rows], spare[: out.size].reshape(out.shape)
    np.matmul(np.ascontiguousarray(h[js, rows]).reshape(-1, 3), lamt, out=out.reshape(-1, size))
    if scale is None or not tensor[js].any():
        np.multiply(fr, alpha[js, None, None], out=part)
    else:
        left = np.ascontiguousarray(scale[js, rows]).reshape(-1, 3)
        np.matmul(left, lamt, out=part.reshape(-1, size))
        part *= fr
        np.multiply(fr, alpha[js, None, None], out=part, where=~tensor[js, None, None])
    out += part


def _runs(o: np.ndarray, p: np.ndarray) -> list:
    """The runs (w, x0, x1, q0) of the owner maps o, p of a step, in order
    of x: word w owns the positions x0..x1-1, o[x0:x1] == w, and p[x0:x1]
    == range(q0, q0 + x1 - x0)."""
    cut = np.flatnonzero((np.diff(p) != 1) | (np.diff(o) != 0)) + 1
    bounds = [0, *cut.tolist(), len(p)]
    return [(int(o[x0]), x0, x1, int(p[x0])) for x0, x1 in zip(bounds, bounds[1:])]


def level_step(
    model: FifModel, fg: FactorGrid, k: int, f: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """One step of the defining recursion, from the level-k values f into
    the level-(k+N) matrix `out`, C-contiguous; returns out.

    f holds values at the level-k product vertices of the index fg; every
    level-(k+N) vertex pair (x, y) is L_w1(v) x L_w2(u) for some cell-pair
    (w1, w2) of length N, and gets alpha_w(v, u) f[v, u] + h_w(v, u) from
    the cell-pair that owns it: the lexicographically smallest containing
    one, words o[x] and o[y] at positions v = p[x] and u = p[y]
    (FactorGrid.owners).  Row word by row word, the kernel writes chunks
    of rows of its blocks with every column word (_image_rows); the owned
    rows go out by runs of consecutive positions, their columns by the
    same runs or, where the runs outnumber the chunk's rows, by one gather
    per row run from the chunk transposed to (R, J V): the grid's
    step_plan, built once per (k, N).
    """
    size, nw = len(f), 3**model.n
    lam = fg.lam[k]
    lamt = np.ascontiguousarray(lam.T)
    rows, cols, gather = fg.step_plan(k, model.n)
    chunks = _row_chunks(size, _STEP_ENTRIES // (nw * size))
    most = nw * size * max(hi - lo for lo, hi in chunks)
    buf, spare = np.empty(most), np.empty(most)
    for i in range(nw):
        word = _row_word(model, lam, i)
        for lo, hi in chunks:
            r = hi - lo
            blocks = buf[: nw * r * size].reshape(nw, r, size)
            _image_rows(word, f, lamt, slice(None), lo, blocks, spare)
            parts = []
            for x0, x1, q0 in rows[i]:
                # the positions lo..hi-1 of the chunk that the run holds
                a0, a1 = max(q0, lo), min(q0 + x1 - x0, hi)
                if a0 < a1:
                    parts.append((slice(x0 + a0 - q0, x0 + a1 - q0), a0 - lo, a1 - lo))
            if len(cols) > r:
                flat = spare[: blocks.size].reshape(r, -1)
                np.copyto(flat.reshape(r, nw, size), blocks.transpose(1, 0, 2))
                for xs, a0, a1 in parts:
                    np.take(flat[a0:a1], gather, axis=1, out=out[xs], mode="clip")
            else:
                for xs, a0, a1 in parts:
                    for w, ys, us in cols:
                        out[xs, ys] = blocks[w, a0:a1, us]
    return out


def image_blocks(model: FifModel, fg: FactorGrid, k: int, f: np.ndarray):
    """The whole image blocks of the step from level k to level k+N.

    For the cell-pair (w1, w2) of length N, the i-th and j-th words in
    lexicographic order, yields (i, j, block) with block[v, u] =
    alpha_w(v, u) f[v, u] + h_w(v, u) for every level-k vertex pair, the
    value at L_w1(v) x L_w2(u), computed as level_step computes it, in
    row-major cell-pair order.  block is a view of a buffer that a later
    cell-pair overwrites: the kernel writes one column word's block in row
    chunks, or the blocks of as many column words as fit its budget.

    An entry that another cell-pair owns lies on a junction: v or u is a
    gasket corner p_c, where f vanishes (the data are zero on the
    boundary), and the shift there is row (or column) c of h_w, the data
    the owner reads too.  So every entry of block equals the level-(k+N)
    value, not only the owned ones.
    """
    size, nw = len(f), 3**model.n
    lam = fg.lam[k]
    lamt = np.ascontiguousarray(lam.T)
    # blocks that fit the budget whole go several column words at a time
    nj = max(1, min(nw, _STEP_ENTRIES // size**2))
    chunks = _row_chunks(size, _STEP_ENTRIES // size)
    blocks = np.empty((nj, size, size))
    spare = np.empty(nj * size * max(hi - lo for lo, hi in chunks))
    for i in range(nw):
        word = _row_word(model, lam, i)
        for j0 in range(0, nw, nj):
            js = slice(j0, min(j0 + nj, nw))
            out = blocks[: js.stop - j0]
            for lo, hi in chunks:
                _image_rows(word, f, lamt, js, lo, out[:, lo:hi], spare)
            for b, block in enumerate(out):
                yield i, j0 + b, block


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
        f = data_fg.restrict(data, start, n)
    for k in range(start, depth, n):
        f = level_step(model, fg, k, f, np.empty((len(fg.lam[k + n]),) * 2))
    return fg, fg, f
