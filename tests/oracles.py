"""Scalar oracles: the cell-pair maps, read one row of FifModel.cell_table
at a time by word pair, as Python floats from the stored arrays, and
evaluated by their own `bilinear9`; the barycentric map `bary`, in Python
floats on the gasket's stored inverse (neither goes through
`model._bilinear_form`, `gasket.bary_f` or `eval_approx`'s rows); the
sequential descent of one point that `gasket.locate_many` runs on arrays
(the scalar `descend` the library had, its start on `bary`),
`GridFunction.__call__` and the truncated unrolling of
`evaluator.eval_approx` on that descent, the scalar recursion that the
array `evaluator.eval_exact` replaces, the data set keyed by canonical
vertex pairs that `model.DataSet` holds as a matrix, the dict-keyed
vertex index that `grids.FactorGrid` builds with array ops, the level
step one cell-pair at a time that `grids.level_step` computes one row
word at a time with every column word, `FactorGrid`'s index maps one
letter at a time, the cell oscillation kernel with fresh temporaries per
chunk that `analysis._cell_oscillation` replaces, the descent gates that
`gasket._descent_start` writes out, through `bary_f` and `_window_start`
on one-element arrays, the cloud count that bins by `np.unique` at every
level, where `analysis.box_count_cloud` bins into a dense table at low
levels, the box count of an oscillation table in Python integers, the
vertex list that `gasket.enumerate_vertices` writes in closed form, by
canonicalizing, deduplicating and sorting every address, and the `grid`
CSV that the CLI writes from slots filled once per coordinate, by '%'
one row at a time.  Word positions come from `word_rows` and
`word_positions`, not from `grids.word_index` or `grids.word_codes`."""

import functools
import itertools
import math

import numpy as np

from gasketfif.analysis import _common_side
from gasketfif.errors import CapacityError, DomainError, PreconditionError, ValidationError
from gasketfif.evaluator import _input_rounding_bound
from gasketfif.gasket import (
    Address,
    MAX_DESCENT_DEPTH,
    MAX_WINDOW,
    SNAP_TOL,
    _check_depth,
    _hole_error,
    _window_error,
    _window_start,
    address_bary,
    bary_f,
    canonicalize,
    locate_many,
)
from gasketfif.grids import product_values
from gasketfif.model import ProductVertex, _bilinear_form, words_of_length


@functools.cache
def word_rows(n: int) -> dict:
    """The index of each word of length n in `words_of_length` order."""
    return {w: i for i, w in enumerate(words_of_length(n))}


def row(model, omega: str, eta: str) -> int:
    """The cell_table row c = i * 3**N + j of the cell-pair (omega, eta)."""
    index = word_rows(model.n)
    return index[omega] * len(index) + index[eta]


def shift_corners(model, omega: str, eta: str) -> np.ndarray:
    """The 3x3 corner values of h_{omega eta}."""
    return model.cell_table.shift[:, :, row(model, omega, eta)]


def bilinear9(c, lam, mu) -> float:
    """lam^T C mu for the 3x3 cell C given as 9 row-major floats, term by
    term in the order of `model._bilinear_form`."""
    m0, m1, m2 = mu
    return (
        lam[0] * (c[0] * m0 + c[1] * m1 + c[2] * m2)
        + lam[1] * (c[3] * m0 + c[4] * m1 + c[5] * m2)
        + lam[2] * (c[6] * m0 + c[7] * m1 + c[8] * m2)
    )


def shift_value(model, c: int, lam, mu) -> float:
    """h of cell_table row c at the barycentrics (lam, mu): `bilinear9` of
    its 9 corners as Python floats."""
    return bilinear9(model.cell_table.shift[:, :, c].ravel().tolist(), lam, mu)


def scaling_value(model, c: int, lam, mu) -> float:
    """alpha of cell_table row c at the barycentrics (lam, mu): a constant
    as a Python float, a tensor by `bilinear9` of its 9 corners."""
    table = model.cell_table
    if not table.is_tensor[c]:
        return float(table.alpha[0, 0, c])
    return bilinear9(table.alpha[:, :, c].ravel().tolist(), lam, mu)


def scaling_at(model, omega: str, eta: str, lam, mu) -> float:
    """alpha_{omega eta} at the barycentrics (lam, mu)."""
    return scaling_value(model, row(model, omega, eta), lam, mu)


def shift_at(model, omega: str, eta: str, lam, mu) -> float:
    """h_{omega eta} at the barycentrics (lam, mu)."""
    return shift_value(model, row(model, omega, eta), lam, mu)


def bary(spec, t) -> tuple:
    """The barycentrics of the point t on the gasket spec, in Python
    floats on its stored inverse, in the operation order of
    `gasket.bary_f`: (a_i0 x + a_i1 y) + a_i2."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = spec._bary_inv
    x, y = float(t[0]), float(t[1])
    return a0 * x + a1 * y + a2, a3 * x + a4 * y + a5, a6 * x + a7 * y + a8


def eval_scaling(model, omega: str, eta: str, t, s) -> float:
    """alpha_{omega eta}(t, s) for preimage coordinates (t, s)."""
    return scaling_at(model, omega, eta, bary(model.gasket1, t), bary(model.gasket2, s))


def eval_shift(model, omega: str, eta: str, t, s) -> float:
    """h_{omega eta}(t, s) for preimage coordinates (t, s)."""
    return shift_at(model, omega, eta, bary(model.gasket1, t), bary(model.gasket2, s))


def descend_oracle(spec, t, depth: int) -> tuple:
    """The descent of `gasket.locate_many` for one point, by its full
    rule: at every level, the first letter a for which every coordinate of
    2 lam - e_a is at least -eff.  Returns the word and the barycentric
    triple of t in its cell after each letter.

    The start is spelled in Python floats on the stored inverse
    spec._bary_inv and residual spec._bary_residual, in the operation
    order of `gasket._descent_start`: lam = (a_i0 x + a_i1 y) + a_i2, and
    eff = 8 ulp of the largest row of absolute terms plus twice the
    residual, each min and max as Python's builtins compare."""
    _check_depth(depth)
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = spec._bary_inv
    x, y = float(t[0]), float(t[1])
    l0, l1, l2 = bary(spec, t)
    if min(l0, l1, l2) < -SNAP_TOL:
        raise DomainError(f"point {tuple(t)} lies outside the gasket hull")
    peak = max(
        abs(a0 * x) + abs(a1 * y) + abs(a2),
        abs(a3 * x) + abs(a4 * y) + abs(a5),
        abs(a6 * x) + abs(a7 * y) + abs(a8),
    )
    eff = 8.0 * 2.0**-52 * peak + 2.0 * spec._bary_residual
    if eff * 2.0**depth > MAX_WINDOW:
        raise _window_error(t, depth)
    letters = []
    lams = []
    for _ in range(depth):
        eff *= 2.0
        neg = -eff
        d0, d1, d2 = 2.0 * l0, 2.0 * l1, 2.0 * l2
        if d0 - 1.0 >= neg and d1 >= neg and d2 >= neg:
            letters.append("1")
            l0, l1, l2 = d0 - 1.0, d1, d2
        elif d0 >= neg and d1 - 1.0 >= neg and d2 >= neg:
            letters.append("2")
            l0, l1, l2 = d0, d1 - 1.0, d2
        elif d0 >= neg and d1 >= neg and d2 - 1.0 >= neg:
            letters.append("3")
            l0, l1, l2 = d0, d1, d2 - 1.0
        else:
            raise DomainError(
                f"point {tuple(t)} is not on the gasket at depth {len(letters) + 1}"
            )
        lams.append((l0, l1, l2))
    return "".join(letters), lams


def eval_approx_oracle(model, t, s, k: int) -> tuple:
    """`evaluator.eval_approx` sequentially: the whole descent of t, then
    that of s (`descend_oracle`), then one pass over the blocks that reads
    each block's words back through `word_rows`."""
    if k < 1:
        raise PreconditionError("truncation depth k must be >= 1")
    n = model.n
    d = k * n
    if d > MAX_DESCENT_DEPTH:
        raise PreconditionError(
            f"truncation depth k={k} needs {d} letters per factor; float input "
            f"resolves at most {MAX_DESCENT_DEPTH} (k <= {MAX_DESCENT_DEPTH // n} "
            f"for N={n})"
        )
    wt, lams = descend_oracle(model.gasket1, t, d)
    ws, mus = descend_oracle(model.gasket2, s, d)
    index = word_rows(n)
    nw = len(index)
    value = 0.0
    coeff = 1.0
    for lo in range(0, d, n):
        hi = lo + n
        c = index[wt[lo:hi]] * nw + index[ws[lo:hi]]
        lam, mu = lams[hi - 1], mus[hi - 1]
        value += coeff * shift_value(model, c, lam, mu)
        coeff *= scaling_value(model, c, lam, mu)
    bound = abs(coeff) * model.f_sup_bound
    return value, bound + _input_rounding_bound(model, k)


def grid_call_oracle(g, t, s) -> float:
    """`GridFunction.__call__` on `descend_oracle`: the cell-pair of the
    two words, and its nine corner values' bilinear form at the last
    barycentrics."""
    w1, lams = descend_oracle(g.model.gasket1, t, g.depth)
    w2, mus = descend_oracle(g.model.gasket2, s, g.depth)
    cells = g.grid.cells[g.depth]
    index = word_rows(g.depth)
    corner = g.values[np.ix_(cells[index[w1]], cells[index[w2]])]
    return float(_bilinear_form(corner, lams[-1], mus[-1]))


def eval_exact_oracle(model, addr_t, addr_s) -> float:
    """`evaluator.eval_exact` at one vertex pair by its scalar loop: pad
    both words with their corners to one length, a multiple of N, and peel
    N letters per step from the innermost block out."""
    n = model.n
    m = n * -(-max(len(addr_t.word), len(addr_s.word), 1) // n)
    wt = addr_t.word + str(addr_t.corner) * (m - len(addr_t.word))
    ws = addr_s.word + str(addr_s.corner) * (m - len(addr_s.word))
    table = model.cell_table
    index = word_rows(n)
    nw = len(index)
    offsets = table.offset.T.tolist()
    scale = 0.5**n
    lam = tuple(float(c == addr_t.corner) for c in (1, 2, 3))
    mu = tuple(float(c == addr_s.corner) for c in (1, 2, 3))
    x = 0.0
    for lo in range(m - n, -1, -n):
        i, j = index[wt[lo : lo + n]], index[ws[lo : lo + n]]
        c = i * nw + j
        x = scaling_value(model, c, lam, mu) * x + shift_value(model, c, lam, mu)
        o, p = offsets[i], offsets[j]
        lam = (o[0] + scale * lam[0], o[1] + scale * lam[1], o[2] + scale * lam[2])
        mu = (p[0] + scale * mu[0], p[1] + scale * mu[1], p[2] + scale * mu[2])
    return x


def check_lines_oracle(model) -> list:
    """The interpolation, functional-equation and boundary-vanishing lines
    of `cli check`, by the scalar loops that its array calls replace: one
    `eval_exact_oracle` call per point, on the fields that `check` draws
    from default_rng(7), in its order."""

    def line(name, ok, detail):
        return f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")

    def word(letters):
        return "".join(map(str, letters.tolist()))

    bad = 0
    for key, z in model.data.entries.items():
        v = eval_exact_oracle(model, key.first, key.second)
        if not abs(v - z) <= 1e-12 * (1.0 + abs(z)):
            bad += 1
    lines = [line("interpolation", bad == 0, f"{bad} vertices off" if bad else "")]
    rng = np.random.default_rng(7)
    words = words_of_length(model.n)
    tol = 1e-9 * (1.0 + model.f_sup_bound)
    worst = 0.0
    lengths = rng.integers(0, 4, size=(2, 200))
    letters = rng.integers(1, 4, size=(2, 200, 3), dtype=np.int8)
    corners = rng.integers(1, 4, size=(2, 200))
    cells = rng.integers(0, len(words), size=(2, 200))
    for p in range(200):
        at = Address(word(letters[0, p, : lengths[0, p]]), int(corners[0, p]))
        bs = Address(word(letters[1, p, : lengths[1, p]]), int(corners[1, p]))
        i, j = cells[:, p]
        lam, mu = address_bary(at), address_bary(bs)
        lhs = eval_exact_oracle(
            model, Address(words[i] + at.word, at.corner), Address(words[j] + bs.word, bs.corner)
        )
        rhs = scaling_at(model, words[i], words[j], lam, mu) * eval_exact_oracle(
            model, at, bs
        ) + shift_at(model, words[i], words[j], lam, mu)
        worst = np.maximum(worst, abs(lhs - rhs))
    lines.append(line("functional-equation", worst <= tol, f"residual {worst:.3e}"))
    worst = 0.0
    letters = rng.integers(1, 4, size=(100, 4), dtype=np.int8)
    ends = rng.integers(1, 4, size=(2, 100))
    for p in range(100):
        w, c, corner = word(letters[p]), int(ends[0, p]), int(ends[1, p])
        v1 = eval_exact_oracle(model, Address("", corner), Address(w, c))
        v2 = eval_exact_oracle(model, Address(w, c), Address("", corner))
        worst = np.max([worst, abs(v1), abs(v2)])
    lines.append(line("boundary-vanishing", worst <= tol, f"max |f| {worst:.3e}"))
    return lines


def dataset_entries_oracle(triples) -> dict:
    """The {ProductVertex: z} dict of raw (first, second, z) triples, keyed
    by canonical addresses, as `model.DataSet.build` read them before the
    value matrix; two spellings of one pair with different z are refused."""
    entries = {}
    for first, second, z in triples:
        key = ProductVertex(
            *(canonicalize(Address.parse(a) if isinstance(a, str) else a) for a in (first, second))
        )
        z = float(z)
        if key in entries and entries[key] != z:
            raise ValidationError(f"conflicting values {entries[key]} and {z} for vertex {key}")
        entries[key] = z
    return entries


def reduce_dyadic(nums: tuple, level: int) -> tuple:
    """(nums, level) of the dyadic triple nums/2^level in lowest terms: the
    one key of a vertex, whatever address or level it was reached by."""
    while level > 0 and nums[0] % 2 == 0 and nums[1] % 2 == 0 and nums[2] % 2 == 0:
        nums = (nums[0] // 2, nums[1] // 2, nums[2] // 2)
        level -= 1
    return nums, level


def factor_grid_oracle(depth: int) -> tuple:
    """(lam, child, emb, cells) of `grids.FactorGrid(depth)`, built one
    vertex at a time: a level-(k+1) vertex gets the next index when its
    reduced dyadic key is first met, running over L_1, L_2, L_3 in turn and
    the level-k vertices in index order."""
    keys = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)]  # already reduced
    lam, child, emb, cells = [], [], [], [np.array([[0, 1, 2]])]

    def finish_level(keys):
        nums = np.array([key[0] for key in keys], dtype=float)
        levels = np.array([key[1] for key in keys])
        lam.append(np.ldexp(nums, -levels[:, None]))  # exact: nums / 2^level

    finish_level(keys)
    for k in range(depth):
        new_keys = []
        new_index = {}
        child_k = [np.empty(len(keys), dtype=np.intp) for _ in range(3)]
        for a in (1, 2, 3):
            for v, (nums, lev) in enumerate(keys):
                nn = list(nums)
                nn[a - 1] += 2**lev
                key = reduce_dyadic(tuple(nn), lev + 1)
                idx = new_index.get(key)
                if idx is None:
                    idx = len(new_keys)
                    new_index[key] = idx
                    new_keys.append(key)
                child_k[a - 1][v] = idx
        child.append(child_k)
        emb.append(np.array([new_index[key] for key in keys], dtype=np.intp))
        cells.append(np.vstack([child_k[a][cells[k]] for a in range(3)]))
        keys = new_keys
        finish_level(keys)
    return lam, child, emb, cells


#: rows of an image block that image_block_oracle computes at a time
ORACLE_ROWS = 64


def image_block_oracle(model, lam: np.ndarray, f: np.ndarray, c: int) -> np.ndarray:
    """The image block alpha_w f + h_w of cell_table row c on the level-k
    values f, lam the level-k barycentrics: the shift's corners through
    lam, then chunks of ORACLE_ROWS rows, none of a single row (numpy
    hands a one-row product to gemv), each a gemm with lam.T, the scaled
    values and their sum."""
    table = model.cell_table
    shift = lam @ np.ascontiguousarray(table.shift[:, :, c])
    scale = None
    if table.is_tensor[c]:
        scale = lam @ np.ascontiguousarray(table.alpha[:, :, c])
    rows = len(f)
    starts = list(range(0, rows, ORACLE_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    block = np.empty_like(f)
    for lo, hi in zip(starts, starts[1:] + [rows]):
        h = shift[lo:hi] @ lam.T
        if scale is None:
            part = f[lo:hi] * table.alpha[0, 0, c]
        else:
            part = scale[lo:hi] @ lam.T
            part *= f[lo:hi]
        part += h
        block[lo:hi] = part
    return block


def compose(fg, k: int, w: str) -> np.ndarray:
    """Index map of L_w from the level-k vertices of the FactorGrid fg into
    level k+|w|, one letter at a time."""
    idx = np.arange(len(fg.lam[k]), dtype=np.intp)
    lvl = k
    for ch in reversed(w):
        idx = fg.child[lvl][int(ch) - 1][idx]
        lvl += 1
    return idx


def owner_runs_oracle(fg, k: int, n: int) -> list:
    """For each length-n word, in order, the runs (start, stop, first) of
    compose(fg, k, w) that w owns, compose(fg, k, w)[start:stop] ==
    range(first, first + stop - start): a level-(k+n) vertex belongs to the
    smallest word whose image holds it, the images marked one word at a
    time."""
    maps = [compose(fg, k, w) for w in words_of_length(n)]
    owner = np.full(len(fg.lam[k + n]), -1)
    for i, idx in enumerate(maps):
        fresh = idx[owner[idx] == -1]
        owner[fresh] = i
    out = []
    for i, idx in enumerate(maps):
        runs = []
        for a in range(len(idx)):
            if owner[idx[a]] != i:
                continue
            if runs and runs[-1][1] == a and idx[a] == runs[-1][2] + a - runs[-1][0]:
                runs[-1] = (runs[-1][0], a + 1, runs[-1][2])
            else:
                runs.append((a, a + 1, int(idx[a])))
        out.append(runs)
    return out


def level_step_oracle(model, fg, k: int, f: np.ndarray) -> np.ndarray:
    """The level-(k+N) values from the level-k values f, one cell-pair at a
    time: each owned run pair of cell-pair (i, j) copied out of its
    image_block_oracle."""
    n = model.n
    nw = 3**n
    runs = owner_runs_oracle(fg, k, n)
    out = np.full((len(fg.lam[k + n]),) * 2, np.nan)
    for i in range(nw):
        for j in range(nw):
            block = image_block_oracle(model, fg.lam[k], f, i * nw + j)
            for a0, a1, r0 in runs[i]:
                for b0, b1, c0 in runs[j]:
                    out[r0 : r0 + a1 - a0, c0 : c0 + b1 - b0] = block[a0:a1, b0:b1]
    return out


def fixed_point_oracle(model, fg, depth: int, tol: float) -> tuple:
    """(values, iterations) of the plain iteration g -> T g from zeros on
    the depth-`depth` grid, T the level step from the restriction to level
    depth-N, until the sup change is <= tol."""
    k = depth - model.n
    idx = fg.lift(np.arange(len(fg.lam[k])), k, depth)
    g = np.zeros((len(fg.lam[depth]),) * 2)
    iterations = 0
    while True:
        nxt = level_step_oracle(model, fg, k, g[np.ix_(idx, idx)])
        iterations += 1
        change = np.max(np.abs(nxt - g))
        g = nxt
        if change <= tol:
            return g, iterations


def cell_oscillation_oracle(f: np.ndarray, cells, out: np.ndarray) -> np.ndarray:
    """max - min of f over cells[i] x cells[j] for every pair of rows i, j,
    written to out[i, j]; returns out.  Fresh temporaries for every chunk
    of 2.5e5 entries, in the operation order of analysis._cell_oscillation."""
    # max and min over cells[i] x cells[j] separate: reduce f's rows over
    # cells[i], then those columns over cells[j].  Chunks of cells keep
    # each temporary near 2.5e5 elements (2 MB), in cache.
    chunk = max(1, int(2.5e5 // f.shape[1]))
    for lo in range(0, len(cells), chunk):
        rows = cells[lo : lo + chunk]
        top = f[rows[:, 0]]
        bot = top.copy()
        for t in range(1, rows.shape[1]):
            part = f[rows[:, t]]
            np.maximum(top, part, out=top)
            np.minimum(bot, part, out=bot)
        # np.take gathers columns faster than fancy indexing does
        vmax = np.take(top, cells[:, 0], axis=1)
        vmin = np.take(bot, cells[:, 0], axis=1)
        for t in range(1, cells.shape[1]):
            np.maximum(vmax, np.take(top, cells[:, t], axis=1), out=vmax)
            np.minimum(vmin, np.take(bot, cells[:, t], axis=1), out=vmin)
        np.subtract(vmax, vmin, out=out[lo : lo + chunk])
    return out


def descent_start_oracle(spec, t, depth: int) -> tuple:
    """`gasket._descent_start` through the helpers it writes out: lam =
    bary_f(t) and neg = -_window_start(t), each on one-element arrays, the
    gates in the same order."""
    x, y = [float(t[0])], [float(t[1])]
    l0, l1, l2 = bary_f(spec, x, y)[:, 0].tolist()
    if min(l0, l1, l2) < -SNAP_TOL:
        raise DomainError(f"point {tuple(t)} lies outside the gasket hull")
    eff = float(_window_start(spec, x, y)[0])
    if eff * 2.0**depth > MAX_WINDOW:
        raise _window_error(t, depth)
    neg = -eff
    if not (l0 >= neg and l1 >= neg and l2 >= neg):
        raise _hole_error(t, 1)
    return l0, l1, l2, neg


def word_positions(letters) -> np.ndarray:
    """The index in `words_of_length` order of the word of each row of a
    (P, n) array of letters 1..3, read as a base-3 numeral by Python's int
    from the digits of the letters less 1: word_rows would need a table of
    3^n words, past memory at the cloud counts' level 19."""
    digits = (np.asarray(letters) + (ord("0") - 1)).astype(np.uint8)
    return np.array([int(row.tobytes(), 3) for row in digits], dtype=np.int64)


def box_count_cloud_oracle(model, samples, n: int) -> int:
    """`analysis.box_count_cloud` with its bins the distinct cell-pair
    codes that np.unique sorts, at every level; the codes by
    `word_positions`."""
    int64_max = np.iinfo(np.int64).max
    if 9**n > int64_max:
        raise CapacityError(f"level {n} cell-pair codes do not fit in 64 bits")
    shapes = tuple(np.shape(a) for a in (samples.t, samples.s, samples.value))
    p = len(samples.value)
    if shapes != ((p, 2), (p, 2), (p,)):
        raise PreconditionError(
            f"samples need t and s of shape ({p}, 2) beside {p} values, got shapes {shapes}"
        )
    if not np.isfinite(samples.value).all():
        raise PreconditionError("sample values must be finite")
    cell1 = word_positions(locate_many(model.gasket1, samples.t, n))
    cell2 = word_positions(locate_many(model.gasket2, samples.s, n))
    keys, inv = np.unique(cell1 * 3**n + cell2, return_inverse=True)
    lo = np.full(len(keys), np.inf)
    hi = np.full(len(keys), -np.inf)
    np.minimum.at(lo, inv, samples.value)
    np.maximum.at(hi, inv, samples.value)
    factor = 2.0**n / _common_side(model)
    with np.errstate(over="ignore"):
        stacks = np.ceil((hi - lo) * factor)
    total = float(stacks.sum())
    if total < 2.0**62:
        return len(keys) + int(stacks.astype(np.int64).sum())
    if math.isfinite(total):
        total = sum(map(int, stacks.tolist()))
    if not total + len(keys) <= int64_max:
        raise CapacityError(f"the level {n} cloud count does not fit in 64 bits")
    return len(keys) + total


def box_count_oracle(model, n: int, table) -> int:
    """`analysis.box_count` one table entry at a time in Python integers:
    1 + ceil(R * 2^n / side) per entry, the product rounded as numpy
    rounds it; CapacityError for a stack that is not finite or a count
    past int64."""
    factor = 2.0**n / _common_side(model)
    count = 0
    for r in table.values.ravel().tolist():
        stack = r * factor
        if not math.isfinite(stack):
            raise CapacityError(f"the level {n} box count does not fit in 64 bits")
        count += 1 + math.ceil(stack)
    if count > np.iinfo(np.int64).max:
        raise CapacityError(f"the level {n} box count does not fit in 64 bits")
    return count


def enumerate_vertices_oracle(m: int) -> list:
    """The canonical vertex addresses of level m by brute force: every
    address (w, c) with |w| = m canonicalized, deduplicated and sorted by
    (length of the word, word, corner)."""
    seen = {
        canonicalize(Address("".join(letters), corner))
        for letters in itertools.product("123", repeat=m)
        for corner in (1, 2, 3)
    }
    return sorted(seen, key=lambda a: (len(a.word), a.word, a.corner))


def grid_csv_oracle(model, depth: int) -> bytes:
    """The `grid` CSV as '%' writes it, one row at a time: row (i, j) is
    the '%.17g' text of (pts1[i], pts2[j], f(v_i, v_j)) for the vertices
    v of `enumerate_vertices(depth)`, the first factor outside.  The
    points are the grid's barycentrics times each gasket's corners, the
    values product_values' matrix."""
    fg, _, values = product_values(model, depth)
    order = fg.indices_of(enumerate_vertices_oracle(depth))
    pts1 = (fg.lam[-1] @ model.gasket1.corner_array)[order].tolist()
    pts2 = (fg.lam[-1] @ model.gasket2.corner_array)[order].tolist()
    f = values[np.ix_(order, order)].tolist()
    row = "%.17g," * 4 + "%.17g\n"
    lines = [row % (*t, *s, f[i][j]) for i, t in enumerate(pts1) for j, s in enumerate(pts2)]
    return ("t_x,t_y,s_x,s_y,f\n" + "".join(lines)).encode("ascii")
