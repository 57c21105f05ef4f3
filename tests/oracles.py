"""Scalar oracles: the cell-pair maps, read one row of FifModel.cell_table
at a time by word pair, the sequential descent and truncated unrolling
that `gasket.descend` and `evaluator.eval_approx` replace, the scalar
recursion that the array `evaluator.eval_exact` replaces, the data set
keyed by canonical vertex pairs that `model.DataSet` holds as a matrix,
the dict-keyed vertex index that `grids.FactorGrid` builds with array
ops, the level step one cell-pair at a time that the grouped
`grids.step_blocks` replaces, `FactorGrid`'s index maps one letter at a
time, and the cell oscillation kernel with fresh temporaries per chunk
that `analysis._cell_oscillation` replaces."""

import numpy as np

from gasketfif.errors import DomainError, PreconditionError, ValidationError
from gasketfif.evaluator import _input_rounding_bound
from gasketfif.gasket import (
    Address,
    MAX_DESCENT_DEPTH,
    MAX_WINDOW,
    SNAP_TOL,
    _check_depth,
    _window_error,
    _window_start,
    address_bary,
    bary_f,
    canonicalize,
)
from gasketfif.model import ProductVertex, _bilinear9, words_of_length


def row(model, omega: str, eta: str) -> int:
    """The cell_table row c = i * 3**N + j of the cell-pair (omega, eta)."""
    index = model.cell_table.index
    return index[omega] * len(index) + index[eta]


def shift_corners(model, omega: str, eta: str) -> np.ndarray:
    """The 3x3 corner values of h_{omega eta}."""
    return model.cell_table.shift[:, :, row(model, omega, eta)]


def scaling_at(model, omega: str, eta: str, lam, mu) -> float:
    """alpha_{omega eta} at the barycentrics (lam, mu)."""
    alpha = model.cell_table.alpha_rows[row(model, omega, eta)]
    return alpha if type(alpha) is float else _bilinear9(alpha, lam, mu)


def shift_at(model, omega: str, eta: str, lam, mu) -> float:
    """h_{omega eta} at the barycentrics (lam, mu)."""
    return _bilinear9(model.cell_table.shift_rows[row(model, omega, eta)], lam, mu)


def eval_scaling(model, omega: str, eta: str, t, s) -> float:
    """alpha_{omega eta}(t, s) for preimage coordinates (t, s)."""
    lam = bary_f(model.gasket1, float(t[0]), float(t[1]))
    mu = bary_f(model.gasket2, float(s[0]), float(s[1]))
    return scaling_at(model, omega, eta, lam, mu)


def eval_shift(model, omega: str, eta: str, t, s) -> float:
    """h_{omega eta}(t, s) for preimage coordinates (t, s)."""
    lam = bary_f(model.gasket1, float(t[0]), float(t[1]))
    mu = bary_f(model.gasket2, float(s[0]), float(s[1]))
    return shift_at(model, omega, eta, lam, mu)


def descend_oracle(spec, t, depth: int) -> tuple:
    """`gasket.descend` by its full rule: at every level, the first letter
    a for which every coordinate of 2 lam - e_a is at least -eff."""
    _check_depth(depth)
    x, y = float(t[0]), float(t[1])
    l0, l1, l2 = bary_f(spec, x, y)
    if min(l0, l1, l2) < -SNAP_TOL:
        raise DomainError(f"point {tuple(t)} lies outside the gasket hull")
    eff = _window_start(spec, x, y)
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
    each block's words back through `CellTable.index`."""
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
    table = model.cell_table
    index, nw = table.index, len(table.index)
    value = 0.0
    coeff = 1.0
    for lo in range(0, d, n):
        hi = lo + n
        c = index[wt[lo:hi]] * nw + index[ws[lo:hi]]
        lam, mu = lams[hi - 1], mus[hi - 1]
        value += coeff * _bilinear9(table.shift_rows[c], lam, mu)
        alpha = table.alpha_rows[c]
        coeff *= alpha if type(alpha) is float else _bilinear9(alpha, lam, mu)
    bound = abs(coeff) * model.f_sup_bound
    return value, bound + _input_rounding_bound(model, k)


def eval_exact_oracle(model, addr_t, addr_s) -> float:
    """`evaluator.eval_exact` at one vertex pair by its scalar loop: pad
    both words with their corners to one length, a multiple of N, and peel
    N letters per step from the innermost block out."""
    n = model.n
    m = n * -(-max(len(addr_t.word), len(addr_s.word), 1) // n)
    wt = addr_t.word + str(addr_t.corner) * (m - len(addr_t.word))
    ws = addr_s.word + str(addr_s.corner) * (m - len(addr_s.word))
    table = model.cell_table
    index, nw = table.index, len(table.index)
    offsets = table.offset.T.tolist()
    scale = 0.5**n
    lam = tuple(float(c == addr_t.corner) for c in (1, 2, 3))
    mu = tuple(float(c == addr_s.corner) for c in (1, 2, 3))
    x = 0.0
    for lo in range(m - n, -1, -n):
        i, j = index[wt[lo : lo + n]], index[ws[lo : lo + n]]
        c = i * nw + j
        alpha = table.alpha_rows[c]
        if type(alpha) is not float:
            alpha = _bilinear9(alpha, lam, mu)
        x = alpha * x + _bilinear9(table.shift_rows[c], lam, mu)
        o, p = offsets[i], offsets[j]
        lam = (o[0] + scale * lam[0], o[1] + scale * lam[1], o[2] + scale * lam[2])
        mu = (p[0] + scale * mu[0], p[1] + scale * mu[1], p[2] + scale * mu[2])
    return x


def check_lines_oracle(model) -> list:
    """The interpolation, functional-equation and boundary-vanishing lines
    of `cli check`, by the scalar loops that its array calls replace: one
    `eval_exact_oracle` call per point, on words drawn from
    default_rng(7) one at a time."""

    def line(name, ok, detail):
        return f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")

    def word(rng, size):
        return "".join("123"[i] for i in rng.integers(0, 3, size=size).tolist())

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
    for _ in range(200):
        wt = word(rng, rng.integers(0, 4))
        ws = word(rng, rng.integers(0, 4))
        at = Address(wt, int(rng.integers(1, 4)))
        bs = Address(ws, int(rng.integers(1, 4)))
        i, j = rng.integers(0, len(words)), rng.integers(0, len(words))
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
    for _ in range(100):
        w = word(rng, 4)
        c = int(rng.integers(1, 4))
        corner = int(rng.integers(1, 4))
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
        scale = lam @ np.ascontiguousarray(table.alpha_tensor[:, :, c])
    rows = len(f)
    starts = list(range(0, rows, ORACLE_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    block = np.empty_like(f)
    for lo, hi in zip(starts, starts[1:] + [rows]):
        h = shift[lo:hi] @ lam.T
        if scale is None:
            part = f[lo:hi] * table.alpha[c]
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
    idx = fg.restriction(k, depth)
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
