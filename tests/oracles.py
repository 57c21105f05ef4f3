"""Scalar oracles: the cell-pair maps, read one row of FifModel.cell_table
at a time by word pair, the sequential descent and truncated unrolling
that `gasket.descend` and `evaluator.eval_approx` replace, and the
dict-keyed vertex index that `grids.FactorGrid` builds with array ops."""

import numpy as np

from gasketfif.errors import DomainError, PreconditionError
from gasketfif.evaluator import _input_rounding_bound
from gasketfif.gasket import (
    MAX_DESCENT_DEPTH,
    MAX_WINDOW,
    SNAP_TOL,
    _check_depth,
    _window_error,
    _window_start,
    bary_f,
)
from gasketfif.model import _bilinear9


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
