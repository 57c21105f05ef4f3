"""Regularity and dimension analysis of the interpolation function.

Predicts the Holder exponent from the model constants, measures cell
oscillations on refined grids, turns them into box counts with the
per-cell vertical-stack covering, and regresses an empirical box
dimension against the analytic bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, HypothesisError, PreconditionError
from .evaluator import GraphSamples
from .gasket import locate_many, vertex_count
from .grids import check_grid_bytes, image_blocks, is_word, product_values, word_codes, word_index
from .model import FifModel

#: Hausdorff dimension of the product of two gaskets, 2 log3/log2
PRODUCT_DIMENSION = 2.0 * math.log(3.0) / math.log(2.0)

#: default exponent loss reported in the borderline scaling case
DEFAULT_MU = 0.01


@dataclass(frozen=True)
class HolderReport:
    """Predicted Holder regularity and the constants feeding it.

    Coordinates are not rescaled to diameter one; exponents and slopes are
    scale invariant, only the (unreported) multiplicative constants shift.
    """

    a: float
    alpha_sup: float
    delta: float
    s: float
    case_id: int
    exponent: float
    mu: float  # only meaningful in case 2
    lam: float  # only meaningful in case 3
    k_h: float
    k_alpha: float


def holder_predict(model: FifModel, mu: float = DEFAULT_MU) -> HolderReport:
    """Case analysis of the regularity of f.

    Case 1 (alpha_sup < 2^-N): exponent s; case 2 (equality): s - mu for a
    small default mu; case 3 (alpha_sup > 2^-N): exponent
    s - 1 + ln(alpha_sup)/ln(a) < 1.  s = 1 is the Holder exponent of h
    and alpha: both are bilinear in barycentric coordinates, hence
    Lipschitz.
    """
    a = model.a
    delta = model.alpha_sup / a
    s = 1.0
    lam = float("nan")
    if model.alpha_sup < a:
        case_id, exponent = 1, s
    elif model.alpha_sup == a:
        case_id, exponent = 2, s - mu
    else:
        case_id = 3
        lam = s - 1.0 + math.log(model.alpha_sup) / math.log(a)
        exponent = lam
    return HolderReport(
        a=a,
        alpha_sup=model.alpha_sup,
        delta=delta,
        s=s,
        case_id=case_id,
        exponent=exponent,
        mu=mu if case_id == 2 else float("nan"),
        lam=lam,
        k_h=model.k_h,
        k_alpha=model.k_alpha,
    )


class OscillationTable:
    """Sampled oscillation of f over every cell-pair of one level.

    values[i, j] is the max-min of f over the sampled points of the
    cell-pair (word i, word j), words in lexicographic order: the
    samples_per_cell = V(r)^2 product vertices of its refinement by r
    levels.  Sampling is a lower bound on the true oscillation; the bias
    is one-sided.
    """

    def __init__(self, level: int, values: np.ndarray, samples_per_cell: int):
        self.level = level
        self.values = values
        self.samples_per_cell = samples_per_cell

    def r(self, omega: str, eta: str) -> float:
        """The oscillation over the cell-pair (omega, eta); PreconditionError
        unless both are words of length `level` over 1, 2, 3, which
        word_index would read as another cell-pair or past the table."""
        for w in (omega, eta):
            if not is_word(w, self.level):
                raise PreconditionError(f"{w!r} is not a word of length {self.level}")
        return float(self.values[word_index(omega), word_index(eta)])

    def max(self) -> float:
        return float(self.values.max())


def refinement_depth(samples_per_cell: int) -> int:
    """Levels r of dyadic refinement that sample each cell-pair at no fewer
    than `samples_per_cell` product vertices: the least r with
    V(r)^2 >= samples_per_cell.  A level-n table reads the level-(n + r)
    grid."""
    if samples_per_cell < 9:
        raise PreconditionError("samples_per_cell must be at least 9")
    r = 0
    while vertex_count(r) ** 2 < samples_per_cell:
        r += 1
    return r


def oscillations(model: FifModel, levels, samples_per_cell: int = 9):
    """Oscillation tables at each of `levels`, from one grid pass.

    Let D be the deepest level plus the refinement depth r, and k = D - N.
    product_values runs once, to level k.  A level n with n + r <= k
    reads those values restricted, with FactorGrid.restrict, to the
    level-(n + r) vertices.  A deeper level n >= N is read off the last
    step's image blocks (grids.image_blocks), one cell-pair (w1, w2) at a
    time: the rows and columns of the words that start with w1 and w2
    come from that block restricted to level n + r - N.  So the call
    holds two level-k matrices, 2 * 9^-N of a level-D one, plus its
    tables.  A deeper level n < N (only when the deepest level is below
    2N), or any level when k < 1, is read like a shallow one: the one
    product_values pass then runs to its level n + r.

    Every value read is the one product_values gives at its level bit for
    bit, so each table equals oscillation(model, n, samples_per_cell) bit
    for bit.  D is checked against GRID_BYTES, as if the level-D grid were
    built, and for a range of levels before the range is listed.  The
    tables are yielded in the order of `levels`.
    """
    # a range by its ends, so that a long one is refused before it is listed
    if isinstance(levels, range):
        ends = [levels[0], levels[-1]] if levels else []
    else:
        levels = ends = list(levels)
    if not ends or min(ends) < 1:
        raise PreconditionError("level must be >= 1")
    r = refinement_depth(samples_per_cell)
    check_grid_bytes(max(ends) + r)
    levels = list(levels)
    k = max(levels) + r - model.n
    from_blocks = {n for n in levels if n + r > k >= 1 and n >= model.n}
    rest = [n for n in levels if n not in from_blocks]
    base = max([n + r for n in rest] + ([k] if from_blocks else []))
    fg, _, f = product_values(model, base)
    samples = vertex_count(r) ** 2
    tables = {}
    if from_blocks:
        tables = _block_tables(model, fg, k, fg.restrict(f, k, base), from_blocks, r)
    for i, n in enumerate(levels):
        values = tables.get(n)
        if values is None:
            m = n + r
            values = _cell_oscillation(
                fg.restrict(f, m, base),
                fg.cells[m].reshape(3**n, -1),
                np.empty((3**n, 3**n)),
            )
        if i == len(levels) - 1:
            # the caller reduces the last, usually deepest, table without
            # the grid held beside it, as after a one-level call
            del f, tables
        yield OscillationTable(n, values, samples)


def _block_tables(model: FifModel, fg, k: int, f: np.ndarray, levels, r: int) -> dict:
    """Tables of `levels`, each n >= N with n + r > k, from the image
    blocks of the step from the level-k values f.

    Cell-pair (w1, w2) of length N, the i-th and j-th words, covers the
    b x b square of rows i*b.. and columns j*b.. of a level-n table,
    b = 3^(n-N): its cells are L_w1(c1) x L_w2(c2) for the level-(n-N)
    cells c1, c2, sampled at the images of their level-(n + r - N)
    vertices.
    """
    tables = {n: np.empty((3**n, 3**n)) for n in levels}
    for i, j, block in image_blocks(model, fg, k, f):
        for n, values in tables.items():
            m, b = n + r - model.n, 3 ** (n - model.n)
            _cell_oscillation(
                fg.restrict(block, m, k),
                fg.cells[m].reshape(b, -1),
                values[i * b : (i + 1) * b, j * b : (j + 1) * b],
            )
    return tables


#: most entries in each of _cell_oscillation's six chunk buffers (512 kB of floats)
_CHUNK_ENTRIES = 64_000


def _cell_oscillation(f: np.ndarray, cells, out: np.ndarray) -> np.ndarray:
    """max - min of f over cells[i] x cells[j] for every pair of rows i, j,
    written to out[i, j]; returns out.

    max and min over cells[i] x cells[j] separate: a chunk of rows i
    reduces f's rows over cells[i] into top and bot, then their columns
    over cells[j].  Each chunk gathers into the same six buffers, three
    of at most _CHUNK_ENTRIES entries for rows of f and three for rows of
    out, allocated once per call.  That size keeps the six, about 2.5 MB
    at a level-7 table, inside a 4 MiB L2 cache: at 2.5e5 entries the
    `grids` benchmark pass ran about 10% slower.  4.8e4 and 3.2e4 entries
    ran it as fast or faster, but at times left glibc a larger free heap
    top after `holder` in the `cli` benchmark, whose peak RSS then rose
    from 52 to 58 MB.  The gathers use mode="clip" (every index is in
    range): with out=, numpy's default mode="raise" gathers into a
    temporary and copies it, up to three times as slow.
    """
    n, width = cells.shape
    rows = max(1, min(n, _CHUNK_ENTRIES // f.shape[1]))
    top, bot, part = (np.empty((rows, f.shape[1])) for _ in range(3))
    vmax, vmin, col = (np.empty((rows, n)) for _ in range(3))
    for lo in range(0, n, rows):
        chunk = cells[lo : lo + rows]
        k = len(chunk)
        t, b, p = top[:k], bot[:k], part[:k]
        np.take(f, chunk[:, 0], axis=0, out=t, mode="clip")
        np.copyto(b, t)
        for c in range(1, width):
            np.take(f, chunk[:, c], axis=0, out=p, mode="clip")
            np.maximum(t, p, out=t)
            np.minimum(b, p, out=b)
        hi, lw, q = vmax[:k], vmin[:k], col[:k]
        np.take(t, cells[:, 0], axis=1, out=hi, mode="clip")
        np.take(b, cells[:, 0], axis=1, out=lw, mode="clip")
        for c in range(1, width):
            np.take(t, cells[:, c], axis=1, out=q, mode="clip")
            np.maximum(hi, q, out=hi)
            np.take(b, cells[:, c], axis=1, out=q, mode="clip")
            np.minimum(lw, q, out=lw)
        np.subtract(hi, lw, out=out[lo : lo + k])
    return out


def oscillation(
    model: FifModel, n: int, samples_per_cell: int = 9
) -> OscillationTable:
    """Oscillation table at level n from exact grid values: the one-level
    case of `oscillations`.

    The nine corner-pair vertices of each cell-pair are always included;
    asking for more samples refines each cell dyadically and uses all
    vertices of the refinement, again evaluated exactly, so deeper tables
    are monotone against coarser ones.
    """
    return next(oscillations(model, [n], samples_per_cell))


@dataclass(frozen=True)
class BoxCountRecord:
    level: int
    delta: float
    count: int


def _common_side(model: FifModel) -> float:
    return max(model.gasket1.side, model.gasket2.side)


def box_count(model: FifModel, n: int, table: OscillationTable) -> BoxCountRecord:
    """Number of delta-boxes covering the graph, delta = 2^-n * side.

    One vertical stack of boxes per cell-pair: 1 + ceil(R / delta) boxes,
    matching the covering that drives the upper dimension bound; summed
    exactly over 2^16 entries at a time, or refused, by `_stack_count`.
    """
    if table.level != n:
        raise PreconditionError(
            f"table level {table.level} does not match requested level {n}"
        )
    side = _common_side(model)
    values, rows = table.values, max(1, 2**16 // table.values.shape[1])
    chunks = (values[lo : lo + rows] for lo in range(0, len(values), rows))
    count = _stack_count(chunks, 2.0**n / side, f"the level {n} box count")
    return BoxCountRecord(level=n, delta=2.0**-n * side, count=count)


def _stack_count(ranges, factor: float, what: str) -> int:
    """1 + ceil(R * factor) boxes per value range R of the arrays that
    `ranges` yields, summed exactly: an array's stacks, whole and
    non-negative, in float below 2^53 (every partial sum is then exact),
    in int64 below 2^62, else in Python integers.  A non-finite sum (a
    range that overflows, a NaN) or a count past int64 raises
    CapacityError naming `what`."""
    count = 0
    for r in ranges:
        with np.errstate(over="ignore"):  # an overflow is refused below
            stacks = np.multiply(r, factor)
        np.ceil(stacks, out=stacks)
        total = float(stacks.sum())
        if not math.isfinite(total):
            raise CapacityError(f"{what} does not fit in 64 bits")
        count += stacks.size
        if total >= 2.0**62 or stacks.min(initial=0.0) < 0.0:
            count += sum(map(int, stacks.ravel().tolist()))
        elif total >= 2.0**53:
            count += int(stacks.astype(np.int64).sum())
        else:
            count += int(total)
    if count > np.iinfo(np.int64).max:
        raise CapacityError(f"{what} does not fit in 64 bits")
    return count


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, standard error) of the least-squares line of y against x.

    The error is sqrt(SSR / (n - 2) / Sxx), SSR the sum of squared
    residuals and Sxx the sum of (x - mean x)^2; two points lie on their
    line, so it is 0 for n = 2."""
    dx, dy = x - x.mean(), y - y.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    if len(x) == 2:
        return slope, 0.0
    resid = dy - slope * dx
    return slope, math.sqrt(float(resid @ resid) / (len(x) - 2) / sxx)


@dataclass(frozen=True)
class DimensionReport:
    slope: float
    std_error: float
    levels: tuple


def estimate_box_dimension(records) -> DimensionReport:
    """Least-squares slope of log(count) against n log 2.

    Unweighted regression over the provided levels."""
    records = list(records)
    if len(records) < 3:
        raise PreconditionError("need at least 3 box-count records")
    if len({rec.level for rec in records}) != len(records):
        raise PreconditionError("box-count records must have distinct levels")
    x = np.array([rec.level * math.log(2.0) for rec in records])
    y = np.array([math.log(rec.count) for rec in records])
    slope, std_error = _line_fit(x, y)
    return DimensionReport(slope=slope, std_error=std_error, levels=tuple(records))


def dimension_bounds(model: FifModel) -> tuple:
    """(lower, upper) analytic bounds on the graph dimension.

    Valid only when alpha_sup < 2^-N; the lower bound is the dimension of
    the product domain itself, the upper bound 1 - s plus that.  s = 1 as
    in holder_predict, so the two coincide."""
    if model.alpha_sup >= model.a:
        raise HypothesisError(
            f"dimension bounds need alpha_sup < 2^-N "
            f"({model.alpha_sup} >= {model.a})"
        )
    s = 1.0
    return PRODUCT_DIMENSION, 1.0 - s + PRODUCT_DIMENSION


@dataclass(frozen=True)
class HolderFit:
    exponent: float
    std_error: float
    degenerate: bool
    levels: tuple


def holder_fit(
    model: FifModel, n_min: int, n_max: int, samples_per_cell: int = 9
) -> HolderFit:
    """Empirical Holder exponent from the decay of the worst cell
    oscillation: slope of log(max R) against log(2^-n).

    Sampling under-estimates oscillation, so a fit above the predicted
    exponent is acceptable (the prediction is an upper bound on
    oscillation decay, checked one-sidedly)."""
    if n_min >= n_max or n_min < 1:
        raise PreconditionError("need 1 <= n_min < n_max")
    levels = range(n_min, n_max + 1)
    maxima = [t.max() for t in oscillations(model, levels, samples_per_cell)]
    if all(m == 0.0 for m in maxima):
        return HolderFit(float("inf"), 0.0, True, tuple(levels))
    x = np.array([-n * math.log(2.0) for n in levels])
    y = np.log(np.array(maxima))
    slope, std_error = _line_fit(x, y)
    return HolderFit(slope, std_error, False, tuple(levels))


def box_count_cloud(model: FifModel, samples: GraphSamples, n: int) -> int:
    """Independent box count from a chaos-game point cloud.

    Bins samples by their containing cell-pair (cell-adapted horizontal
    boxes, since gasket cells are not axis aligned) and applies the same
    vertical-stack rule to the empirical value range per bin.  Cross-check
    oracle only; under-counts slightly when a bin is under-sampled.  The
    bins are a dense table of all 9^n cell-pairs when it has no more
    entries than there are samples (level 4 from 6561 samples on), else
    the distinct codes that np.unique sorts; either way the occupied bins
    come in code order, so the counts are the same.
    Samples whose t, s and value differ in length, or with a value that
    is not finite, raise PreconditionError; the count is exact, and one
    beyond int64 raises CapacityError (`_stack_count`)."""
    if 9**n > np.iinfo(np.int64).max:
        raise CapacityError(f"level {n} cell-pair codes do not fit in 64 bits")
    shapes = tuple(np.shape(a) for a in (samples.t, samples.s, samples.value))
    p = len(samples.value)
    if shapes != ((p, 2), (p, 2), (p,)):
        raise PreconditionError(
            f"samples need t and s of shape ({p}, 2) beside {p} values, got shapes {shapes}"
        )
    if not np.isfinite(samples.value).all():
        raise PreconditionError("sample values must be finite")
    cell1 = word_codes(locate_many(model.gasket1, samples.t, n), n)[:, 0]
    cell2 = word_codes(locate_many(model.gasket2, samples.s, n), n)[:, 0]
    key = cell1 * 3**n + cell2
    bins = 9**n
    if bins > p:  # a table of every cell-pair would outgrow the samples
        keys, key = np.unique(key, return_inverse=True)
        bins = len(keys)
    lo = np.full(bins, np.inf)
    hi = np.full(bins, -np.inf)
    np.minimum.at(lo, key, samples.value)
    np.maximum.at(hi, key, samples.value)
    occupied = lo <= hi  # the bins that hold a sample, in code order on either path
    with np.errstate(over="ignore"):  # a range that overflows is refused by _stack_count
        ranges = hi[occupied] - lo[occupied]
    return _stack_count([ranges], 2.0**n / _common_side(model), f"the level {n} cloud count")
