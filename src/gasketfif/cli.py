"""Command-line front end.

Verbs: build | eval | grid | chaos | dim | holder | check.  Configuration
is a single JSON file; addresses serialize as "letters@corner" and vertex
pairs as "w@i|w@j".  Exit codes are documented in --help.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from . import analysis, evaluator, gasket
from .errors import (
    CapacityError,
    ContractionError,
    DomainError,
    HypothesisError,
    PreconditionError,
    ValidationError,
)
from .fileio import atomic_open
from .gasket import MAX_ENUM_DEPTH, Address, GasketSpec, enumerate_vertices
from .grids import FactorGrid, product_values
from .model import (
    DataSet,
    ScalingField,
    build_model,
    check_compatibility,
    perturb_shift,
    words_of_length,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_CONTRACTION = 3
EXIT_DOMAIN = 4
EXIT_CAPACITY = 5
EXIT_USAGE = 6
EXIT_PARSE = 7

EPILOG = """\
exit codes:
  0  success
  1  invariant check failed
  2  config validation error (missing vertices, boundary values, duplicates)
  3  scaling field is not a contraction (sup norm >= 1)
  4  point outside the domain
  5  capacity budget exceeded
  6  usage / precondition error
  7  unreadable or malformed config file
"""


class _ConfigError(Exception):
    pass


#: exit code of each error a verb may raise; the first matching type wins,
#: so ContractionError comes before its base class ValidationError
_EXIT_CODES = (
    (_ConfigError, EXIT_PARSE),
    (ContractionError, EXIT_CONTRACTION),
    (ValidationError, EXIT_VALIDATION),
    (DomainError, EXIT_DOMAIN),
    (CapacityError, EXIT_CAPACITY),
    (PreconditionError, EXIT_USAGE),
)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise _ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise _ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise _ConfigError("config root must be a JSON object")
    return raw


def _parse_gasket(raw, field):
    if raw is None:
        return None
    try:
        corners = tuple((float(p[0]), float(p[1])) for p in raw)
        return GasketSpec(corners)
    except (TypeError, ValueError, IndexError, OverflowError) as e:
        raise _ConfigError(f"{field}: bad corner list: {e}") from None


def _parse_scaling(raw, n):
    if not isinstance(raw, dict):
        raise _ConfigError("scaling: must be an object")
    if "constant" in raw:
        try:
            return ScalingField.constant(float(raw["constant"]), n)
        except (TypeError, ValueError, OverflowError) as e:
            raise _ConfigError(f"scaling.constant: {e}") from None
    if "cells" in raw:
        if not isinstance(raw["cells"], dict):
            raise _ConfigError("scaling.cells: must be an object with 'w|w' keys")
        mapping = {}
        for key, val in raw["cells"].items():
            w1, sep, w2 = key.partition("|")
            if not sep:
                raise _ConfigError(f"scaling.cells key {key!r} must look like 'w|w'")
            mapping[(w1, w2)] = val
        try:
            return ScalingField.from_cells(mapping, n)
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise _ConfigError(f"scaling.cells: {e}") from None
    raise _ConfigError("scaling: need either 'constant' or 'cells'")


def build_from_config(path):
    """Parse and assemble the model described by a config file."""
    raw = _load_config(path)
    if "n" not in raw:
        raise _ConfigError("missing field 'n'")
    n = raw["n"]
    if type(n) is not int:  # 1.0, 1.5, true and "1" are refused
        raise _ConfigError("'n' must be an integer")
    if n < 1:
        raise ValidationError("depth N must be >= 1")
    # the scaling field and the data set both grow as 9^n
    if n > MAX_ENUM_DEPTH:
        raise CapacityError(f"depth N={n} exceeds the supported maximum {MAX_ENUM_DEPTH}")
    g1 = _parse_gasket(raw.get("gasket1"), "gasket1")
    g2 = _parse_gasket(raw.get("gasket2"), "gasket2")
    data_raw = raw.get("data")
    if not isinstance(data_raw, list):
        raise _ConfigError("'data' must be a list of {first, second, z} objects")
    # one entry per product vertex at least; counted before anything of
    # size 9^n is built
    needed = gasket.vertex_count(n) ** 2
    if len(data_raw) < needed:
        raise ValidationError(
            f"missing data: {len(data_raw)} entries for the {needed} product "
            f"vertices of V_{n} x V_{n}"
        )
    scaling = _parse_scaling(raw.get("scaling", {}), n)
    triples = []
    for idx, item in enumerate(data_raw):
        try:
            first, second, z = item["first"], item["second"], float(item["z"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise _ConfigError(f"data[{idx}]: {e}") from None
        if not isinstance(first, str) or not isinstance(second, str):
            raise _ConfigError(f"data[{idx}]: addresses must be 'word@corner' strings")
        triples.append((first, second, z))
    try:
        data = DataSet.build(n, triples)
    except ValueError as e:
        raise ValidationError(str(e)) from None
    return build_model(data, scaling, g1, g2)


def _report(command, started, status, outputs=()):
    wall = time.perf_counter() - started
    outs = ",".join(outputs)
    print(
        f"# run command={command} wall={wall:.3f}s status={status} outputs=[{outs}]",
        file=sys.stderr,
    )


def cmd_build(args):
    model = build_from_config(args.config)
    rep = check_compatibility(model)
    print(f"n={model.n} a={model.a:.17g}")
    print(f"alphaSup={model.alpha_sup:.17g}")
    print(f"shiftSup={model.shift_sup:.17g}")
    print(f"fSupBound={model.f_sup_bound:.17g}")
    print(f"compatibilityMax={rep.max_discrepancy:.3e}")
    return EXIT_OK


def cmd_eval(args):
    model = build_from_config(args.config)
    if args.address:
        try:
            a, b = (Address.parse(text) for text in args.address)
        except ValueError as e:
            raise PreconditionError(str(e)) from None
        value = evaluator.eval_exact(model, a, b)
        print(f"f({a}|{b}) = {value:.17g}")
    elif args.point:
        t = args.point[0:2]
        s = args.point[2:4]
        value, bound = evaluator.eval_approx(model, t, s, args.depth)
        print(f"f({t[0]:g},{t[1]:g};{s[0]:g},{s[1]:g}) = {value:.17g}")
        print(f"errorBound = {bound:.17g}")
    else:
        raise PreconditionError("eval needs either --address or --point")
    return EXIT_OK


def cmd_grid(args):
    model = build_from_config(args.config)
    fg, _, values = product_values(model, args.depth)
    verts = enumerate_vertices(args.depth)
    nv = len(verts)
    rows = nv**2
    # rows and columns in enumerate_vertices order, with no reordered copy
    order = fg.indices_of(verts)
    pts1 = (fg.lam[-1] @ model.gasket1.corner_array)[order]
    pts2 = (fg.lam[-1] @ model.gasket2.corner_array)[order]

    def block(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), nv)
        return np.column_stack([pts1[i], pts2[j], values[order[i], order[j]]])

    evaluator.write_graph_csv(args.out, rows, block)
    outputs = [args.out]
    if args.ppm:
        _write_ppm(args.ppm, values, order)
        outputs.append(args.ppm)
    print(f"wrote {rows} rows to {args.out}")
    args._outputs = outputs
    return EXIT_OK


def _write_ppm(path, values, order):
    """Min-max normalized grayscale heatmap of values[order][:, order], binary PPM (P6)."""
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.subtract(values, lo)  # then *255, /span and round, all in this buffer
    np.round(np.divide(np.multiply(gray, 255.0, out=gray), span, out=gray), out=gray)
    gray = gray.astype(np.uint8)[np.ix_(order, order)]
    h, w = gray.shape
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    with atomic_open(path) as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def cmd_chaos(args):
    model = build_from_config(args.config)
    samples = evaluator.chaos_game(model, args.points, args.seed, args.burn_in)
    evaluator.samples_to_csv(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    args._outputs = [args.out]
    return EXIT_OK


def cmd_dim(args):
    if args.min_level >= args.max_level or args.max_level - args.min_level < 2:
        raise PreconditionError("need max-level >= min-level + 2 for a regression")
    model = build_from_config(args.config)
    levels = range(args.min_level, args.max_level + 1)
    # every level is counted before the table is printed, so a refused run
    # (the grid over GRID_BYTES, say) writes nothing to stdout
    records = [
        analysis.box_count(model, table.level, table)
        for table in analysis.oscillations(model, levels, args.samples_per_cell)
    ]
    print("level,delta,count")
    for rec in records:
        print(f"{rec.level},{rec.delta:.17g},{rec.count}")
    report = analysis.estimate_box_dimension(records)
    print(f"slope = {report.slope:.6f} +- {report.std_error:.6f}")
    try:
        lower, upper = analysis.dimension_bounds(model)
    except HypothesisError as e:
        print(f"warning: analytic bounds not applicable: {e}")
        return EXIT_OK
    verdict = "PASS" if lower - 0.15 <= report.slope <= upper + 0.2 else "FAIL"
    print(f"bounds: [{lower:.6f}, {upper:.6f}]  sandwich: {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_CHECK_FAILED


def cmd_holder(args):
    model = build_from_config(args.config)
    rep = analysis.holder_predict(model)
    print(f"case = {rep.case_id}")
    print(f"delta = {rep.delta:.17g}")
    print(f"predictedExponent = {rep.exponent:.17g}")
    fit = analysis.holder_fit(model, args.min_level, args.max_level)
    if fit.degenerate:
        print("empiricalExponent = inf (all oscillations zero)")
        return EXIT_OK
    print(f"empiricalExponent = {fit.exponent:.6f} +- {fit.std_error:.6f}")
    verdict = "PASS" if fit.exponent >= rep.exponent - 0.2 else "FAIL"
    print(f"one-sided verdict: {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_CHECK_FAILED


def cmd_check(args):
    model = build_from_config(args.config)
    if args.corrupt:
        try:
            omega, eta, i, j, delta = args.corrupt.split("|")
            model = perturb_shift(model, omega, eta, int(i), int(j), float(delta))
        except (ValueError, KeyError) as e:
            raise PreconditionError(f"bad --corrupt spec: {e}") from None
    # every check reports a non-finite result as FAIL itself; numpy's
    # warnings about the NaNs that a non-finite corner makes only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        failures = _run_checks(model)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _random_word(rng, size) -> np.ndarray:
    """A word of `size` random letters 1, 2, 3: the draws of
    rng.choice(list("123"), size=size), from the same stream, with no
    array of strings."""
    return rng.integers(0, 3, size=size) + 1


def _run_checks(model) -> list:
    """Run and print the checks of the `check` verb; returns the names of
    those that failed."""
    failures = []

    def check(name, ok, detail=""):
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures.append(name)

    rep = check_compatibility(model)
    detail = f"max discrepancy {rep.max_discrepancy:.3e}"
    if rep.violations:
        detail += f" worst {rep.worst}"
    check("compatibility", not rep.violations, detail)

    # every data vertex pair, in one array call
    grid = FactorGrid(model.n)
    verts = enumerate_vertices(model.n)
    letters, corners = evaluator.address_letters(verts)
    a, b = np.divmod(np.arange(len(verts) ** 2), len(verts))
    v = evaluator.eval_exact(model, (letters[a], corners[a]), (letters[b], corners[b]))
    idx = grid.indices_of(verts)
    z = model.data.values[idx[a], idx[b]]
    bad = int(np.count_nonzero(~(np.abs(v - z) <= 1e-12 * (1.0 + np.abs(z)))))  # NaN is off too
    check("interpolation", bad == 0, f"{bad} vertices off" if bad else "")

    # f(L_w1 t, L_w2 s) against alpha_w f(t, s) + h_w at 200 random vertex
    # pairs (t, s) and cell-pairs w; the maps take exact barycentrics, so
    # the residual is the recursion's own, not a round trip through plane
    # points
    rng = np.random.default_rng(7)
    table = model.cell_table
    nw = len(table.index)
    at, bs = np.zeros((2, 200, 3), dtype=np.int8)
    draws = np.empty((200, 4), dtype=np.intp)  # corners of t and s, then w1, w2
    for p in range(200):
        w = _random_word(rng, rng.integers(0, 4))
        at[p, : len(w)] = w
        w = _random_word(rng, rng.integers(0, 4))
        bs[p, : len(w)] = w
        draws[p] = rng.integers(1, 4), rng.integers(1, 4), rng.integers(0, nw), rng.integers(0, nw)
    ct, cs, i, j = draws.T
    prefix = evaluator.address_letters([Address(w) for w in words_of_length(model.n)])[0]
    lhs = evaluator.eval_exact(
        model, (np.hstack((prefix[i], at)), ct), (np.hstack((prefix[j], bs)), cs)
    )
    f, lam, mu = evaluator._exact(model, (at, ct), (bs, cs))
    rhs = evaluator._exact_step(table, i * nw + j, f, lam, mu)
    tol = 1e-9 * (1.0 + model.f_sup_bound)
    worst = np.max(np.abs(lhs - rhs), initial=0.0)  # NaN propagates
    check("functional-equation", worst <= tol, f"residual {worst:.3e}")

    # f at (corner, random vertex) and (random vertex, corner)
    words = np.empty((100, 4), dtype=np.int8)
    draws = np.empty((100, 2), dtype=np.intp)  # the vertex's corner, then the corner
    for p in range(100):
        words[p] = _random_word(rng, 4)
        draws[p] = rng.integers(1, 4), rng.integers(1, 4)
    vertex, corner = (words, draws[:, 0]), (np.zeros((100, 0), dtype=np.int8), draws[:, 1])
    v = np.concatenate((evaluator.eval_exact(model, corner, vertex),
                        evaluator.eval_exact(model, vertex, corner)))
    worst = np.max(np.abs(v), initial=0.0)
    check("boundary-vanishing", worst <= tol, f"max |f| {worst:.3e}")

    ok = True
    for m in range(0, 5):
        if len(enumerate_vertices(m)) != gasket.vertex_count(m):
            ok = False
    check("vertex-count", ok)

    depth = model.n
    sup_ratio = 0.0
    for _ in range(5):
        ga = evaluator.GridFunction(model, depth, grid=grid)
        gb = evaluator.GridFunction(model, depth, grid=grid)
        ga.values = rng.standard_normal(ga.values.shape)
        gb.values = rng.standard_normal(gb.values.shape)
        num = np.max(np.abs(evaluator.rb_apply(model, ga).values
                            - evaluator.rb_apply(model, gb).values))
        den = np.max(np.abs(ga.values - gb.values))
        if den > 0:
            sup_ratio = np.maximum(sup_ratio, num / den)
    check(
        "contraction",
        sup_ratio <= model.alpha_sup + 1e-12,
        f"ratio {sup_ratio:.6f} vs alphaSup {model.alpha_sup:.6f}",
    )
    return failures


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its usage errors exiting EXIT_USAGE, not 2
    (the config validation code), and with a negative number in exponent
    form (-1e-10) read as a value, as -0.25 is, not as an option flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _make_parser():
    """The parser of every verb, built once per process: a verb runs as
    the module's cmd_<verb> of the moment, looked up by name."""
    parser = _Parser(
        prog="gasketfif",
        description="Fractal interpolation on the product of two Sierpinski gaskets",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", required=True, help="JSON model config")

    p = sub.add_parser("build", help="validate a config and print derived constants")
    common(p)

    p = sub.add_parser("eval", help="evaluate f at an address or a point")
    common(p)
    p.add_argument("--address", nargs=2, metavar=("W@I", "W@J"))
    p.add_argument("--point", nargs=4, type=float, metavar=("TX", "TY", "SX", "SY"))
    p.add_argument("--depth", type=int, default=12, help="truncation depth k")

    p = sub.add_parser("grid", help="exact values on a product vertex grid (CSV)")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--ppm", help="also write a PPM heatmap of the value matrix")

    p = sub.add_parser("chaos", help="chaos-game samples of the graph (CSV)")
    common(p)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("dim", help="box counts, dimension slope and bounds")
    common(p)
    p.add_argument("--min-level", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--samples-per-cell", type=int, default=9)

    p = sub.add_parser("holder", help="predicted and empirical Holder exponents")
    common(p)
    p.add_argument("--min-level", type=int, default=3)
    p.add_argument("--max-level", type=int, default=6)

    p = sub.add_parser("check", help="run the full invariant suite")
    common(p)
    p.add_argument("--corrupt", help=argparse.SUPPRESS)  # test hook: w|w|i|j|delta

    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = globals()[f"cmd_{args.command}"](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        code = next(c for kind, c in _EXIT_CODES if isinstance(e, kind))
    outputs = getattr(args, "_outputs", ())
    _report(args.command, started, "ok" if code == EXIT_OK else f"exit={code}", outputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
