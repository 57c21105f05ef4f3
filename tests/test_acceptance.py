"""Acceptance suite: eleven end-to-end checks of the library's contract.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and asserts the same condition, including the runtime budgets.
"""

import itertools
import math
import time

import numpy as np

import gasketfif as gf
from gasketfif.analysis import (
    box_count,
    estimate_box_dimension,
    holder_fit,
    holder_predict,
    oscillation,
)
from gasketfif.evaluator import (
    GridFunction,
    address_letters,
    chaos_game,
    eval_approx,
    eval_exact,
    rb_apply,
)
from gasketfif.gasket import (
    Address,
    address_point,
    enumerate_vertices,
    standard_gasket,
)
from gasketfif.model import check_compatibility
from oracles import eval_scaling, eval_shift

SPEC = standard_gasket()
PRODUCT_DIM = 2.0 * math.log(3.0) / math.log(2.0)


def verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_interpolation():
    started = time.perf_counter()
    worst = 0.0
    models = [gf.random_model(1, seed=s) for s in range(5)]
    models.append(gf.random_model(2, seed=0))
    for m in models:
        for key, z in m.data.entries.items():
            err = abs(eval_exact(m, key.first, key.second) - z)
            worst = max(worst, err / (1.0 + abs(z)))
    wall = time.perf_counter() - started
    verdict(
        1,
        "interpolation at all data vertices",
        worst <= 1e-12 and wall < 5.0,
        f"worst rel err {worst:.2e}, {wall:.2f}s",
    )


def test_02_functional_equation(ref03):
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    tol = 1e-9 * (1.0 + ref03.f_sup_bound)
    draws = []
    for _ in range(10**4):
        wt = "".join(rng.choice(list("123"), size=rng.integers(0, 7)))
        ws = "".join(rng.choice(list("123"), size=rng.integers(0, 7)))
        at = Address(wt, int(rng.integers(1, 4)))
        bs = Address(ws, int(rng.integers(1, 4)))
        draws.append((at, bs, str(rng.integers(1, 4)), str(rng.integers(1, 4))))
    # one array eval_exact call for each side, one pair per draw
    lhs = eval_exact(
        ref03,
        address_letters([Address(omega + at.word, at.corner) for at, _, omega, _ in draws]),
        address_letters([Address(eta + bs.word, bs.corner) for _, bs, _, eta in draws]),
    )
    inner = eval_exact(
        ref03,
        address_letters([at for at, _, _, _ in draws]),
        address_letters([bs for _, bs, _, _ in draws]),
    )
    worst = 0.0
    for (at, bs, omega, eta), left, f_ts in zip(draws, lhs, inner):
        t = address_point(ref03.gasket1, at)
        s = address_point(ref03.gasket2, bs)
        rhs = eval_scaling(ref03, omega, eta, t, s) * f_ts + eval_shift(ref03, omega, eta, t, s)
        worst = max(worst, abs(left - rhs))
    wall = time.perf_counter() - started
    verdict(
        2,
        "functional equation residual",
        worst <= tol and wall < 30.0,
        f"worst {worst:.2e} vs tol {tol:.2e}, {wall:.2f}s",
    )


def test_03_contraction(ref03, ref07):
    rng = np.random.default_rng(2)
    ok = True
    worst = 0.0
    for m in (ref03, ref07):
        for _ in range(20):
            g1 = GridFunction(m, 3)
            g2 = GridFunction(m, 3)
            g1.values = rng.uniform(-1, 1, g1.values.shape)
            g2.values = rng.uniform(-1, 1, g2.values.shape)
            d0 = np.max(np.abs(g1.values - g2.values))
            d1 = np.max(np.abs(rb_apply(m, g1).values - rb_apply(m, g2).values))
            slack = d1 - m.alpha_sup * d0
            worst = max(worst, slack)
            ok = ok and slack <= 1e-12
    verdict(3, "operator contraction", ok, f"worst slack {worst:.2e}")


def test_04_boundary_vanishing(ref03, ref07):
    rng = np.random.default_rng(3)
    worst = 0.0
    tol = 0.0
    for m in (ref03, ref07):
        tol = max(tol, 1e-9 * (1.0 + m.f_sup_bound))
        for _ in range(500):
            w = "".join(rng.choice(list("123"), size=rng.integers(0, 6)))
            inner = Address(w, int(rng.integers(1, 4)))
            corner = Address("", int(rng.integers(1, 4)))
            worst = max(
                worst,
                abs(eval_exact(m, corner, inner)),
                abs(eval_exact(m, inner, corner)),
            )
    verdict(4, "boundary vanishing", worst <= tol, f"max |f| {worst:.2e}")


def test_05_evaluator_agreement(ref03):
    rng = np.random.default_rng(4)
    ok = True
    details = []
    for k in (2, 4, 8):
        bound = ref03.alpha_sup**k * ref03.f_sup_bound + 1e-12
        worst = 0.0
        for _ in range(10**3):
            w1 = "".join(rng.choice(list("123"), size=k * ref03.n))
            w2 = "".join(rng.choice(list("123"), size=k * ref03.n))
            a = Address(w1, int(rng.integers(1, 4)))
            b = Address(w2, int(rng.integers(1, 4)))
            t = address_point(ref03.gasket1, a)
            s = address_point(ref03.gasket2, b)
            approx, _ = eval_approx(ref03, t, s, k)
            worst = max(worst, abs(approx - eval_exact(ref03, a, b)))
        ok = ok and worst <= bound
        details.append(f"k={k}: {worst:.2e} <= {bound:.2e}")
    verdict(5, "truncated evaluator within bound", ok, "; ".join(details))


def test_06_chaos_game_consistency(ref03):
    started = time.perf_counter()
    samples = chaos_game(ref03, 10**5, seed=42)
    tol = 0.3**12 * ref03.f_sup_bound + 1e-9
    worst = 0.0
    for sm in samples:
        approx, _ = eval_approx(ref03, sm.t, sm.s, 12)
        worst = max(worst, abs(sm.value - approx))
    wall = time.perf_counter() - started
    verdict(
        6,
        "chaos-game samples on the graph",
        worst <= tol and wall < 60.0,
        f"worst {worst:.2e} vs tol {tol:.2e}, {wall:.1f}s",
    )


def test_07_dimension_floor(zero03):
    started = time.perf_counter()
    recs = [box_count(zero03, n, oscillation(zero03, n)) for n in range(2, 7)]
    slope = estimate_box_dimension(recs).slope
    wall = time.perf_counter() - started
    verdict(
        7,
        "zero-data dimension slope at the floor",
        abs(slope - PRODUCT_DIM) <= 0.15 and wall < 120.0,
        f"slope {slope:.6f} vs {PRODUCT_DIM:.6f}, {wall:.1f}s",
    )


def test_08_dimension_ceiling(ref03):
    recs = [box_count(ref03, n, oscillation(ref03, n)) for n in range(2, 7)]
    slope = estimate_box_dimension(recs).slope
    ok = PRODUCT_DIM - 0.15 <= slope <= PRODUCT_DIM + 0.2
    verdict(
        8,
        "reference-model slope inside the sandwich",
        ok,
        f"slope {slope:.6f} in [{PRODUCT_DIM - 0.15:.4f}, {PRODUCT_DIM + 0.2:.4f}]",
    )


def test_09_holder_prediction(ref03, ref05, ref07):
    reports = {m.alpha_sup: holder_predict(m) for m in (ref03, ref05, ref07)}
    ok = (
        reports[0.3].case_id == 1
        and reports[0.5].case_id == 2
        and reports[0.7].case_id == 3
    )
    ok = ok and reports[0.3].exponent == 1.0
    ok = ok and abs(reports[0.5].exponent - 0.99) <= 1e-12
    lam = 1.0 - 1.0 + math.log(0.7) / math.log(0.5)
    ok = ok and abs(reports[0.7].exponent - lam) <= 1e-9
    details = [f"cases {[reports[a].case_id for a in (0.3, 0.5, 0.7)]}"]
    # empirical decay of the worst oscillation, one-sided against the
    # prediction; early levels carry a transient, so the fit starts at 3
    for m in (ref03, ref07):
        fit = holder_fit(m, 3, 7)
        pred = reports[m.alpha_sup].exponent
        ok = ok and fit.exponent >= pred - 0.2
        details.append(f"alpha={m.alpha_sup}: fit {fit.exponent:.3f} >= {pred - 0.2:.3f}")
    verdict(9, "Holder case analysis and empirical fit", ok, "; ".join(details))


def test_10_vertex_count():
    ok = all(
        len(enumerate_vertices(m)) == 3 * (3**m + 1) // 2 for m in range(7)
    )
    for m in range(5):
        pts = {
            (round(p[0], 9), round(p[1], 9))
            for w in itertools.product("123", repeat=m)
            for c in (1, 2, 3)
            for p in [address_point(SPEC, Address("".join(w), c))]
        }
        ok = ok and len(enumerate_vertices(m)) == len(pts)
    verdict(10, "vertex-count formula and brute-force dedupe", ok)


def test_11_compatibility(ref03, ref05, ref07, zero03):
    worst = 0.0
    for m in (ref03, ref05, ref07, zero03):
        rep = check_compatibility(m)
        worst = max(worst, rep.max_discrepancy)
    verdict(
        11,
        "shift-field compatibility at all junctions",
        worst <= 1e-12,
        f"max discrepancy {worst:.2e}",
    )
