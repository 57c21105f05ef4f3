import collections
import csv
import hashlib
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gasket import (
    OFFSETS,
    PROBE_COORDS,
    PROBE_GASKETS,
    gasket_specs,
    hull_point,
    moved,
    nudged_vertices,
    probe,
)

import gasketfif as gf
from gasketfif import evaluator, grids
from gasketfif.errors import CapacityError, DomainError, PreconditionError
from gasketfif.evaluator import (
    CHAOS_ORBITS,
    GraphSample,
    GraphSamples,
    GridFunction,
    address_letters,
    chaos_game,
    eval_approx,
    eval_exact,
    rb_apply,
    samples_to_csv,
    solve_fixed_point,
)
from gasketfif.gasket import (
    LETTERS,
    MAX_DESCENT_DEPTH,
    Address,
    GasketSpec,
    address_bary,
    address_point,
    enumerate_vertices,
    vertex_count,
)
from gasketfif.grids import product_values
from gasketfif.model import (
    ScalingField,
    build_model,
    perturb_shift,
    words_of_length,
)
from oracles import (
    eval_approx_oracle,
    fixed_point_oracle,
    grid_call_oracle,
    eval_exact_oracle,
    eval_scaling,
    eval_shift,
    scaling_at,
    shift_at,
)

SPEC = GasketSpec()
SKEWED = GasketSpec(((0.1, 0.2), (1.3, -0.1), (0.4, 1.1)))


def product_vertices(depth):
    vs = enumerate_vertices(depth)
    return [(a, b) for a in vs for b in vs]


class TestEvalExact:
    def test_zero_model_vanishes(self, zero03):
        for a, b in product_vertices(2):
            assert eval_exact(zero03, a, b) == 0.0

    def test_interpolates_the_data(self, ref03):
        for key, z in ref03.data.entries.items():
            got = eval_exact(ref03, key.first, key.second)
            assert got == pytest.approx(z, abs=1e-12)

    def test_corner_pairs_vanish(self, ref07):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert eval_exact(ref07, Address("", i), Address("", j)) == 0.0

    def test_representation_independent(self, ref03):
        # 2@1 and 1@2 name the same gasket point, so f must agree
        a = eval_exact(ref03, Address("2", 1), Address("12", 3))
        b = eval_exact(ref03, Address("1", 2), Address("21", 3))
        assert a == pytest.approx(b, abs=1e-12)

    def test_functional_equation_at_vertices(self, ref03):
        # f(L_w t, K_v s) = alpha_wv(t, s) f(t, s) + h_wv(t, s)
        for a, b in product_vertices(1):
            t = address_point(ref03.gasket1, a)
            s = address_point(ref03.gasket2, b)
            inner = eval_exact(ref03, a, b)
            for w in ("1", "2", "3"):
                for v in ("1", "2", "3"):
                    outer = eval_exact(
                        ref03, Address(w + a.word, a.corner), Address(v + b.word, b.corner)
                    )
                    rhs = eval_scaling(ref03, w, v, t, s) * inner + eval_shift(
                        ref03, w, v, t, s
                    )
                    assert outer == pytest.approx(rhs, abs=1e-12)

    def test_matches_vectorized_grid(self, ref05):
        fg1, fg2, F = gf.product_values(ref05, 2)
        c1, c2 = ref05.gasket1.corner_array, ref05.gasket2.corner_array
        for a in enumerate_vertices(2):
            for b in enumerate_vertices(2):
                t = address_point(ref05.gasket1, a)
                s = address_point(ref05.gasket2, b)
                i = int(np.argmin(np.linalg.norm(fg1.lam[2] @ c1 - t, axis=1)))
                j = int(np.argmin(np.linalg.norm(fg2.lam[2] @ c2 - s, axis=1)))
                assert F[i, j] == pytest.approx(eval_exact(ref05, a, b), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reads_neither_gasket(self, n):
        # alpha and h are bilinear in barycentric coordinates: f at a vertex
        # depends on its address only, bit for bit
        rng = np.random.default_rng(n)
        pairs = list(zip(random_addresses(rng, 3 * n, 20), random_addresses(rng, 2 * n, 20)))
        gaskets = (SPEC, SKEWED, moved(SPEC, (1e3, -1e3)))
        values = [
            [eval_exact(constant_model(n, 3, 0.6, g1, g2), a, b) for a, b in pairs]
            for g1, g2 in zip(gaskets, gaskets[::-1])
        ]
        assert values[0] == values[1] == values[2]

    @pytest.mark.parametrize("n, depth", [(1, 4), (2, 4), (3, 3)])
    def test_far_gasket_matches_product_values(self, n, depth):
        far = moved(SPEC, (1e3, -1e3))
        model = constant_model(n, 7, 0.6, far, far)
        fg, _, f = product_values(model, depth)
        verts = enumerate_vertices(depth)
        idx = fg.indices_of(verts)
        got = f[np.ix_(idx, idx)]
        (lt, ct), nv = address_letters(verts), len(verts)
        a, b = np.divmod(np.arange(nv * nv), nv)
        want = eval_exact(model, (lt[a], ct[a]), (lt[b], ct[b])).reshape(nv, nv)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(f))

    def test_deeper_model_interpolates(self):
        m = gf.random_model(2, seed=7)
        for key, z in m.data.entries.items():
            assert eval_exact(m, key.first, key.second) == pytest.approx(z, abs=1e-12)


@lru_cache(maxsize=None)
def signed_zero_model(n, kind, far):
    """Random data whose boundary values are -0.0, with constant (-0.3),
    corner-tensor or mixed scaling, on the unit gasket or one far from
    the origin: f is -0.0 at some vertex pairs."""
    data = gf.random_dataset(n, 7)
    data.values[data.values == 0.0] = -0.0
    rng = np.random.default_rng(n)
    words = words_of_length(n)
    cells = {
        (a, b): -0.3
        if kind == "constant" or (kind == "mixed" and rng.random() < 0.5)
        else rng.uniform(-0.3, 0.3, (3, 3))
        for a in words
        for b in words
    }
    g1 = moved(SPEC, OFFSETS[1]) if far else None
    return build_model(data, ScalingField.from_cells(cells, n), g1)


def exact_bits(model, pairs) -> list:
    """eval_exact_oracle at each pair, as uint64 bits."""
    return np.array([eval_exact_oracle(model, a, b) for a, b in pairs]).view(np.uint64).tolist()


addresses = st.builds(Address, st.text("123", max_size=52), st.sampled_from(LETTERS))


class TestArrayEvalExact:
    """The array eval_exact against `eval_exact_oracle`, the scalar loop
    it replaces, as uint64 bits: each pair padded to its own length."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        kind=st.sampled_from(("constant", "tensor", "mixed")),
        far=st.booleans(),
        pairs=st.lists(st.tuples(addresses, addresses), min_size=1, max_size=12),
    )
    def test_equals_the_scalar_loop(self, n, kind, far, pairs):
        model = signed_zero_model(n, kind, far)
        ts, ss = zip(*pairs)
        got = eval_exact(model, address_letters(ts), address_letters(ss))
        assert got.view(np.uint64).tolist() == exact_bits(model, pairs)
        one = np.array([eval_exact(model, a, b) for a, b in pairs])
        assert one.view(np.uint64).tolist() == exact_bits(model, pairs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_vertex_pair_with_its_signed_zeros(self, n):
        model = signed_zero_model(n, "constant", False)
        verts = enumerate_vertices(n + 1)
        pairs = [(a, b) for a in verts for b in verts]
        want = exact_bits(model, pairs)
        assert 1 << 63 in want  # -0.0, the case that comparing bits is for
        ts, ss = zip(*pairs)
        got = eval_exact(model, address_letters(ts), address_letters(ss))
        assert got.view(np.uint64).tolist() == want

    def test_letters_past_the_longest_word_change_nothing(self, ref03):
        ts = [Address("12", 3), Address("", 2), Address("3121", 1)]
        ss = [Address("2", 1), Address("33", 3), Address("", 1)]
        (lt, ct), (ls, cs) = address_letters(ts), address_letters(ss)
        wide = np.zeros((3, 9), dtype=np.int8)
        wide[:, : lt.shape[1]] = lt
        got = eval_exact(ref03, (wide, ct), (ls, cs))
        assert got.view(np.uint64).tolist() == exact_bits(ref03, list(zip(ts, ss)))

    def test_no_points(self, ref03):
        empty = (np.zeros((0, 0), dtype=np.int8), np.zeros(0, dtype=int))
        assert eval_exact(ref03, empty, empty).shape == (0,)

    def test_one_pair_is_a_float(self, ref03):
        assert type(eval_exact(ref03, Address("1", 2), Address("1", 2))) is float


class TestEvalApprox:
    def test_bad_depth_rejected(self, ref03):
        with pytest.raises(PreconditionError):
            eval_approx(ref03, (0.1, 0.0), (0.2, 0.0), 0)

    def test_bound_formula(self, ref03):
        _, bound = eval_approx(ref03, (0.25, 0.0), (0.25, 0.0), 4)
        assert bound == pytest.approx(0.3**4 * ref03.f_sup_bound)

    def test_error_within_bound_at_vertices(self, ref07):
        # the certified bound must dominate the actual truncation error
        rng = np.random.default_rng(4)
        verts = enumerate_vertices(3)
        for k in (1, 2, 3, 5):
            for _ in range(25):
                a = verts[rng.integers(len(verts))]
                b = verts[rng.integers(len(verts))]
                t = address_point(ref07.gasket1, a)
                s = address_point(ref07.gasket2, b)
                exact = eval_exact(ref07, a, b)
                approx, bound = eval_approx(ref07, t, s, k)
                assert abs(approx - exact) <= bound + 1e-12

    def test_converges_with_depth(self, ref05):
        a, b = Address("12", 3), Address("23", 1)
        t = address_point(ref05.gasket1, a)
        s = address_point(ref05.gasket2, b)
        exact = eval_exact(ref05, a, b)
        errs = [abs(eval_approx(ref05, t, s, k)[0] - exact) for k in (2, 4, 8, 16)]
        assert errs[-1] <= 1e-9
        assert errs[0] >= errs[-1]

    def test_zero_model_is_exact_at_any_depth(self, zero03):
        v, bound = eval_approx(zero03, (0.31640625, 0.0), (0.125, 0.0), 1)
        assert v == 0.0
        assert bound == 0.0


EPS = 2.0**-52


def vertex(spec, word, corner):
    """Address of L_word(p_corner) and its float point, built from the
    exact dyadic barycentric coordinates."""
    addr = Address(word, corner)
    return addr, tuple(address_point(spec, addr).tolist())


def certified(model, t_addr, s_addr, k):
    """|approx - exact| at a product vertex, the returned bound, and a few
    ulp at the scale of the gaskets' coordinates."""
    g1, g2 = model.gasket1, model.gasket2
    _, t = vertex(g1, t_addr.word, t_addr.corner)
    _, s = vertex(g2, s_addr.word, s_addr.corner)
    approx, bound = eval_approx(model, t, s, k)
    exact = eval_exact(model, t_addr, s_addr)
    scale = max(1.0, *(abs(v) / g.min_side for g in (g1, g2) for p in g.corners for v in p))
    return abs(approx - exact), bound, 64 * EPS * scale * (abs(exact) + model.f_sup_bound)


def random_addresses(rng, depth, count):
    return [
        Address("".join(rng.choice(list("123"), size=depth)), int(rng.integers(1, 4)))
        for _ in range(count)
    ]


# the unit gasket and custom corners, near the origin or far from it
certified_gaskets = st.builds(moved, gasket_specs, st.sampled_from(OFFSETS))


@lru_cache(maxsize=None)
def constant_model(n, seed, alpha, g1, g2):
    return build_model(gf.random_dataset(n, seed), ScalingField.constant(alpha, n), g1, g2)


class TestCertifiedBound:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from((1, 2, 3)),
        seed=st.integers(0, 3),
        alpha=st.sampled_from((0.01, 0.3, 0.5, 0.9, -0.6)),
        g1=certified_gaskets,
        g2=certified_gaskets,
        words=st.tuples(
            st.text("123", max_size=MAX_DESCENT_DEPTH),
            st.sampled_from(LETTERS),
            st.text("123", max_size=MAX_DESCENT_DEPTH),
            st.sampled_from(LETTERS),
        ),
        data=st.data(),
    )
    def test_within_bound_at_every_accepted_depth(self, n, seed, alpha, g1, g2, words, data):
        k = data.draw(st.integers(1, MAX_DESCENT_DEPTH // n), label="k")
        model = constant_model(n, seed, alpha, g1, g2)
        wt, ct, ws, cs = words
        try:
            err, bound, ulps = certified(model, Address(wt, ct), Address(ws, cs), k)
        except PreconditionError:
            # only gaskets whose float points resolve fewer levels refuse
            assert (g1, g2) != (SPEC, SPEC)
            return
        assert err <= bound + ulps

    @pytest.mark.parametrize(
        "n, seed, alpha, g1, g2, words, k",
        [
            # a skinny gasket 1000 away from the origin
            (2, 1, 0.01,
             GasketSpec(((1000.15625, -1000.0), (997.375, -997.25), (1000.0, -999.0))),
             SPEC, ("", 1, "2", 1), 6),
            (3, 2, 0.01, SPEC,
             GasketSpec(((-250.0, 400.0), (-252.0, 400.125), (-247.0, 400.5))),
             ("111", 3, "3112", 1), 7),
            (2, 2, 0.01,
             GasketSpec(((1000.0, -998.867179118533), (1001.132820881467, -1000.0),
                         (1000.155480198638, -1002.9931443049055))),
             GasketSpec(((1000.0, -999.2768663172085), (1001.132820881467, -1000.0),
                         (1000.155480198638, -1002.9931443049055))),
             ("3", 2, "1", 2), 10),
        ],
    )
    def test_bound_covers_input_rounding(self, n, seed, alpha, g1, g2, words, k):
        # draws whose error comes from the rounding of the float input
        # point, not from truncation or the evaluator's own arithmetic
        model = constant_model(n, seed, alpha, g1, g2)
        wt, ct, ws, cs = words
        err, bound, ulps = certified(model, Address(wt, ct), Address(ws, cs), k)
        assert err <= bound + ulps

    def test_n3_k12(self):
        # ROADMAP evidence: the CLI's default depth on N=3, 36 letters
        m = gf.random_model(3, seed=201)
        rng = np.random.default_rng(0)
        for a, b in zip(random_addresses(rng, 36, 60), random_addresses(rng, 36, 60)):
            err, bound, ulps = certified(m, a, b, 12)
            assert err <= bound + ulps

    def test_n2_k20(self):
        m = gf.random_model(2, seed=201)
        rng = np.random.default_rng(1)
        for depth in (20, 40):
            for a, b in zip(random_addresses(rng, depth, 30), random_addresses(rng, depth, 30)):
                err, bound, ulps = certified(m, a, b, 20)
                assert err <= bound + ulps

    def test_n3_k20_refused_before_locating(self):
        m = gf.random_model(3, seed=201)
        _, t = vertex(m.gasket1, "123" * 20, 1)
        with pytest.raises(PreconditionError, match="k <= 14 for N=3") as info:
            eval_approx(m, t, t, 20)
        assert not isinstance(info.value, DomainError)

    def test_depth_limit(self, ref03):
        t = address_point(ref03.gasket1, Address("2131", 3))
        for n, model in ((1, ref03), (2, gf.random_model(2, seed=3))):
            k = MAX_DESCENT_DEPTH // n
            eval_approx(model, t, t, k)
            with pytest.raises(PreconditionError):
                eval_approx(model, t, t, k + 1)

    def test_tensor_bound_is_a_posteriori(self):
        # corner tensors in [0.1, 0.6]: along most paths the product of the
        # scaling factors stays well below alpha_sup^k
        rng = np.random.default_rng(5)
        cells = {
            (w1, w2): rng.uniform(0.1, 0.6, (3, 3))
            for w1 in words_of_length(1)
            for w2 in words_of_length(1)
        }
        model = build_model(gf.random_dataset(1, 2), ScalingField.from_cells(cells, 1))
        a_priori = model.alpha_sup**8 * model.f_sup_bound
        for a, b in zip(random_addresses(rng, 12, 40), random_addresses(rng, 12, 40)):
            err, bound, ulps = certified(model, a, b, 8)
            assert bound < a_priori
            assert err <= bound + ulps

    def test_perturbed_model_gets_its_own_table(self, ref03):
        t, s = (0.3, 0.0), (0.25, 0.0)
        before = eval_approx(ref03, t, s, 2)[0]
        bumped = perturb_shift(ref03, "1", "1", 2, 2, 0.25)
        assert eval_approx(bumped, t, s, 2)[0] != before
        assert eval_approx(ref03, t, s, 2)[0] == before


@lru_cache(maxsize=None)
def scaled_model(n, kind, g1, g2):
    """Random data on (g1, g2) with constant, corner-tensor or mixed scaling."""
    rng = np.random.default_rng(n)
    words = words_of_length(n)
    cells = {
        (w1, w2): float(rng.uniform(-0.5, 0.5))
        if kind == "constant" or (kind == "mixed" and rng.random() < 0.5)
        else rng.uniform(-0.3, 0.3, (3, 3))
        for w1 in words
        for w2 in words
    }
    return build_model(gf.random_dataset(n, 7), ScalingField.from_cells(cells, n), g1, g2)


def approx_bits(f, *args):
    """f(*args), a value or a (value, bound) pair, as uint64 bits, or the
    type and message of the error."""
    try:
        return np.array(f(*args)).view(np.uint64).tolist()
    except (DomainError, PreconditionError, TypeError) as e:
        return type(e), str(e)


# a few fixed gaskets, so that scaled_model builds each model once: the
# unit and a skewed gasket, near the origin or far from it
model_gaskets = st.builds(moved, st.sampled_from((SPEC, SKEWED)), st.sampled_from(OFFSETS))


class TestEvalApproxOracle:
    """eval_approx against `eval_approx_oracle`, the sequential descent of
    t, then s, then one pass over the blocks: value and bound bit for bit,
    the same exception with the same message."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from((1, 2, 3)),
        kind=st.sampled_from(("constant", "tensor", "mixed")),
        g1=model_gaskets,
        g2=model_gaskets,
        pairs=st.lists(
            st.tuples(nudged_vertices(MAX_DESCENT_DEPTH), nudged_vertices(MAX_DESCENT_DEPTH)),
            min_size=1,
            max_size=8,
        ),
        hull=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=3),
        chaos_seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_equals_oracle(self, n, kind, g1, g2, pairs, hull, chaos_seed, data):
        # k + 1 beyond the deepest accepted k is refused
        k = data.draw(st.integers(1, MAX_DESCENT_DEPTH // n + 1), label="k")
        model = scaled_model(n, kind, g1, g2)
        points = [(probe(g1, *a).tolist(), probe(g2, *b).tolist()) for a, b in pairs]
        # hull points, mostly in holes, paired with gasket points
        points += [
            (hull_point(g1, u, v).tolist(), s)
            for (u, v), (_, s) in zip(hull, points)
            if u + v <= 1.0
        ]
        samples = chaos_game(model, 4, chaos_seed, burn_in=20)
        points += list(zip(samples.t.tolist(), samples.s.tolist()))
        for t, s in points:
            want = approx_bits(eval_approx_oracle, model, t, s, k)
            assert approx_bits(eval_approx, model, t, s, k) == want
            # and with the factors swapped, so s fails where t did
            want = approx_bits(eval_approx_oracle, model, s, t, k)
            assert approx_bits(eval_approx, model, s, t, k) == want

    def test_first_factor_error_comes_first(self, ref03):
        # t, the centre of a depth-14 cell, leaves the gasket at depth 15 and
        # s at depth 1: the error of t's whole descent is raised, as
        # descending t, then s, raises it
        corners = [address_point(SPEC, Address("1" * 14, c)) for c in LETTERS]
        t = tuple(np.mean(corners, axis=0).tolist())
        s = tuple(SPEC.corner_array.mean(axis=0).tolist())
        want = approx_bits(eval_approx_oracle, ref03, t, s, 30)
        assert want == (DomainError, f"point {t} is not on the gasket at depth 15")
        assert approx_bits(eval_approx, ref03, t, s, 30) == want
        # and before an s that is no point at all
        assert approx_bits(eval_approx, ref03, t, None, 30) == want
        t = (0.25, 0.0)
        want = approx_bits(eval_approx_oracle, ref03, t, None, 30)
        assert want[0] is TypeError
        assert approx_bits(eval_approx, ref03, t, None, 30) == want


#: SKEWED far from the origin: at N=1 a descent deeper than about 35
#: letters is refused by its window
FAR = moved(SKEWED, (1e3, -1e3))


def cell_centre(spec, word):
    """The centre of the cell of `word`: in a hole one level deeper."""
    return tuple(np.mean([address_point(spec, Address(word, c)) for c in LETTERS], axis=0).tolist())


class TestEvalApproxParent:
    """eval_approx reads its constants from one tuple built on a model's
    first call, and opens each descent with `_descent_start` on unpacked
    coefficients: (value, bound) stay the oracle's as uint64, and each
    gate raises the oracle's error, t's before s's."""

    @pytest.mark.parametrize("kind", ["constant", "tensor", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corners_and_touching_points_at_every_depth(self, n, kind):
        moved_skewed = moved(SKEWED, (-250.0, 4e2))
        model = scaled_model(n, kind, SPEC, moved_skewed)
        # hull corners, touching points of level-1 and level-3 cells, and
        # a generic point, on both gaskets
        addresses = [Address("", c) for c in LETTERS]
        addresses += [Address("2", 1), Address("13", 2), Address("231", 3)]
        addresses += [Address("3121" * 13, 2)]
        pts1 = [tuple(address_point(SPEC, a).tolist()) for a in addresses]
        pts2 = [tuple(address_point(moved_skewed, a).tolist()) for a in addresses]
        pairs = list(zip(pts1, pts2)) + list(zip(pts1, pts2[::-1]))
        for k in range(1, MAX_DESCENT_DEPTH // n + 1):
            for t, s in pairs:
                want = approx_bits(eval_approx_oracle, model, t, s, k)
                assert approx_bits(eval_approx, model, t, s, k) == want

    @pytest.mark.parametrize("bad", ["t", "s", "both"])
    @pytest.mark.parametrize(
        "gate, kind",
        [
            ("hull", DomainError),
            ("window", PreconditionError),
            ("hole", DomainError),
            ("deep hole", DomainError),
            ("below the window", DomainError),
        ],
    )
    def test_gate_errors(self, gate, kind, bad):
        good = Address("1232", 3)
        points = {
            "hull": (-1.0, -1.0),
            "hole": cell_centre(SPEC, ""),
            "deep hole": cell_centre(SPEC, "12312"),
            "below the window": (0.25, -2e-10),
        }
        k = 12
        if gate == "window":  # every point of FAR, at 40 letters
            k = 40
            g1, g2 = (FAR if bad in (f, "both") else SPEC for f in ("t", "s"))
            t, s = (tuple(address_point(g, good).tolist()) for g in (g1, g2))
        else:
            g1 = g2 = SPEC
            ok = tuple(address_point(SPEC, good).tolist())
            t = points[gate] if bad in ("t", "both") else ok
            s = points[gate] if bad in ("s", "both") else ok
        model = scaled_model(1, "mixed", g1, g2)
        want = approx_bits(eval_approx_oracle, model, t, s, k)
        assert want[0] is kind
        assert str((s if bad == "s" else t)) in want[1]
        assert approx_bits(eval_approx, model, t, s, k) == want

    def test_constants_built_once_per_model(self, monkeypatch):
        model = build_model(gf.random_dataset(1, 11), ScalingField.constant(0.4, 1))
        calls = []
        bound = evaluator._input_rounding_bound
        monkeypatch.setattr(
            evaluator, "_input_rounding_bound", lambda m, k: calls.append(k) or bound(m, k)
        )
        t, s = address_point(SPEC, Address("12", 3)), address_point(SPEC, Address("3", 1))
        for k in (3, 1, MAX_DESCENT_DEPTH, 7):
            want = approx_bits(eval_approx_oracle, model, t, s, k)
            assert approx_bits(eval_approx, model, t, s, k) == want
        # every admitted k at the first call, then none
        assert calls == list(range(1, MAX_DESCENT_DEPTH + 1))
        # a model made from this one by `replace` builds its own
        bumped = perturb_shift(model, "1", "2", 2, 2, 0.25)
        want = approx_bits(eval_approx_oracle, bumped, t, s, 5)
        assert approx_bits(eval_approx, bumped, t, s, 5) == want
        assert len(calls) == 2 * MAX_DESCENT_DEPTH


def tensor_model(n, seed):
    """Random data with a random 3x3 corner tensor on every cell-pair."""
    rng = np.random.default_rng(seed)
    words = words_of_length(n)
    cells = {(w1, w2): rng.uniform(-0.2, 0.2, (3, 3)) for w1 in words for w2 in words}
    return build_model(gf.random_dataset(n, seed), ScalingField.from_cells(cells, n))


def random_grid_function(model, depth, seed):
    g = GridFunction(model, depth)
    g.values[:] = np.random.default_rng(seed).uniform(-1, 1, g.values.shape)
    return g


def rb_apply_oracle(model, g):
    """T g by the rule of the scalar evaluator: each canonical vertex
    address (w, c), padded to w.c^r, is pulled back through the cell-pair of
    its first N letters, which is the lexicographically smallest containing
    one; alpha and h are evaluated one vertex pair at a time."""
    n, m = model.n, g.depth

    def pullbacks(fg):
        out = []
        for a in enumerate_vertices(m):
            padded = a.word + str(a.corner) * (m - len(a.word))
            pre = Address(padded[n:], a.corner)
            lam = address_bary(pre).tolist()  # the same on any gasket
            out.append((fg.index_of(a), padded[:n], fg.index_of(pre), lam))
        return out

    res = np.full_like(g.values, np.nan)
    pulls = pullbacks(g.grid)
    for i, w1, pi, lam in pulls:
        for j, w2, pj, mu in pulls:
            alpha = scaling_at(model, w1, w2, lam, mu)
            h = shift_at(model, w1, w2, lam, mu)
            res[i, j] = alpha * g.values[pi, pj] + h
    return res


class TestGridFunction:
    def test_depth_must_be_multiple_of_n(self, ref03):
        with pytest.raises(PreconditionError):
            GridFunction(ref03, 0)
        m = gf.random_model(2, seed=1)
        with pytest.raises(PreconditionError):
            GridFunction(m, 3)

    def test_grid_of_another_depth_refused(self):
        # a deeper grid would read wrong values, a shallower one raise
        # IndexError, through `at`
        model = gf.random_model(1, 1)
        for depth in (1, 3):
            with pytest.raises(PreconditionError):
                GridFunction(model, 2, grid=grids.FactorGrid(depth))
        g = GridFunction(model, 2, grid=grids.FactorGrid(2))
        assert g.grid.depth == 2

    def test_refused_over_the_byte_budget(self, ref03):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                GridFunction(ref03, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_over_deep_refused_by_its_depth(self, ref03):
        # V(depth) of these is too long to format (5000) or to compute (10^12)
        tracemalloc.start()
        try:
            for depth in (5000, 10**12):
                with pytest.raises(CapacityError):
                    GridFunction(ref03, depth)
                with pytest.raises(CapacityError):
                    solve_fixed_point(ref03, depth, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_at_uses_canonical_addressing(self, ref03):
        g = GridFunction(ref03, 1)
        g.values[:] = np.arange(g.values.size).reshape(g.values.shape)
        assert g.at(Address("2", 1), Address("", 3)) == g.at(
            Address("1", 2), Address("", 3)
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_at_matches_call_on_every_vertex(self, ref03, depth):
        # random values: a wrong index in `at` or a wrong corner in
        # `__call__` shows as an O(1) difference
        g = random_grid_function(ref03, depth, depth)
        verts = enumerate_vertices(depth)
        pts1 = [address_point(ref03.gasket1, a) for a in verts]
        pts2 = [address_point(ref03.gasket2, b) for b in verts]
        for a, t in zip(verts, pts1):
            for b, s in zip(verts, pts2):
                assert g(t, s) == pytest.approx(g.at(a, b), abs=1e-12)

    def test_values_in_factor_grid_order(self, ref03):
        g = random_grid_function(ref03, 2, 0)
        for a in enumerate_vertices(2):
            i = g.grid.index_of(a)
            assert np.allclose(
                (g.grid.lam[2] @ ref03.gasket1.corner_array)[i], address_point(ref03.gasket1, a)
            )
            assert g.at(a, Address("", 1)) == g.values[i, 0]

    def test_iterations_only_from_the_solver(self, ref03):
        g = GridFunction(ref03, 1)
        assert g.iterations is None
        assert rb_apply(ref03, g).iterations is None
        assert g.copy().iterations is None
        assert solve_fixed_point(ref03, 1, 1e-10).iterations >= 1

    def test_offgrid_call_matches_at_on_vertices(self, ref03):
        g = solve_fixed_point(ref03, 2, 1e-12)
        for a in enumerate_vertices(2)[::3]:
            for b in enumerate_vertices(2)[::4]:
                t = address_point(ref03.gasket1, a)
                s = address_point(ref03.gasket2, b)
                assert g(t, s) == pytest.approx(g.at(a, b), abs=1e-9)


def probe_pairs(spec):
    """(t, s) pairs of the non-finite probes of test_gasket on `spec`, as
    both factors: each probe beside each of some gasket points and odd
    ones, the other way round, and those points by each other."""
    probes = list(itertools.product(PROBE_COORDS, repeat=2))
    addresses = [Address("", 2), Address("1", 3), Address("213", 1), Address("3121" * 5, 2)]
    some = [tuple(address_point(spec, a).tolist()) for a in addresses]
    some += [(np.nan, 0.25), (np.inf, 0.0), (0.25, -1e308), (5e-324, 5e-324)]
    return list(itertools.product(probes + some, some)) + list(itertools.product(some, probes))


def probe_model(spec):
    return build_model(gf.random_dataset(1, 2), ScalingField.constant(0.3, 1), spec, spec)


class TestNonFiniteProbes:
    """GridFunction.__call__ and eval_approx on the non-finite probes: the
    value of `grid_call_oracle` as uint64, the (value, bound) of
    `eval_approx_oracle`, or their error, t's before s's."""

    @pytest.mark.parametrize("spec", PROBE_GASKETS)
    def test_grid_function(self, spec):
        g = random_grid_function(probe_model(spec), 3, 5)
        for t, s in probe_pairs(spec):
            assert approx_bits(g, t, s) == approx_bits(grid_call_oracle, g, t, s)

    @pytest.mark.parametrize("spec", PROBE_GASKETS)
    def test_eval_approx(self, spec):
        model = probe_model(spec)
        for t, s in probe_pairs(spec):
            want = approx_bits(eval_approx_oracle, model, t, s, 3)
            assert approx_bits(eval_approx, model, t, s, 3) == want


class TestRbApply:
    def test_zero_data_fixed_at_zero(self, zero03):
        g = GridFunction(zero03, 1)
        out = rb_apply(zero03, g)
        assert np.all(out.values == 0.0)

    def test_contraction_estimate(self, ref07):
        # sup |T g1 - T g2| <= alpha_sup * sup |g1 - g2|
        rng = np.random.default_rng(8)
        g1 = GridFunction(ref07, 2)
        g2 = GridFunction(ref07, 2)
        g1.values[:] = rng.uniform(-1, 1, g1.values.shape)
        g2.values[:] = rng.uniform(-1, 1, g2.values.shape)
        d0 = np.max(np.abs(g1.values - g2.values))
        d1 = np.max(np.abs(rb_apply(ref07, g1).values - rb_apply(ref07, g2).values))
        assert d1 <= ref07.alpha_sup * d0 + 1e-12

    @pytest.mark.parametrize(
        "make, depth",
        [
            (lambda: gf.random_model(1, 3), 3),
            (lambda: tensor_model(1, 4), 2),
            (lambda: gf.random_model(2, 5), 4),
            (lambda: tensor_model(2, 6), 2),
        ],
    )
    def test_matches_scalar_pullback(self, make, depth):
        # random g is discontinuous, so at junction vertices the value
        # depends on which containing cell-pair is used; the smallest wins
        model = make()
        g = random_grid_function(model, depth, 9)
        got = rb_apply(model, g).values
        want = rb_apply_oracle(model, g)
        scale = np.abs(g.values).max() + model.shift_sup
        assert np.max(np.abs(got - want)) <= 8 * EPS * scale

    @pytest.mark.parametrize("depth", [1, 3])
    def test_refuses_a_depth_that_is_no_multiple_of_n(self, depth):
        # a grid function of an N=1 model, at depths that no N=2 grid
        # function has: the result would be one the constructor refuses
        g = GridFunction(gf.random_model(1, 0), depth)
        with pytest.raises(PreconditionError, match="positive multiple of N=2"):
            rb_apply(gf.random_model(2, 0), g)

    def test_iteration_reaches_exact_values(self, ref03):
        # 30 applications from zero agree with the exact evaluator
        g = GridFunction(ref03, 2)
        for _ in range(30):
            g = rb_apply(ref03, g)
        for a in enumerate_vertices(2)[::2]:
            for b in enumerate_vertices(2)[::3]:
                assert g.at(a, b) == pytest.approx(eval_exact(ref03, a, b), abs=1e-9)


FIXED_POINT_MODELS = {
    "constant": lambda n: gf.random_model(n, 3),
    "tensor": lambda n: tensor_model(n, 4),
    "zero": lambda n: gf.zero_model(0.3, n),
}


class TestSolveFixedPoint:
    def test_zero_data_single_iteration(self, zero03):
        values, iterations = two_buffer_fixed_point(zero03, 1, 1e-10)
        assert iterations == 1
        assert np.all(values == 0.0)

    def test_iteration_count_bound(self, ref03):
        g = solve_fixed_point(ref03, 1, 1e-10)
        # geometric rate 0.3 from sup bound 0.5/(1-0.3): about 20 steps
        assert g.iterations <= 21

    def test_fixed_point_property(self, ref05):
        g = solve_fixed_point(ref05, 2, 1e-13)
        nxt = rb_apply(ref05, g)
        assert np.max(np.abs(nxt.values - g.values)) <= 1e-12

    def test_interpolates_data(self, ref05):
        g = solve_fixed_point(ref05, 1, 1e-13)
        for key, z in ref05.data.entries.items():
            assert g.at(key.first, key.second) == pytest.approx(z, abs=1e-11)

    @pytest.mark.parametrize(
        "make, depth",
        [
            (lambda: gf.random_model(1, 201), 4),
            (lambda: tensor_model(1, 7), 4),
            (lambda: gf.random_model(2, 5), 4),
            (lambda: tensor_model(2, 8), 4),
        ],
    )
    def test_equals_product_values(self, make, depth):
        # T runs the level step of product_values on the same exact dyadic
        # barycentrics, so after depth/N + 1 applications the fixed point is
        # the recursion's output bit for bit
        model = make()
        g = solve_fixed_point(model, depth, 1e-12)
        assert np.array_equal(g.values, product_values(model, depth)[2])

    def test_bad_tolerance(self, ref03):
        with pytest.raises(PreconditionError):
            solve_fixed_point(ref03, 1, 0.0)

    def test_nan_tolerance_refused(self, ref03):
        # NaN compares false with 0 either way: a "tol <= 0" guard let it in
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            solve_fixed_point(ref03, 2, float("nan"))

    @pytest.mark.parametrize("tol", [5e-324, 1e-15, 1e-12, 1e-6, 0.3])
    @pytest.mark.parametrize("kind", ["constant", "tensor", "zero"])
    @pytest.mark.parametrize("n, depth", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (3, 3)])
    def test_is_product_values_at_any_tolerance(self, n, depth, kind, tol):
        # the grid values carry no iteration error: the same bits and the
        # same count, whatever tol
        model = FIXED_POINT_MODELS[kind](n)
        g = solve_fixed_point(model, depth, tol)
        assert g.iterations == depth // n + 1
        want = product_values(model, depth)[2]
        assert np.array_equal(g.values.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("tol", [1e-15, 1e-12, 1e-6, 0.3])
    @pytest.mark.parametrize("kind", ["constant", "tensor", "zero"])
    @pytest.mark.parametrize("n, depth", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (3, 3)])
    def test_equals_the_two_buffer_iteration(self, n, depth, kind, tol):
        # the plain iteration through rb_apply against the cell-pair loop
        model = FIXED_POINT_MODELS[kind](n)
        want, count = fixed_point_oracle(model, grids.FactorGrid(depth), depth, tol)
        values, iterations = two_buffer_fixed_point(model, depth, tol)
        assert iterations == count
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["constant", "tensor", "zero"]),
        n_depth=st.sampled_from([(1, 1), (1, 4), (2, 2), (2, 4), (3, 3)]),
        log_tol=st.floats(np.log(5e-324), 0.0),
    )
    def test_stops_by_one_past_the_exact_values(self, kind, n_depth, log_tol):
        # level L's restriction is exact from application L/N on, so the
        # next application finds it unchanged, whatever the tolerance
        n, depth = n_depth
        model = FIXED_POINT_MODELS[kind](n)
        tol = max(float(np.exp(log_tol)), 5e-324)
        values, iterations = two_buffer_fixed_point(model, depth, tol)
        want, count = fixed_point_oracle(model, grids.FactorGrid(depth), depth, tol)
        assert iterations == count <= depth // n + 1
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", ["constant", "tensor", "zero"])
    @pytest.mark.parametrize("n, depth", [(1, 5), (1, 6), (2, 4), (2, 6), (3, 6)])
    def test_level_loop_equals_two_buffer_iteration(self, n, depth, kind):
        # a tol equal to a change of the plain iteration, or one ulp either
        # side of it, stops at the first application whose change is <= tol
        model = FIXED_POINT_MODELS[kind](n)
        g, iterates = GridFunction(model, depth), []
        while not iterates or iterates[-1][0] > 0:
            nxt = rb_apply(model, g)
            change = float(np.max(np.abs(nxt.values - g.values)))
            iterates.append((change, hashlib.sha256(nxt.values).digest()))
            g = nxt
        assert len(iterates) <= depth // n + 1
        tols = {5e-324}
        for change, _ in iterates:
            if change > 0:
                tols |= {change, np.nextafter(change, 0.0), np.nextafter(change, np.inf)}
        for tol in sorted(tols):
            j = next(j for j, (change, _) in enumerate(iterates, start=1) if change <= tol)
            values, iterations = two_buffer_fixed_point(model, depth, tol)
            assert iterations == j
            assert hashlib.sha256(values).digest() == iterates[j - 1][1]

    def test_two_full_size_steps(self, monkeypatch):
        # the plain iteration runs 7 steps at depth 6; the solver runs the
        # recursion, one step per level, so one step to level 6
        model = gf.random_model(1, 1)
        steps, step = [], grids.level_step
        monkeypatch.setattr(
            grids,
            "level_step",
            lambda m, fg, k, f, out: steps.append(k + m.n) or step(m, fg, k, f, out),
        )
        g = solve_fixed_point(model, 6, 1e-12)
        assert g.iterations == 7
        assert steps.count(6) == 1
        assert np.array_equal(g.values, product_values(model, 6)[2])

    def test_tolerance_equal_to_a_change_stops_there(self):
        # a tol that equals the j-th change exactly must stop at
        # application j, so the comparison is <=
        model = gf.random_model(1, 3)
        g, changes = GridFunction(model, 4), []
        for _ in range(4):
            nxt = rb_apply(model, g)
            changes.append(float(np.max(np.abs(nxt.values - g.values))))
            g = nxt
        assert all(a > b > 0 for a, b in zip(changes, changes[1:]))
        for j, tol in enumerate(changes, start=1):
            assert two_buffer_fixed_point(model, 4, tol)[1] == j

    def test_holds_one_value_matrix(self):
        # the values, the level m-N values they step from (1/9 of them for
        # N=1) and the factor grids; two alternating value matrices would be 2x
        model = gf.random_model(1, 1)
        tracemalloc.start()
        try:
            g = solve_fixed_point(model, 6, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.values.nbytes == 8 * vertex_count(6) ** 2
        assert peak < 1.3 * 8 * vertex_count(6) ** 2

    def test_peaks_no_higher_than_product_values(self):
        # it runs product_values and builds nothing of its size beside it
        model = gf.random_model(1, 1)
        peaks = []
        for run in (lambda: product_values(model, 7), lambda: solve_fixed_point(model, 7, 1e-12)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_refused_before_anything_is_built(self, ref03):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                solve_fixed_point(ref03, 8, 1e-12)
            with pytest.raises(PreconditionError):
                solve_fixed_point(gf.random_model(2, seed=1), 3, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def two_buffer_fixed_point(model, depth, tol):
    """(values, iterations) of the plain iteration: a fresh T g from each g,
    until the sup change is <= tol."""
    g = GridFunction(model, depth)
    iterations = 0
    while True:
        nxt = rb_apply(model, g)
        iterations += 1
        change = np.max(np.abs(nxt.values - g.values))
        g = nxt
        if change <= tol:
            return g.values, iterations


CHAOS_MODELS = {1: gf.reference_model(0.3), 2: gf.random_model(2, 5)}


def scalar_chaos_game(model, count, seed, burn_in):
    """Scalar replay of chaos_game's orbits from the same random stream.

    Each orbit steps its barycentric coordinates by L_w: lam -> 2^-N lam
    + o_w, with o_w the coordinates of L_w(p_1) less 2^-N e_1.  The kept
    coordinates are mapped into the plane as chaos_game maps them, one
    (3, orbits) block of a step at a time."""
    words = words_of_length(model.n)
    nw = len(words)
    scale = 0.5**model.n
    offset = {w: address_bary(Address(w, 1)).tolist() for w in words}
    for o in offset.values():
        o[0] -= scale
    orbits = min(count, CHAOS_ORBITS)
    steps = -(-count // orbits)
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, nw * nw, size=orbits) for _ in range(burn_in + steps)]
    kept_lam, kept_mu = np.empty((steps, 3, orbits)), np.empty((steps, 3, orbits))
    values = np.empty((steps, orbits))
    for o in range(orbits):
        lam, mu, x = (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0
        for step, c in enumerate(draws):
            w1, w2 = words[c[o] // nw], words[c[o] % nw]
            x = scaling_at(model, w1, w2, lam, mu) * x + shift_at(model, w1, w2, lam, mu)
            lam = tuple(v * scale + a for v, a in zip(lam, offset[w1]))
            mu = tuple(v * scale + a for v, a in zip(mu, offset[w2]))
            if step >= burn_in:
                j = step - burn_in
                kept_lam[j, :, o], kept_mu[j, :, o], values[j, o] = lam, mu, x
    t = np.stack([np.matmul(lam.T, model.gasket1.corner_array) for lam in kept_lam])
    s = np.stack([np.matmul(mu.T, model.gasket2.corner_array) for mu in kept_mu])
    out = [
        GraphSample(tuple(t[j, o].tolist()), tuple(s[j, o].tolist()), float(values[j, o]))
        for j in range(steps)
        for o in range(orbits)
    ]
    return out[:count]


def sample_bits(samples) -> list:
    """The (t, s, value) rows of a sequence of GraphSample, as uint64 bits;
    each field must be a Python float."""
    rows = [sm.t + sm.s + (sm.value,) for sm in samples]
    assert all(type(v) is float for row in rows for v in row)
    return np.array(rows, dtype=float).reshape(-1, 5).view(np.uint64).tolist()


class TestChaosGame:
    def test_refused_over_the_byte_budget(self, ref03):
        # steps x orbits x 5 floats: 6553 steps of 1024 orbits fit in
        # GRID_BYTES, one sample more needs a step more
        assert 40 * 6553 * CHAOS_ORBITS <= grids.GRID_BYTES < 40 * 6554 * CHAOS_ORBITS
        tracemalloc.start()
        try:
            for count in (6553 * CHAOS_ORBITS + 1, 10**13):
                with pytest.raises(CapacityError, match="bytes"):
                    chaos_game(ref03, count, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_zero_model_stays_at_zero(self, zero03):
        for sm in chaos_game(zero03, 200, seed=1):
            assert sm.value == 0.0

    def test_deterministic_for_seed(self, ref03):
        a = chaos_game(ref03, 100, seed=5)
        b = chaos_game(ref03, 100, seed=5)
        assert a == b

    def test_samples_lie_on_graph(self, ref03):
        # cross-check against the truncated evaluator with its bound
        for sm in chaos_game(ref03, 50, seed=9):
            approx, bound = eval_approx(ref03, sm.t, sm.s, 10)
            assert abs(sm.value - approx) <= bound + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 3000),
        burn_in=st.integers(0, 150),
    )
    def test_seeded_samples_on_graph(self, n, seed, count, burn_in):
        model = CHAOS_MODELS[n]
        a = chaos_game(model, count, seed, burn_in)
        assert a == chaos_game(model, count, seed, burn_in)
        assert len(a) == count
        for i in np.linspace(0, count - 1, min(count, 20)).astype(int):
            sm = a[int(i)]
            approx, bound = eval_approx(model, sm.t, sm.s, 10 // n)
            assert abs(sm.value - approx) <= bound + 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_far_gasket_samples_on_graph(self, n):
        far = moved(SPEC, (1e3, -1e3))
        model = constant_model(n, 5, 0.6, far, moved(SKEWED, (-250.0, 4e2)))
        samples = chaos_game(model, 2000, seed=n)
        for i in range(0, 2000, 37):
            sm = samples[i]
            approx, bound = eval_approx(model, sm.t, sm.s, 20 // n)
            assert abs(sm.value - approx) <= bound + 64 * EPS * model.f_sup_bound

    def test_orbits_match_scalar_steps(self):
        # mixed scalar/tensor scaling on a custom gasket exercises every
        # branch of the array step, at N=1 (9 cell-pairs) and at N=2 (81,
        # 27 of them tensor cells); the scalar replay is the reference, bit
        # for bit
        g1 = GasketSpec(((0.1, 0.2), (1.3, -0.1), (0.4, 1.1)))
        for n, tensor in ((1, lambda w: w in ("12", "33")), (2, lambda w: w[0] == w[3])):
            rng = np.random.default_rng(3)
            words = words_of_length(n)
            cells = {
                (w1, w2): rng.uniform(-0.3, 0.3, (3, 3)) if tensor(w1 + w2)
                else float(rng.uniform(-0.3, 0.3))
                for w1 in words
                for w2 in words
            }
            scaling = ScalingField.from_cells(cells, n)
            model = build_model(gf.random_dataset(n, 5), scaling, g1)
            assert 0 < model.cell_table.is_tensor.sum() < 9**n
            # iteration converts one block of CHAOS_ORBITS samples at a
            # time: counts on either side of one and two blocks
            b = CHAOS_ORBITS
            for count, burn_in in ((1, 0), (37, 5), (b - 1, 0), (b, 0), (b + 1, 0), (2 * b + 7, 0)):
                got = chaos_game(model, count, 11, burn_in)
                want = scalar_chaos_game(model, count, 11, burn_in)
                assert list(got) == want
                assert sample_bits(got) == sample_bits(want)
                got_rows = np.column_stack([got.t, got.s, got.value])
                assert got_rows.view(np.uint64).tolist() == sample_bits(want)

    def test_container_interface(self, ref03):
        samples = chaos_game(ref03, 10, seed=4)
        assert isinstance(samples, GraphSamples)
        assert samples.t.shape == (10, 2) and samples.value.shape == (10,)
        first = samples[0]
        assert isinstance(first, GraphSample)
        assert all(type(c) is float for c in first.t + first.s + (first.value,))
        assert samples[-1] == list(samples)[-1]
        part = samples[2:5]
        assert isinstance(part, GraphSamples) and len(part) == 3
        assert part[0] == samples[2]
        assert (samples == chaos_game(ref03, 10, seed=4)) is True
        assert (samples == samples[:9]) is False
        # iteration, bit for bit the samples that indexing builds: empty,
        # and a strided slice across block boundaries
        assert list(samples[:0]) == [] and sample_bits(samples[:0]) == []
        many = chaos_game(ref03, 2 * CHAOS_ORBITS + 7, seed=4)
        strided = many[::3]
        assert len(strided) == len(range(0, len(many), 3))
        by_index = [many[i] for i in range(0, len(many), 3)]
        assert list(strided) == by_index
        assert sample_bits(strided) == sample_bits(by_index)

    def test_iteration_holds_one_block(self, ref03):
        # draining the iterator converts one block at a time, so no Python
        # object is held per sample
        samples = chaos_game(ref03, 2**16, seed=2)
        tracemalloc.start()
        try:
            collections.deque(iter(samples), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_count_validation(self, ref03):
        with pytest.raises(PreconditionError):
            chaos_game(ref03, 0, seed=1)
        with pytest.raises(PreconditionError):
            chaos_game(ref03, 10, seed=1, burn_in=-1)

    def test_negative_seed_refused(self, ref03):
        # numpy's own refusal of it is a bare ValueError
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            chaos_game(ref03, 10, seed=-1)


class TestCsv:
    def test_roundtrip(self, ref03, tmp_path):
        samples = chaos_game(ref03, 25, seed=3)
        path = tmp_path / "out.csv"
        samples_to_csv(samples, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_x", "t_y", "s_x", "s_y", "f"]
        assert len(rows) == 26
        for row, sm in zip(rows[1:], samples):
            assert float(row[0]) == sm.t[0]
            assert float(row[4]) == sm.value

    def test_bytes_match_17g_text(self, ref03, tmp_path):
        samples = chaos_game(ref03, 300, seed=8)
        want = "t_x,t_y,s_x,s_y,f\n" + "".join(
            f"{sm.t[0]:.17g},{sm.t[1]:.17g},{sm.s[0]:.17g},{sm.s[1]:.17g},{sm.value:.17g}\n"
            for sm in samples
        )
        path = tmp_path / "out.csv"
        samples_to_csv(samples, path)
        assert path.read_bytes() == want.encode("ascii")

    def test_large_write_holds_no_object_per_row(self, ref03, tmp_path):
        samples = chaos_game(ref03, 200_000, seed=5)
        path = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            samples_to_csv(samples, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        with open(path) as fh:
            assert sum(1 for _ in fh) == 200_001
