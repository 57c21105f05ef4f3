import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketfif.errors import CapacityError, DomainError, PreconditionError
from gasketfif.gasket import (
    LETTERS,
    MAX_DESCENT_DEPTH,
    Address,
    GasketSpec,
    address_bary,
    address_point,
    canonicalize,
    descend,
    enumerate_vertices,
    locate,
    locate_many,
    reduce_dyadic,
    standard_gasket,
    vertex_count,
    word_map_inverse,
)

SPEC = standard_gasket()
P1, P2, P3 = (np.array(p) for p in SPEC.corners)


def word_map(spec, w, t):
    """L_w(t) = L_{w_1}(...L_{w_|w|}(t)), with L_a(t) = (t + p_a) / 2, in
    the plane: an oracle independent of the barycentric helpers."""
    t = np.asarray(t, dtype=float)
    for ch in reversed(w):
        t = (t + spec.corner_array[int(ch) - 1]) / 2
    return t


class TestWordMap:
    # the maps L_w on vertices: address_point(spec, (w, c)) is L_w(p_c)
    def test_fixed_point_of_own_corner(self):
        assert np.array_equal(address_point(SPEC, Address("1", 1)), P1)

    def test_single_letter_is_midpoint_map(self):
        # oracle: L_2(t) = (t + p2) / 2
        for c, p in zip(LETTERS, (P1, P2, P3)):
            assert np.allclose(address_point(SPEC, Address("2", c)), (p + P2) / 2)

    def test_two_letter_hand_composition(self):
        # oracle: L_1(L_2(p3)) = p3/4 + p1/2 + p2/4
        expected = P3 / 4 + P1 / 2 + P2 / 4
        got = address_point(SPEC, Address("12", 3))
        assert np.allclose(got, expected)
        assert np.allclose(got, (0.375, 0.21650635), atol=1e-8)
        assert np.allclose(got, word_map(SPEC, "12", P3))

    def test_contraction_ratio_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = "".join(rng.choice(list("123"), size=rng.integers(1, 7)))
            u, v = ("".join(rng.choice(list("123"), size=3)) for _ in range(2))
            cu, cv = (int(c) for c in rng.integers(1, 4, size=2))
            def dist(prefix):
                a, b = Address(prefix + u, cu), Address(prefix + v, cv)
                return np.linalg.norm(address_point(SPEC, a) - address_point(SPEC, b))

            d0, d1 = dist(""), dist(w)
            assert d1 == pytest.approx(0.5 ** len(w) * d0, rel=1e-12)


class TestWordMapInverse:
    def test_fixed_point(self):
        assert np.allclose(word_map_inverse(SPEC, "1", P1), P1)

    def test_inverse_of_midpoint(self):
        assert np.allclose(word_map_inverse(SPEC, "2", (0.5, 0.0)), (0.0, 0.0))

    def test_far_outside_cell_raises(self):
        with pytest.raises(DomainError):
            word_map_inverse(SPEC, "1", (2.0, 2.0))

    def test_roundtrip_on_cell(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            w = "".join(rng.choice(list("123"), size=rng.integers(1, 6)))
            lam = rng.dirichlet(np.ones(3))
            t = word_map(SPEC, w, lam @ SPEC.corner_array)
            back = word_map(SPEC, w, word_map_inverse(SPEC, w, t))
            assert np.allclose(back, t, atol=1e-12)


class TestAddressCoords:
    def test_bare_corner(self):
        assert address_bary(Address("", 1)).tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(address_point(SPEC, Address("", 1)), P1)

    def test_midpoint(self):
        # oracle: L_1(p_2) = (p1 + p2)/2
        assert address_bary(Address("1", 2)).tolist() == [0.5, 0.5, 0.0]
        assert np.allclose(address_point(SPEC, Address("1", 2)), (P1 + P2) / 2)

    def test_depth_two(self):
        # oracle: L_1 L_2 (p3) = p1/2 + p2/4 + p3/4
        assert address_bary(Address("12", 3)).tolist() == [0.5, 0.25, 0.25]
        assert np.allclose(address_point(SPEC, Address("12", 3)), P1 / 2 + P2 / 4 + P3 / 4)

    @settings(max_examples=60, deadline=None)
    @given(word=st.text("123", max_size=52), corner=st.sampled_from(LETTERS))
    def test_exact_dyadics(self, word, corner):
        # oracle: sum_k 2^-k e_{w_k} + 2^-|w| e_c in rational arithmetic
        want = [Fraction(0)] * 3
        for k, ch in enumerate(word, start=1):
            want[int(ch) - 1] += Fraction(1, 2**k)
        want[corner - 1] += Fraction(1, 2 ** len(word))
        lam = address_bary(Address(word, corner))
        assert [Fraction(v) for v in lam] == want
        assert np.array_equal(address_point(SPEC, Address(word, corner)), lam @ SPEC.corner_array)


class TestCanonicalize:
    def test_trailing_letter_reduction(self):
        assert canonicalize(Address("11", 1)) == Address("", 1)

    def test_touching_pair_resolves_to_smaller(self):
        assert canonicalize(Address("2", 1)) == Address("1", 2)
        assert canonicalize(Address("1", 2)) == Address("1", 2)

    def test_deeper_touching_identity(self):
        a = canonicalize(Address("121", 2))
        b = canonicalize(Address("122", 1))
        assert a == b
        assert np.array_equal(address_bary(a), address_bary(Address("122", 1)))

    def test_idempotent_and_separating_bruteforce(self):
        # every address of depth <= 4: canonical forms agree exactly when
        # the exact dyadic coordinates agree
        addresses = [
            Address("".join(w), c)
            for m in range(5)
            for w in itertools.product("123", repeat=m)
            for c in (1, 2, 3)
        ]
        by_key = {}
        for a in addresses:
            ca = canonicalize(a)
            assert canonicalize(ca) == ca
            key = tuple(address_bary(a).tolist())  # exact at these depths
            by_key.setdefault(key, set()).add(ca)
        for key, forms in by_key.items():
            assert len(forms) == 1, (key, forms)

    def test_touching_identity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            w = "".join(rng.choice(list("123"), size=rng.integers(0, 4)))
            a, b = rng.choice([1, 2, 3], size=2, replace=False)
            k = int(rng.integers(0, 3))
            x = Address(w + str(a) + str(b) * k, int(b))
            y = Address(w + str(b) + str(a) * k, int(a))
            assert np.array_equal(address_bary(x), address_bary(y))
            assert canonicalize(x) == canonicalize(y)


class TestEnumerateVertices:
    def test_counts_formula(self):
        for m in range(7):
            assert len(enumerate_vertices(m)) == 3 * (3**m + 1) // 2

    def test_vertex_count_matches_enumeration(self):
        for m in range(7):
            assert vertex_count(m) == len(enumerate_vertices(m)) == 3 * (3**m + 1) // 2
        assert vertex_count(8) == 9843

    def test_bruteforce_dedupe_small_depths(self):
        # oracle: collect float points of all 3^m * 3 raw addresses and
        # dedupe by rounding
        for m in range(5):
            pts = set()
            for w in itertools.product("123", repeat=m):
                for c in (1, 2, 3):
                    p = address_point(SPEC, Address("".join(w), c))
                    pts.add((round(p[0], 9), round(p[1], 9)))
            assert len(enumerate_vertices(m)) == len(pts)

    def test_depth_one_has_corners_and_midpoints(self):
        got = {str(a) for a in enumerate_vertices(1)}
        assert got == {"@1", "@2", "@3", "1@2", "1@3", "2@3"}

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_vertices(9)

    def test_same_list_as_numerator_keyed_enumeration(self):
        # oracle: dedupe on the reduced dyadic numerators of every raw
        # address, keeping the canonical form of the first one met
        def by_numerators(m):
            seen = {}
            for letters in itertools.product("123", repeat=m):
                word = "".join(letters)
                for corner in LETTERS:
                    nums = [0, 0, 0]
                    for k, ch in enumerate(word, start=1):
                        nums[int(ch) - 1] += 2 ** (m - k)
                    nums[corner - 1] += 1
                    key = reduce_dyadic(tuple(nums), m)
                    seen.setdefault(key, canonicalize(Address(word, corner)))
            return sorted(seen.values(), key=lambda a: (len(a.word), a.word, a.corner))

        for m in range(7):
            assert enumerate_vertices(m) == by_numerators(m)


class TestLocate:
    def test_corner_stays_in_own_cell(self):
        assert locate(SPEC, P2, 2) == "22"

    def test_interior_point(self):
        assert locate(SPEC, (0.1, 0.0), 1) == "1"

    def test_touching_point_lexicographic(self):
        assert locate(SPEC, (0.5, 0.0), 1) == "1"

    def test_outside_hull_raises(self):
        with pytest.raises(DomainError):
            locate(SPEC, (5.0, 5.0), 1)

    def test_hole_point_raises(self):
        centroid = SPEC.corner_array.mean(axis=0)
        with pytest.raises(DomainError):
            locate(SPEC, centroid, 1)

    def test_consistent_with_word_map(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            w = "".join(rng.choice(list("123"), size=d))
            # random gasket point inside the cell: image of a deep vertex
            inner = "".join(rng.choice(list("123"), size=3))
            t = address_point(SPEC, Address(w + inner, int(rng.integers(1, 4))))
            w2 = locate(SPEC, t, d)
            # the returned cell must contain t
            word_map_inverse(SPEC, w2, t)


def _area2(corners):
    (x1, y1), (x2, y2), (x3, y3) = corners
    return (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)


_coord = st.floats(-3.0, 3.0, allow_nan=False)
gasket_specs = st.one_of(
    st.just(SPEC),
    st.tuples(*[st.tuples(_coord, _coord)] * 3)
    .filter(lambda c: abs(_area2(c)) > 0.5)
    .map(GasketSpec),
)


#: moves that keep a gasket's shape but put it far from the origin
OFFSETS = ((0.0, 0.0), (1e3, -1e3), (-250.0, 4e2))


def moved(spec, offset):
    return GasketSpec(tuple((x + offset[0], y + offset[1]) for x, y in spec.corners))


def _scalar_words(spec, pts, depth):
    """Scalar locate per point; None where it raises DomainError."""
    out = []
    for p in pts:
        try:
            out.append(locate(spec, p, depth))
        except DomainError:
            out.append(None)
    return out


class TestLocateMany:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=gasket_specs,
        # short words give exact vertices, which are touching points of two
        # cells at any deeper level; long words give generic gasket points.
        # Nudges below SNAP_TOL are kept only by the doubling snap window.
        addresses=st.lists(
            st.tuples(
                st.text("123", max_size=30),
                st.sampled_from(LETTERS),
                st.sampled_from((0.0, 5e-10, -5e-10, 3e-9)),
                st.sampled_from((0.0, 5e-10, -5e-10)),
            ),
            min_size=1,
            max_size=25,
        ),
        # barycentric pairs of hull points, mostly in holes of the gasket
        hull=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=5),
        depth=st.integers(1, 12),
    )
    def test_same_words_as_locate(self, spec, addresses, hull, depth):
        pts = [address_point(spec, Address(w, c)) + (dx, dy) for w, c, dx, dy in addresses]
        pts += [
            np.array((u, v, 1.0 - u - v)) @ spec.corner_array
            for u, v in hull
            if u + v <= 1.0
        ]
        pts = np.array(pts)
        expected = _scalar_words(spec, pts, depth)
        ok = [i for i, w in enumerate(expected) if w is not None]
        got = locate_many(spec, pts[ok], depth)
        assert got.shape == (len(ok), depth)
        assert ["".join(map(str, row)) for row in got.tolist()] == [expected[i] for i in ok]
        for i, w in enumerate(expected):
            if w is None:
                with pytest.raises(DomainError):
                    locate_many(spec, pts[i : i + 1], depth)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            locate_many(SPEC, [P1], 0)


class TestDescend:
    def test_barycentrics_after_each_level(self):
        # oracle: L_1 L_2 (p3) = p1/2 + p2/4 + p3/4 has coordinates
        # (0, 1/2, 1/2) in cell 1 and (0, 0, 1) in cell 12
        word, lams = descend(SPEC, P1 / 2 + P2 / 4 + P3 / 4, 2)
        assert word == "12"
        assert lams[0] == pytest.approx((0.0, 0.5, 0.5), abs=1e-15)
        assert lams[1] == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_each_level_is_the_exact_step(self):
        # lam -> 2 lam - e_a is exact in binary floating point
        word, lams = descend(SPEC, address_point(SPEC, Address("3121", 2)), 12)
        for j in range(1, 12):
            a = int(word[j]) - 1
            want = tuple(2.0 * v - (i == a) for i, v in enumerate(lams[j - 1]))
            assert lams[j] == want

    def test_hole_and_outside_raise(self):
        with pytest.raises(DomainError):
            descend(SPEC, SPEC.corner_array.mean(axis=0), 3)
        with pytest.raises(DomainError):
            descend(SPEC, (2.0, 0.0), 3)

    def test_every_unit_gasket_point_resolves_to_the_limit(self):
        points = [P1, P2, P3, (0.5, 0.0), address_point(SPEC, Address("1231", 2))]
        for p in points:
            assert len(locate(SPEC, p, MAX_DESCENT_DEPTH)) == MAX_DESCENT_DEPTH
            with pytest.raises(PreconditionError):
                locate(SPEC, p, MAX_DESCENT_DEPTH + 1)
        got = locate_many(SPEC, points, MAX_DESCENT_DEPTH)
        assert got.shape == (len(points), MAX_DESCENT_DEPTH)
        with pytest.raises(PreconditionError):
            locate_many(SPEC, points, MAX_DESCENT_DEPTH + 1)

    def test_far_gasket_resolves_fewer_levels(self):
        # float points 1e3 away from the origin carry 1e3 times the rounding
        far = moved(SPEC, (1e3, -1e3))
        p = far.corners[1]
        assert locate(far, p, 30) == "2" * 30
        with pytest.raises(PreconditionError):
            locate(far, p, MAX_DESCENT_DEPTH)
        with pytest.raises(PreconditionError):
            locate_many(far, [p], MAX_DESCENT_DEPTH)

    def test_far_gasket_corners(self):
        # the float inverse of this corner matrix puts the corners about
        # 1e-11 outside the triangle: the window must cover the inverse's
        # own residual, not only the rounding of bary_f
        far = GasketSpec(((519.06, 726.37), (520.88, 728.93), (521.58, 731.61)))
        for c in LETTERS:
            assert locate(far, far.corners[c - 1], 20) == str(c) * 20

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(moved, gasket_specs, st.sampled_from(OFFSETS)),
        word=st.text("123", max_size=MAX_DESCENT_DEPTH),
        corner=st.sampled_from(LETTERS),
        depth=st.integers(1, MAX_DESCENT_DEPTH),
    )
    def test_vertices_never_leave_the_gasket(self, spec, word, corner, depth):
        # a vertex built from exact dyadic barycentrics is located or, on a
        # gasket whose float points cannot resolve `depth`, refused; never
        # sent to a hole
        pt = address_point(spec, Address(word, corner))
        try:
            w = locate(spec, pt, depth)
        except PreconditionError:
            assert spec != SPEC
            return
        assert len(w) == depth
        assert locate_many(spec, [pt], depth).tolist() == [[int(ch) for ch in w]]


def test_degenerate_gasket_rejected():
    with pytest.raises(ValueError):
        GasketSpec(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))


@pytest.mark.parametrize(
    "corners",
    [
        ((0.0, 0.0), (1.0, 0.0), (float("nan"), 1.0)),
        ((float("nan"),) * 2,) * 3,
        ((0.0, 0.0), (float("inf"), 0.0), (0.5, 1.0)),
        ((0.0, 0.0), (1.0, 0.0), (0.5, float("-inf"))),
        # finite corners whose side length overflows
        ((-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)),
    ],
)
def test_non_finite_gasket_rejected(corners):
    with pytest.raises(ValueError, match="must be finite"):
        GasketSpec(corners)


def test_address_parsing_roundtrip():
    a = Address("12", 3)
    assert Address.parse(str(a)) == a
    assert Address.parse("@2") == Address("", 2)
    with pytest.raises(ValueError):
        Address.parse("123")
    with pytest.raises(ValueError):
        Address("14", 1)
