import itertools
import warnings
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
    _descend,
    _descent_start,
    _window_start,
    address_point,
    bary_f,
    canonicalize,
    enumerate_vertices,
    locate,
    locate_many,
    vertex_count,
    word_map_inverse,
)
from oracles import descend_oracle, descent_start_oracle, enumerate_vertices_oracle, reduce_dyadic

SPEC = GasketSpec()
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

    def test_closed_form_equals_the_sorted_canonical_set(self):
        for m in range(8):
            assert enumerate_vertices(m) == enumerate_vertices_oracle(m)

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


# the unit gasket and custom corners, near the origin or far from it
placed_gaskets = st.builds(moved, gasket_specs, st.sampled_from(OFFSETS))


def _scalar_words(spec, pts, depth):
    """Scalar locate per point; None where it raises DomainError."""
    out = []
    for p in pts:
        try:
            out.append(locate(spec, p, depth))
        except DomainError:
            out.append(None)
    return out


def nudged_vertices(max_letters: int = 30):
    """(word, corner, dx, dy): the vertex L_word(p_corner) moved by (dx, dy).

    Short words give exact vertices, which are touching points of two cells
    at any deeper level; long words give generic gasket points.  Nudges
    below SNAP_TOL are kept only by the doubling snap window.
    """
    return st.tuples(
        st.text("123", max_size=max_letters),
        st.sampled_from(LETTERS),
        st.sampled_from((0.0, 5e-10, -5e-10, 3e-9)),
        st.sampled_from((0.0, 5e-10, -5e-10)),
    )


nudged_addresses = st.lists(nudged_vertices(), min_size=1, max_size=25)

# barycentric pairs of hull points, mostly in holes of the gasket
hull_pairs = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=5)


def probe(spec, word, corner, dx, dy) -> np.ndarray:
    """A `nudged_vertices` draw as a point of `spec`."""
    return address_point(spec, Address(word, corner)) + (dx, dy)


def hull_point(spec, u, v) -> np.ndarray:
    """The point with barycentrics (u, v, 1 - u - v)."""
    return np.array((u, v, 1.0 - u - v)) @ spec.corner_array


def probe_points(spec, addresses, hull) -> np.ndarray:
    """The (P, 2) points of `nudged_addresses` and `hull_pairs` draws."""
    pts = [probe(spec, *a) for a in addresses]
    pts += [hull_point(spec, u, v) for u, v in hull if u + v <= 1.0]
    return np.array(pts)


class TestLocateMany:
    @settings(max_examples=60, deadline=None)
    @given(
        spec=gasket_specs,
        addresses=nudged_addresses,
        hull=hull_pairs,
        depth=st.integers(1, 12),
    )
    def test_same_words_as_locate(self, spec, addresses, hull, depth):
        pts = probe_points(spec, addresses, hull)
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

    @settings(max_examples=60, deadline=None)
    @given(
        spec=placed_gaskets,
        addresses=nudged_addresses,
        hull=hull_pairs,
        depth=st.integers(1, MAX_DESCENT_DEPTH + 1),
    )
    def test_strided_and_fortran_input(self, spec, addresses, hull, depth):
        # column slices of a (P, 5) sample block, as in a graph CSV, and
        # a Fortran-order copy give the letters and the error of the
        # C-contiguous points
        pts = np.ascontiguousarray(probe_points(spec, addresses, hull))
        rows = [pts[i : i + 1] for i in range(len(pts))]
        # all rows, which most draws fail, and the rows that descend alone
        kept = [r for r in rows if not isinstance(outcome(locate_many, spec, r, depth)[0], type)]
        for part in (pts, np.concatenate(kept or [pts[:0]])):
            block = np.zeros((len(part), 5))
            block[:, 0:2] = part
            block[:, 2:4] = part
            want = outcome(locate_many, spec, part, depth)
            for layout in (block[:, 0:2], block[:, 2:4], np.asfortranarray(part)):
                got = outcome(locate_many, spec, layout, depth)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert got.dtype == np.int8 and got.tolist() == want.tolist()


class TestDescend:
    def test_barycentrics_after_each_level(self):
        # oracle: L_1 L_2 (p3) = p1/2 + p2/4 + p3/4 has coordinates
        # (0, 1/2, 1/2) in cell 1 and (0, 0, 1) in cell 12
        word, lams = descend_oracle(SPEC, P1 / 2 + P2 / 4 + P3 / 4, 2)
        assert word == "12"
        assert lams[0] == pytest.approx((0.0, 0.5, 0.5), abs=1e-15)
        assert lams[1] == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_each_level_is_the_exact_step(self):
        # lam -> 2 lam - e_a is exact in binary floating point
        word, lams = descend_oracle(SPEC, address_point(SPEC, Address("3121", 2)), 12)
        for j in range(1, 12):
            a = int(word[j]) - 1
            want = tuple(2.0 * v - (i == a) for i, v in enumerate(lams[j - 1]))
            assert lams[j] == want

    def test_hole_and_outside_raise(self):
        with pytest.raises(DomainError):
            descend_oracle(SPEC, SPEC.corner_array.mean(axis=0), 3)
        with pytest.raises(DomainError):
            descend_oracle(SPEC, (2.0, 0.0), 3)

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


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except (DomainError, PreconditionError) as e:
        return type(e), str(e)


def one_descent(spec, t, depth):
    """`_descend` of the one point t in `descend_oracle`'s form: the word
    and, as the one entry of lams, the barycentrics in its last cell."""
    letters, lam = _descend(spec, (t,), depth)
    return "".join(map(str, letters[:, 0].tolist())), [tuple(v[0] for v in lam)]


def descent_bits(spec, t, depth, f=one_descent):
    """The word and the last lams triple as uint64 bits, or the error."""
    got = outcome(f, spec, t, depth)
    if isinstance(got[0], type):
        return got
    word, lams = got
    return word, np.array(lams[-1]).view(np.uint64).tolist()


def batch_error(errors):
    """The error locate_many raises for rows whose scalar descents raised
    `errors` (None where a row descends): a hull error first, then a
    window error, then the shallowest failing level, each of the first
    row that has it."""

    def rank(err):
        kind, msg = err
        if msg.endswith("lies outside the gasket hull"):
            return (0,)
        if kind is PreconditionError:
            return (1,)
        return (2, int(msg.rsplit(" ", 1)[1]))

    raised = [e for e in errors if e is not None]
    return min(raised, key=rank) if raised else None


class TestDescendOracle:
    """locate, locate_many and their kernel `_descend` against
    `descend_oracle`, the full test of all three coordinates for every
    letter at every level."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec=placed_gaskets,
        addresses=nudged_addresses,
        hull=hull_pairs,
        depth=st.integers(1, MAX_DESCENT_DEPTH + 1),
    )
    def test_descend_equals_oracle(self, spec, addresses, hull, depth):
        for p in probe_points(spec, addresses, hull):
            for t in (tuple(p.tolist()), p):  # messages print the input's elements
                assert descent_bits(spec, t, depth) == descent_bits(spec, t, depth, descend_oracle)
                assert outcome(locate, spec, t, depth) == locate_outcome(spec, t, depth)

    @settings(max_examples=80, deadline=None)
    @given(
        spec=placed_gaskets,
        addresses=nudged_addresses,
        hull=hull_pairs,
        depth=st.integers(1, MAX_DESCENT_DEPTH + 1),
    )
    def test_locate_many_equals_oracle(self, spec, addresses, hull, depth):
        pts = probe_points(spec, addresses, hull)
        words, errors = [], []
        for row in pts.tolist():
            got = outcome(descend_oracle, spec, row, depth)
            failed = isinstance(got[0], type)
            errors.append(got if failed else None)
            words.append(None if failed else [int(ch) for ch in got[0]])
        got = outcome(locate_many, spec, pts, depth)
        want = batch_error(errors)
        if want is None:
            assert got.tolist() == words
        else:
            assert got == want

    def test_coordinate_below_the_window_fails_at_depth_one(self):
        # inside the hull gate, outside the starting window: no letter
        t = (0.25, -2e-10)
        assert bary_f(SPEC, *t)[2] < -_window_start(SPEC, *t)
        for depth in (1, 5):
            want = outcome(descend_oracle, SPEC, t, depth)
            assert want == (DomainError, f"point {t} is not on the gasket at depth 1")
            assert outcome(locate, SPEC, t, depth) == want
            assert outcome(locate_many, SPEC, [t], depth) == want


#: legs along the axes: bary_f's coefficients hold zeros, so an infinite
#: coordinate can give a NaN beside an infinity
AXIS = GasketSpec(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))

#: bary_f(inf, -inf) is (NaN, -inf, NaN) here: lam_1 = x + y, lam_2 =
#: 1 - x + y, lam_3 = -2 y
TILTED = GasketSpec(((1.0, 0.0), (0.0, 0.0), (0.5, -0.5)))


#: lam_1 = y here, so an infinite x makes the first coordinate and the
#: first row of the window NaN, and only those
LEANING = GasketSpec(((0.0, 1.0), (0.0, 0.0), (1.0, 0.0)))

#: the gaskets of the non-finite probes: the unit one, a skewed one and a
#: small one moved off the origin
PROBE_GASKETS = (
    SPEC,
    GasketSpec(((0.0, 0.0), (2.0, 0.5), (0.3, 1.7))),
    GasketSpec(((5.0, 5.0), (6.0, 5.0), (5.5, 6.0))),
)

#: coordinates of the probes: finite, infinite, NaN, huge and subnormal
PROBE_COORDS = (0.0, 0.25, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324)

#: odd coordinates: the probes', a negative subnormal, the least normal and any float
odd_coords = st.one_of(
    st.sampled_from(PROBE_COORDS + (-5e-324, 2.2250738585072014e-308)),
    st.floats(),
)


def locate_outcome(spec, t, depth):
    """`descend_oracle`'s word or error, as `outcome(locate, ...)` gives it."""
    got = outcome(descend_oracle, spec, t, depth)
    return got if isinstance(got[0], type) else got[0]


class TestNonFiniteInput:
    """locate and locate_many on NaN, infinite, huge and subnormal
    coordinates: the gates compare as Python's min and max do, so both
    give the word or the error of `descend_oracle`, row by row."""

    @pytest.mark.parametrize("spec", PROBE_GASKETS + (AXIS, TILTED, LEANING))
    def test_probes(self, spec):
        for t in itertools.product(PROBE_COORDS, repeat=2):
            want = locate_outcome(spec, t, 3)
            assert outcome(locate, spec, t, 3) == want
            got = outcome(locate_many, spec, [t], 3)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert got.tolist() == [[int(ch) for ch in want]]

    def test_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = list(itertools.product(PROBE_COORDS, repeat=2))
            for spec in PROBE_GASKETS + (AXIS, TILTED, LEANING):
                assert outcome(locate_many, spec, pts, 3)[0] in (DomainError, PreconditionError)

    @settings(max_examples=100, deadline=None)
    @given(
        spec=st.sampled_from(PROBE_GASKETS[:2] + (moved(SPEC, (1e3, -1e3)), TILTED, LEANING)),
        addresses=st.lists(nudged_vertices(), max_size=4),
        odd=st.lists(st.tuples(odd_coords, odd_coords), min_size=1, max_size=4),
        depth=st.integers(1, MAX_DESCENT_DEPTH),
    )
    def test_equals_oracle_row_by_row(self, spec, addresses, odd, depth):
        rows = [tuple(probe(spec, *a).tolist()) for a in addresses] + odd
        wants = [locate_outcome(spec, t, depth) for t in rows]
        for t, want in zip(rows, wants):
            assert outcome(locate, spec, t, depth) == want
        errors = [w if isinstance(w, tuple) else None for w in wants]
        got = outcome(locate_many, spec, rows, depth)
        if batch_error(errors) is None:
            assert got.tolist() == [[int(ch) for ch in w] for w in wants]
        else:
            assert got == batch_error(errors)


def descent_start(spec, t, depth):
    return _descent_start(spec._descent_coeffs, t, depth)


def start_bits(f, spec, t, depth):
    """f's (l0, l1, l2, neg) as uint64 bits, or the error."""
    got = outcome(f, spec, t, depth)
    return got if isinstance(got[0], type) else np.array(got).view(np.uint64).tolist()


class TestDescentStart:
    """`_descent_start` on the unpacked coefficients against
    `descent_start_oracle`, the parent's gates through bary_f and
    _window_start: the same bits and the same error, also where NaN
    decides what min and max return."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.one_of(placed_gaskets, st.sampled_from((AXIS, TILTED))),
        addresses=nudged_addresses,
        hull=hull_pairs,
        odd=st.lists(st.tuples(st.floats(), st.floats()), max_size=4),
        depth=st.integers(1, MAX_DESCENT_DEPTH + 1),
    )
    def test_equals_oracle(self, spec, addresses, hull, odd, depth):
        pts = [tuple(p) for p in probe_points(spec, addresses, hull).tolist()] + odd
        for t in pts:
            want = start_bits(descent_start_oracle, spec, t, depth)
            assert start_bits(descent_start, spec, t, depth) == want

    @pytest.mark.parametrize(
        "spec, t, kind",
        [
            # min(NaN, -inf, NaN) is the NaN, which passes the hull gate,
            # and the window is infinite
            (TILTED, (np.inf, -np.inf), PreconditionError),
            (AXIS, (np.inf, 0.0), DomainError),  # lam_1 = 1 - x - y = -inf
            (AXIS, (np.inf, -np.inf), PreconditionError),  # NaN everywhere
            (AXIS, (np.nan, 0.5), DomainError),  # and a NaN window: a hole at depth 1
            (AXIS, (0.25, -2e-10), DomainError),  # below the window, inside the hull gate
        ],
    )
    def test_non_finite_and_near_misses(self, spec, t, kind):
        want = start_bits(descent_start_oracle, spec, t, 12)
        assert want[0] is kind
        assert start_bits(descent_start, spec, t, 12) == want

    def test_window_equals_window_start(self):
        rng = np.random.default_rng(3)
        for spec in (SPEC, AXIS, moved(SPEC, (1e3, -1e3))):
            for u, v in rng.random((50, 2)) / 2:
                t = tuple(hull_point(spec, u, v).tolist())
                neg = descent_start(spec, t, 1)[3]
                assert neg == -_window_start(spec, *t)
                assert descent_start(spec, t, 1)[:3] == bary_f(spec, *t)


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
