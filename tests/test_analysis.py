import math
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cell_oscillation_oracle
from test_grids import any_depth_model, bits

import gasketfif as gf
from gasketfif import analysis
from gasketfif.analysis import (
    PRODUCT_DIMENSION,
    BoxCountRecord,
    _line_fit,
    box_count,
    box_count_cloud,
    dimension_bounds,
    estimate_box_dimension,
    holder_fit,
    holder_predict,
    oscillation,
    oscillations,
    refinement_depth,
)
from gasketfif.errors import CapacityError, HypothesisError, PreconditionError
from gasketfif.evaluator import GraphSamples, chaos_game
from gasketfif.gasket import Address, GasketSpec, locate, vertex_count
from gasketfif.grids import FactorGrid, product_values
from gasketfif.model import ScalingField, build_model, words_of_length


def scalar_cloud_count(model, samples, n):
    """Reference cloud count: one dict bin per cell-pair, scalar locate."""
    bins = {}
    for sm in samples:
        key = (locate(model.gasket1, sm.t, n), locate(model.gasket2, sm.s, n))
        lo, hi = bins.get(key, (sm.value, sm.value))
        bins[key] = (min(lo, sm.value), max(hi, sm.value))
    factor = 2.0**n / max(model.gasket1.side, model.gasket2.side)
    return sum(1 + math.ceil((hi - lo) * factor) for lo, hi in bins.values())


def brute_oscillation(model, n, r):
    """Reference table: for each cell-pair, max - min of f over the
    product of its level-(n + r) vertices, found by address."""
    depth = model.n * -(-(n + r) // model.n)
    fg1, fg2, f = product_values(model, depth)

    def samples(fg, w):
        return [
            fg.index_of(Address(w + u, c)) for u in words_of_length(r) for c in (1, 2, 3)
        ]

    words = words_of_length(n)
    rows = [samples(fg1, w) for w in words]
    cols = [samples(fg2, w) for w in words]
    out = np.empty((len(words), len(words)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            block = f[np.ix_(a, b)]
            out[i, j] = block.max() - block.min()
    return out


class TestHolderPredict:
    def test_case_one(self, ref03):
        rep = holder_predict(ref03)
        assert rep.case_id == 1
        assert rep.delta == pytest.approx(0.6)
        assert rep.exponent == 1.0

    def test_case_two(self, ref05):
        rep = holder_predict(ref05)
        assert rep.case_id == 2
        assert rep.exponent == pytest.approx(0.99)
        rep2 = holder_predict(ref05, mu=0.05)
        assert rep2.exponent == pytest.approx(0.95)

    def test_case_three(self, ref07):
        rep = holder_predict(ref07)
        assert rep.case_id == 3
        # 1 - 1 + ln(0.7)/ln(0.5), computed independently
        expected = math.log(0.7) / math.log(0.5)
        assert rep.exponent == pytest.approx(expected, abs=1e-15)
        assert rep.exponent == pytest.approx(0.5145731728297583, abs=1e-12)

    def test_deeper_model_threshold(self):
        # N=2 has a = 1/4, so 0.3 is already supercritical
        m = gf.random_model(2, seed=2, alpha=0.3)
        assert holder_predict(m).case_id == 3
        m = gf.random_model(2, seed=2, alpha=0.2)
        assert holder_predict(m).case_id == 1


class TestOscillation:
    def test_zero_model(self, zero03):
        tab = oscillation(zero03, 2)
        assert tab.max() == 0.0
        assert tab.values.shape == (9, 9)

    def test_bump_cell_oscillation(self, ref03):
        # the level-1 cell-pair (1, 1) contains the bump vertex with
        # f = 0.5 and corner pairs with f = 0
        tab = oscillation(ref03, 1)
        assert tab.r("1", "1") == pytest.approx(0.5, abs=1e-12)

    def test_monotone_under_more_samples(self, ref07):
        coarse = oscillation(ref07, 2, samples_per_cell=9)
        fine = oscillation(ref07, 2, samples_per_cell=100)
        assert np.all(fine.values >= coarse.values - 1e-15)
        assert fine.max() >= coarse.max()

    @pytest.mark.parametrize("n_model, seed, level", [(1, 201, 3), (2, 5, 3)])
    @pytest.mark.parametrize("samples, r", [(9, 0), (25, 1)])
    def test_matches_brute_force(self, n_model, seed, level, samples, r):
        # max and min are exact, so the separable reduction must agree
        # bit for bit; r > 0 refines each cell and N = 2 pads the depth
        model = gf.random_model(n_model, seed)
        tab = oscillation(model, level, samples)
        assert np.array_equal(tab.values, brute_oscillation(model, level, r))

    @pytest.mark.parametrize("samples", [9, 36])
    @pytest.mark.parametrize("kind", ["constant", "tensor"])
    @pytest.mark.parametrize("n_model", [1, 2])
    def test_one_sweep_equals_the_per_level_tables(self, n_model, kind, samples):
        # levels 1..5 off one grid (depth 5, or 6 when refined once) are the
        # tables of one product_values pass per level, bit for bit
        model = any_depth_model(n_model, kind)
        levels = range(1, 6) if samples == 9 else range(1, 5)
        tables = list(oscillations(model, levels, samples))
        assert [t.level for t in tables] == list(levels)
        for t in tables:
            want = oscillation(model, t.level, samples)
            assert t.samples_per_cell == want.samples_per_cell
            assert np.array_equal(t.values, want.values)

    def test_one_sweep_runs_one_grid(self, ref03, monkeypatch):
        depths = []
        real = analysis.product_values
        monkeypatch.setattr(
            analysis, "product_values", lambda m, d: depths.append(d) or real(m, d)
        )
        holder_fit(ref03, 2, 5, samples_per_cell=25)
        assert depths == [5]

    @pytest.mark.parametrize(
        "n_model, levels, samples",
        [(3, range(1, 5), 9), (2, range(1, 4), 25), (3, [1, 2], 9), (2, [1], 36)],
    )
    def test_levels_below_n_match_brute_force(self, n_model, levels, samples):
        # levels below N are no union of length-N cell-pairs: read off one
        # grid, next to the deeper levels read off the last step's blocks
        model = gf.random_model(n_model, 7)
        r = refinement_depth(samples)
        for t in oscillations(model, levels, samples):
            assert np.array_equal(t.values, brute_oscillation(model, t.level, r))

    def test_samples_per_cell_counts_distinct_vertex_pairs(self, ref03):
        got = [oscillation(ref03, 1, s).samples_per_cell for s in (9, 36, 225)]
        assert got == [9, 36, 225]
        for r, want in enumerate(got):
            # the distinct level-(1 + r) vertices of a level-1 cell, squared
            row = FactorGrid(1 + r).cells[1 + r].reshape(3, -1)[0]
            assert len(set(row.tolist())) ** 2 == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_level_6_holds_less_than_its_matrix(self, seed):
        # the tables come from the level-5 values and one level-5 image
        # block at a time; the level-6 value matrix is never built
        model = gf.random_model(1, seed)
        tracemalloc.start()
        try:
            oscillation(model, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * vertex_count(6) ** 2 + 8 * 9**6

    def test_refinement_depth(self):
        assert [refinement_depth(s) for s in (9, 10, 36, 37, 1000000)] == [0, 1, 1, 2, 6]
        with pytest.raises(PreconditionError):
            refinement_depth(8)

    def test_max_bounded_by_sup(self, ref05):
        assert oscillation(ref05, 1).max() <= 2 * ref05.f_sup_bound + 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_padding_to_a_multiple_of_n(self, seed):
        # level 5 of an N=3 model runs on the depth-5 grid (366^2 values),
        # not on the depth-6 one (1095^2 values, 9.6 MB)
        model = gf.random_model(3, seed)
        tracemalloc.start()
        try:
            oscillation(model, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_refused_over_the_byte_budget(self, ref03):
        # 25 samples per cell refine level 7 to the depth-8 grid (775 MB)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                oscillation(ref03, 7, samples_per_cell=25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_validation(self, ref03):
        with pytest.raises(PreconditionError):
            oscillation(ref03, 0)
        with pytest.raises(PreconditionError):
            oscillation(ref03, 2, samples_per_cell=4)


def _awkward_values(rng, shape) -> np.ndarray:
    """Normal values with signed zeros, infinities and NaNs sprinkled in."""
    f = rng.standard_normal(shape)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    mask = rng.random(shape) < 0.2
    f[mask] = rng.choice(special, np.count_nonzero(mask))
    return f


class TestCellOscillationKernel:
    """analysis._cell_oscillation against the kernel with fresh temporaries
    per chunk: max and min are exact, and both take the corners in one
    order, so every entry agrees as uint64, signed zeros and NaNs too."""

    @staticmethod
    def both(f, cells):
        # the kernel writes into a strided view, as _block_tables has it do
        n = len(cells)
        got = np.full((n + 2, 2 * n + 1), 7.0)
        with np.errstate(invalid="ignore"):  # inf - inf
            analysis._cell_oscillation(f, cells, got[1 : n + 1, 1::2])
            want = cell_oscillation_oracle(f, cells, np.empty((n, n)))
        assert np.array_equal(bits(got[1 : n + 1, 1::2]), bits(want))
        # nothing outside the view is written
        got[1 : n + 1, 1::2] = 7.0
        assert np.all(got == 7.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["corners", "refined"]),
        st.sampled_from(["one", "chunk", "chunk+1", "any"]),
        st.data(),
    )
    def test_equals_the_oracle(self, seed, kind, length, data):
        rng = np.random.default_rng(seed)
        if kind == "corners":
            v = data.draw(st.integers(3, 40), label="vertices")
            cells = rng.integers(0, v, (data.draw(st.integers(2, 30), label="cells"), 3))
        else:
            # each level-n cell read at the corners of its level-m subcells
            m = data.draw(st.integers(1, 4), label="m")
            n = data.draw(st.integers(0, m - 1), label="n")
            v = vertex_count(m)
            cells = FactorGrid(m).cells[m].reshape(3**n, -1)
        f = _awkward_values(rng, (v, v))
        if length == "one":
            cells, rows = cells[:1], data.draw(st.integers(1, 4), label="rows")
        elif length == "chunk":
            rows = len(cells)
        elif length == "chunk+1":
            rows = max(1, len(cells) - 1)
        else:
            rows = data.draw(st.integers(1, len(cells)), label="rows")
        # a chunk of `rows` rows of f, and less than one row more
        entries = rows * v + data.draw(st.integers(0, v - 1), label="spare")
        with unittest.mock.patch.object(analysis, "_CHUNK_ENTRIES", entries):
            self.both(f, cells)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_equals_the_oracle_at_the_module_chunk(self, extra):
        # a level-6 image block's size: one chunk of this many rows, one
        # chunk and one row, and the single-cell table
        rng = np.random.default_rng(extra + 1)
        v = vertex_count(6)
        rows = analysis._CHUNK_ENTRIES // v
        f = _awkward_values(rng, (v, v))
        n = 1 if extra < 0 else rows + extra
        self.both(f, rng.integers(0, v, (n, 3)))

    @pytest.mark.parametrize(
        "n_model, seed, levels, samples",
        [
            (1, 0, range(1, 8), 9),
            (1, 1, range(1, 8), 9),
            (1, 0, range(1, 6), 100),
            (2, 3, range(1, 5), 9),
            (2, 3, range(1, 5), 100),
            (3, 3, range(1, 5), 9),
            (3, 3, range(1, 5), 100),
            (1, "tensor", range(1, 7), 9),
            (2, "tensor", range(1, 5), 100),
        ],
    )
    def test_tables_equal_the_oracle_built_ones(self, monkeypatch, n_model, seed, levels, samples):
        if seed == "tensor":
            model = any_depth_model(n_model, "tensor")
        else:
            model = gf.random_model(n_model, seed)
        got = [t.values for t in oscillations(model, levels, samples)]
        monkeypatch.setattr(analysis, "_cell_oscillation", cell_oscillation_oracle)
        want = [t.values for t in oscillations(model, levels, samples)]
        assert len(got) == len(want) == len(levels)
        for a, b in zip(got, want):
            assert np.array_equal(bits(a), bits(b))


class TestBoxCount:
    def test_zero_model_floor(self, zero03):
        # a flat graph needs exactly one box per cell-pair
        for n in (1, 2, 3):
            rec = box_count(zero03, n, oscillation(zero03, n))
            assert rec.count == 9**n
            assert rec.delta == pytest.approx(2.0**-n)

    def test_count_at_least_floor(self, ref03):
        for n in (1, 2, 3):
            assert box_count(ref03, n, oscillation(ref03, n)).count >= 9**n

    def test_count_upper_estimate(self, ref03):
        # count <= 9^n + 2^n * (sum of oscillations) / side + 9^n slack
        # from the per-cell ceiling
        tab = oscillation(ref03, 3)
        rec = box_count(ref03, 3, tab)
        assert rec.count <= 2 * 9**3 + 2**3 * tab.values.sum() / ref03.gasket1.side

    def test_holds_less_than_its_table(self):
        # the stacks are summed a chunk of rows at a time, with no
        # temporary the size of the table
        model = gf.random_model(1, 1)
        table = oscillation(model, 6)
        tracemalloc.start()
        try:
            count = box_count(model, 6, table).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.values.nbytes
        stacks = 1 + np.ceil(table.values * (2.0**6 / model.gasket1.side)).astype(np.int64)
        assert count == int(stacks.sum())

    def test_level_mismatch_rejected(self, ref03):
        with pytest.raises(PreconditionError):
            box_count(ref03, 2, oscillation(ref03, 3))

    def test_cloud_cross_check(self, ref03):
        # an independent count from a dense chaos-game cloud should land
        # near the grid-based count
        samples = chaos_game(ref03, 200000, seed=17)
        grid = box_count(ref03, 3, oscillation(ref03, 3, samples_per_cell=36)).count
        cloud = box_count_cloud(ref03, samples, 3)
        assert abs(cloud - grid) <= 0.1 * grid

    @settings(max_examples=25, deadline=None)
    @given(
        n_model=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 1500),
        level=st.integers(1, 5),
        custom=st.booleans(),
    )
    def test_cloud_matches_scalar_reference(self, n_model, seed, count, level, custom):
        g2 = GasketSpec(((0.1, 0.2), (1.3, -0.1), (0.4, 1.1))) if custom else None
        model = build_model(
            gf.random_dataset(n_model, seed), ScalingField.constant(0.3, n_model), None, g2
        )
        samples = chaos_game(model, count, seed)
        want = scalar_cloud_count(model, samples, level)
        assert box_count_cloud(model, samples, level) == want

    def test_cloud_level_limit(self, ref03):
        # level 19 is the deepest whose cell-pair codes 9^n fit in int64
        samples = chaos_game(ref03, 200, 11)
        assert box_count_cloud(ref03, samples, 19) == scalar_cloud_count(ref03, samples, 19)
        with pytest.raises(CapacityError):
            box_count_cloud(ref03, samples, 20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cloud_refuses_non_finite_values(self, ref03, bad):
        samples = chaos_game(ref03, 50, 3)
        value = samples.value.copy()
        value[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="finite"):
                box_count_cloud(ref03, GraphSamples(samples.t, samples.s, value), 2)

    def test_cloud_refuses_mismatched_lengths(self, ref03):
        samples = chaos_game(ref03, 3, 3)
        t, s, value = samples.t, samples.s, samples.value
        for bad in (
            GraphSamples(t[:2], s[:1], value[:2]),  # used to count 2
            GraphSamples(t, s, value[:2]),
            GraphSamples(t[:2], s[:2], value),
            GraphSamples(t.reshape(-1), s.reshape(-1), np.repeat(value, 2)),
        ):
            with pytest.raises(PreconditionError, match="shape"):
                box_count_cloud(ref03, bad, 2)

    def test_cloud_count_beyond_int64(self, ref03):
        # three level-1 cell-pairs, (1, 1), (2, 2) and (3, 3), of two
        # samples each, one at value 0; the stack of value v has
        # ceil(v * 2^1 / side) boxes, and side is 1
        top = ref03.gasket1.corners[2]
        pts = np.array([(0.0, 0.0), (0.25, 0.0), (1.0, 0.0), (0.75, 0.0), top, (0.5, 0.7)])

        def count(*v):
            samples = GraphSamples(pts, pts, np.array([0.0, v[0], 0.0, v[1], 0.0, v[2]]))
            return box_count_cloud(ref03, samples, 1), scalar_cloud_count(ref03, samples, 1)

        # sums past 2^62 that fit are counted exactly, up to int64's end
        got, want = count(2.0**61, 2.0**60, 0.0)
        assert got == want == 3 + 2**62 + 2**61
        got, want = count(2.0**61, 2.0**61 - 2.0**10, 511.5)
        assert got == want == 3 + 2**62 + 2**62 - 2**11 + 1023
        # past it by one box with the 3 boxes of the bases, by a stack
        # past it, a single stack past it, a range that overflows to inf:
        # refused, never a negative count
        for v in (
            (2.0**61, 2.0**61 - 2.0**9, 511.5),
            (2.0**61, 2.0**61, 0.0),
            (2.0**63, 0.0, 0.0),
            (1.7e308, 1.0, 0.0),
        ):
            with pytest.raises(CapacityError, match="64 bits"):
                count(*v)
        samples = GraphSamples(pts[:2], pts[:2], np.array([-1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapacityError):
                box_count_cloud(ref03, samples, 1)


class TestEstimateBoxDimension:
    def test_exact_power_law(self):
        recs = [
            BoxCountRecord(level=n, delta=2.0**-n, count=9**n) for n in range(2, 7)
        ]
        rep = estimate_box_dimension(recs)
        assert rep.slope == pytest.approx(PRODUCT_DIMENSION, abs=1e-9)
        assert rep.std_error == pytest.approx(0.0, abs=1e-9)

    def test_synthetic_offset_power_law(self):
        recs = [
            BoxCountRecord(level=n, delta=2.0**-n, count=round(9**n * 2 ** (0.5 * n)))
            for n in range(2, 8)
        ]
        rep = estimate_box_dimension(recs)
        assert rep.slope == pytest.approx(PRODUCT_DIMENSION + 0.5, abs=1e-3)

    def test_needs_three_levels(self):
        recs = [BoxCountRecord(level=n, delta=2.0**-n, count=9**n) for n in (1, 2)]
        with pytest.raises(PreconditionError):
            estimate_box_dimension(recs)
        dup = [BoxCountRecord(level=2, delta=0.25, count=81)] * 3
        with pytest.raises(PreconditionError):
            estimate_box_dimension(dup)

    def test_reference_model_slope_in_bounds(self, ref03):
        recs = [box_count(ref03, n, oscillation(ref03, n)) for n in range(2, 7)]
        rep = estimate_box_dimension(recs)
        lower, upper = dimension_bounds(ref03)
        assert rep.slope >= lower - 0.15
        assert rep.slope <= upper + 0.2


# Least-squares fits pinned as stats.linregress 1.17.1, the fit that the
# closed form replaced, gave them: (x, y, slope, std_error).  The box
# counts are test_07's and test_08's records (zero and bump model, alpha
# 0.3, levels 2..6); the maxima are holder_fit's on reference_model(0.7),
# levels 3..7, and on random_model(2, 1), levels 3..6.
_LOG2 = math.log(2.0)
REF03_COUNTS = (153, 1469, 13689, 126209, 1150937)
PINNED_FITS = {
    "zero03 counts": (
        [n * _LOG2 for n in range(2, 7)],
        [math.log(c) for c in (81, 729, 6561, 59049, 531441)],
        3.1699250014423126,
        0.0,
    ),
    "ref03 counts": (
        [n * _LOG2 for n in range(2, 7)],
        [math.log(c) for c in REF03_COUNTS],
        3.2178815770883866,
        0.008179523598038283,
    ),
    "ref07 maxima": (
        [-n * _LOG2 for n in range(3, 8)],
        [
            math.log(m)
            for m in (0.42625, 0.35306249999999995, 0.272534375, 0.20395765625, 0.14948422656250004)
        ],
        0.3815067077969009,
        0.01986202483714284,
    ),
    "random N=2 maxima": (
        [-n * _LOG2 for n in range(3, 7)],
        [
            math.log(m)
            for m in (
                1.4798056991285389,
                1.0935421580782114,
                0.7267330320585589,
                0.4558420816203405,
            )
        ],
        0.5685916672806565,
        0.037716443778562675,
    ),
}


class TestLineFit:
    @pytest.mark.parametrize("name", sorted(PINNED_FITS))
    def test_matches_pinned_linregress(self, name):
        x, y, slope, std_error = PINNED_FITS[name]
        got = _line_fit(np.array(x), np.array(y))
        assert got[0] == pytest.approx(slope, rel=1e-9)
        # linregress clips r to 1 on the exact power law and reports 0;
        # the residuals there are rounding, about 4e-16
        assert got[1] == pytest.approx(std_error, rel=1e-9, abs=1e-12)

    def test_box_dimension_uses_the_fit(self):
        _, _, slope, std_error = PINNED_FITS["ref03 counts"]
        recs = [
            BoxCountRecord(level=n, delta=2.0**-n, count=c)
            for n, c in zip(range(2, 7), REF03_COUNTS)
        ]
        rep = estimate_box_dimension(recs)
        assert rep.slope == pytest.approx(slope, rel=1e-9)
        assert rep.std_error == pytest.approx(std_error, rel=1e-9)


class TestDimensionBounds:
    def test_subcritical(self, ref03):
        lower, upper = dimension_bounds(ref03)
        assert lower == pytest.approx(PRODUCT_DIMENSION)
        # s = 1 for tensor data, so the bounds coincide
        assert upper == pytest.approx(lower)

    def test_supercritical_rejected(self, ref07):
        with pytest.raises(HypothesisError):
            dimension_bounds(ref07)
        m = gf.reference_model(0.5)
        with pytest.raises(HypothesisError):
            dimension_bounds(m)


class TestHolderFit:
    def test_zero_model_degenerate(self, zero03):
        fit = holder_fit(zero03, 2, 5)
        assert fit.degenerate
        assert fit.exponent == float("inf")

    def test_subcritical_fit_near_one(self, ref03):
        fit = holder_fit(ref03, 3, 7)
        assert not fit.degenerate
        assert fit.exponent >= holder_predict(ref03).exponent - 0.2

    def test_supercritical_fit(self, ref07):
        fit = holder_fit(ref07, 3, 7)
        assert fit.exponent >= holder_predict(ref07).exponent - 0.2
        # the graph is genuinely rougher: well below exponent 1
        assert fit.exponent <= 0.7

    def test_two_levels(self):
        # n - 2 = 0 points of freedom: linregress reports 0.0, and so does
        # the fit, with the slope through the two maxima
        fit = holder_fit(gf.random_model(1, 1), 3, 4)
        assert fit.exponent == pytest.approx(0.9256894778242288, rel=1e-9)
        assert fit.std_error == 0.0
        assert fit.levels == (3, 4)

    def test_validation(self, ref03):
        with pytest.raises(PreconditionError):
            holder_fit(ref03, 3, 3)
        with pytest.raises(PreconditionError):
            holder_fit(ref03, 0, 4)
