import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasketfif as gf
from gasketfif import grids
from gasketfif.errors import CapacityError
from gasketfif.evaluator import GridFunction, eval_exact, rb_apply, solve_fixed_point
from gasketfif.gasket import Address, GasketSpec, canonicalize, vertex_count
from gasketfif.grids import (
    GRID_BYTES,
    FactorGrid,
    _row_chunks,
    _runs,
    image_blocks,
    level_step,
    product_values,
)
from gasketfif.model import ProductVertex, ScalingField, build_model, words_of_length
from oracles import (
    compose,
    factor_grid_oracle,
    fixed_point_oracle,
    image_block_oracle,
    level_step_oracle,
    owner_runs_oracle,
)


def test_owned_runs_cover_each_words_positions():
    # word 0 owns positions 5, 6, 7 and 2, 3; word 2 owns 9, then 9 again
    o = np.array([0, 0, 0, 0, 0, 2, 2])
    p = np.array([5, 6, 7, 2, 3, 9, 9])
    assert _runs(o, p) == [(0, 0, 3, 5), (0, 3, 5, 2), (2, 5, 6, 9), (2, 6, 7, 9)]
    assert _runs(np.array([1]), np.array([4])) == [(1, 0, 1, 4)]


@pytest.mark.parametrize("depth", range(9))
def test_array_build_equals_the_dict_built_index(depth):
    fg = FactorGrid(depth)
    lam, child, emb, cells = factor_grid_oracle(depth)
    assert len(fg.lam) == len(lam) == depth + 1
    for k in range(depth + 1):
        assert np.array_equal(fg.lam[k].view(np.uint64), lam[k].view(np.uint64))
        assert fg.cells[k].dtype == np.intp and np.array_equal(fg.cells[k], cells[k])
    for k in range(depth):
        assert fg.emb[k].dtype == np.intp and np.array_equal(fg.emb[k], emb[k])
        for a in range(3):
            assert fg.child[k][a].dtype == np.intp
            assert np.array_equal(fg.child[k][a], child[k][a])


def test_index_of_reduces_the_address():
    fg = FactorGrid(2)
    # L_1(p_2) = L_2(p_1), and L_11(p_1) is the corner p_1
    assert fg.index_of(Address("1", 2)) == fg.index_of(Address("2", 1))
    assert fg.index_of(Address("11", 1)) == fg.index_of(Address("", 1)) == 0
    with pytest.raises(KeyError):
        fg.index_of(Address("111", 2))


def test_row_chunks_never_hold_a_single_row():
    assert _row_chunks(3, 64) == [(0, 3)]
    assert _row_chunks(65, 64) == [(0, 65)]
    assert _row_chunks(129, 64) == [(0, 64), (64, 129)]
    assert _row_chunks(128, 64) == [(0, 64), (64, 128)]
    # a budget of one row or none still chunks by two rows
    assert _row_chunks(5, 1) == _row_chunks(5, 0) == [(0, 2), (2, 5)]


OFF_ORIGIN = GasketSpec(((10.0, 5.0), (11.0, 5.2), (10.1, 6.3)))


@functools.cache
def any_depth_model(n, kind):
    """A random N=n model with constant or corner-tensor scaling, tensors
    on the cell-pairs whose words start alike and constants elsewhere
    ("mixed"), or on a gasket far from the origin."""
    scaling = ScalingField.constant(0.3, n)
    if kind in ("tensor", "mixed"):
        rng = np.random.default_rng(n)
        words = words_of_length(n)
        scaling = ScalingField.from_cells(
            {
                (a, b): rng.uniform(-0.2, 0.2, (3, 3)) if kind == "tensor" or a[0] == b[0] else 0.2
                for a in words
                for b in words
            },
            n,
        )
    g1 = OFF_ORIGIN if kind == "gasket" else None
    return build_model(gf.random_dataset(n, 4), scaling, g1, None)


@pytest.mark.parametrize("kind", ["constant", "tensor", "gasket"])
@pytest.mark.parametrize("n", [2, 3])
def test_any_depth_equals_padded_then_restricted(n, kind):
    model = any_depth_model(n, kind)
    padded = {}
    for d in range(1, 7):
        top = n * -(-d // n)
        if top not in padded:
            padded[top] = product_values(model, top)
        p1, p2, fp = padded[top]
        fg1, fg2, f = product_values(model, d)
        assert fg1.depth == fg2.depth == d
        c1, c2 = model.gasket1.corner_array, model.gasket2.corner_array
        assert np.array_equal(fg1.lam[-1] @ c1, p1.lam[d] @ c1)
        assert np.array_equal(fg2.lam[-1] @ c2, p2.lam[d] @ c2)
        idx = np.arange(vertex_count(d))
        want = fp[np.ix_(p1.lift(idx, d, top), p2.lift(idx, d, top))]
        assert np.array_equal(f, want)


@pytest.mark.parametrize("kind", ["constant", "tensor", "gasket"])
@pytest.mark.parametrize("n, depth", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 4), (3, 5)])
def test_any_depth_matches_scalar_oracle(n, depth, kind):
    model = any_depth_model(n, kind)
    fg1, fg2, f = product_values(model, depth)
    rng = np.random.default_rng(depth)
    for _ in range(60):
        a, b = (
            Address("".join(rng.choice(list("123"), size=depth)), int(rng.integers(1, 4)))
            for _ in range(2)
        )
        got = f[fg1.index_of(a), fg2.index_of(b)]
        want = eval_exact(model, a, b)
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want))


def test_depth_below_n_gives_the_data():
    model = gf.random_model(2, 3)
    fg1, fg2, f = product_values(model, 1)
    assert f.shape == (vertex_count(1), vertex_count(1))
    for a in gf.enumerate_vertices(1):
        for b in gf.enumerate_vertices(1):
            # L_w(p_c) = L_wc(p_c) names the same vertex at level 2
            key = ProductVertex(*(canonicalize(Address(x.word + str(x.corner), x.corner))
                                  for x in (a, b)))
            assert f[fg1.index_of(a), fg2.index_of(b)] == model.data.entries[key]


def test_budget_refuses_depth_8_before_allocating():
    model = gf.reference_model(0.3)
    assert 8 * vertex_count(7) ** 2 <= GRID_BYTES < 8 * vertex_count(8) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            product_values(model, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


#: depths past the budget whose V(depth) is too long to format as a string
#: (5000: past Python's 4300-digit limit) or to compute (10^11, 10^12)
OVER_DEEP = (8, 5000, 10**6, 10**11, 10**12)


@pytest.mark.parametrize("depth", OVER_DEEP)
def test_over_deep_grid_refused_by_its_depth(depth):
    model = gf.reference_model(0.3)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"depth-{depth} product grid .* depth 7 is"):
            grids.check_grid_bytes(depth)
        with pytest.raises(CapacityError):
            product_values(model, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_deepest_grid_is_the_last_that_fits():
    assert grids.MAX_GRID_DEPTH == 7
    for depth in range(1, 8):
        assert 8 * vertex_count(depth) ** 2 <= GRID_BYTES
        grids.check_grid_bytes(depth)


def test_owned_runs_split_where_the_word_changes():
    # consecutive positions that cross from one word to the next split
    o = np.array([0, 0, 1, 1, 1])
    p = np.array([0, 1, 2, 3, 5])
    assert _runs(o, p) == [(0, 0, 2, 0), (1, 2, 4, 2), (1, 4, 5, 5)]


@pytest.mark.parametrize("n, depth", [(1, 5), (2, 5)])
def test_ownership_table_names_the_smallest_containing_block(n, depth):
    fg = FactorGrid(depth)
    words = words_of_length(n)
    for k in range(depth - n + 1):
        images = [compose(fg, k, w) for w in words]
        want = np.full(vertex_count(k + n), -1)
        for i, idx in enumerate(images):
            fresh = idx[want[idx] == -1]
            want[fresh] = i
        o, p = fg.owners(k, n)
        assert np.array_equal(o, want)
        for x in range(vertex_count(k + n)):
            assert images[o[x]][p[x]] == x
        # the runs of the owner maps are the runs of the one-word-at-a-time
        # ownership table, moved from positions to vertices
        assert _runs(o, p) == [
            (w, first, first + stop - start, start)
            for w, word in enumerate(owner_runs_oracle(fg, k, n))
            for start, stop, first in word
        ]


@pytest.mark.parametrize("kind", ["constant", "tensor", "gasket"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_image_blocks_are_the_next_level_at_every_entry(n, kind):
    # the entries a cell-pair does not own are junctions L_w(p_c), where
    # the level-k values vanish and the shift row is the owner's data row,
    # so the whole image block is the level-(k+N) values bit for bit
    model = any_depth_model(n, kind)
    k = 2
    fg1, fg2, full = product_values(model, k + n)
    f = product_values(model, k)[2]
    words = words_of_length(n)
    unowned = 0
    for i, j, block in image_blocks(model, fg1, k, f):
        rows, cols = compose(fg1, k, words[i]), compose(fg2, k, words[j])
        want = full[np.ix_(rows, cols)]
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
        o = fg1.owners(k, n)[0]
        unowned += block.size - np.count_nonzero(o == i) * np.count_nonzero(o == j)
    assert unowned == 9**n * vertex_count(k) ** 2 - vertex_count(k + n) ** 2 > 0


def test_both_gaskets_share_one_factor_grid():
    # the index is the same for any two gaskets, equal or not
    for model in (gf.random_model(1, 3), any_depth_model(1, "gasket")):
        fg1, fg2, f = product_values(model, 4)
        assert fg1 is fg2
        # the values of a separately built index, bit for bit
        fg = FactorGrid(4)
        want = np.zeros((3, 3))
        for k in range(4):
            want = level_step(model, fg, k, want, np.empty((vertex_count(k + 1),) * 2))
        assert np.array_equal(f.view(np.uint64), want.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.data())
def test_owner_maps_name_the_smallest_word_holding_each_vertex(n, k, data):
    fg = FactorGrid(k + n)
    o, p = fg.owners(k, n)
    words = words_of_length(n)
    x = data.draw(st.integers(0, vertex_count(k + n) - 1))
    assert compose(fg, k, words[o[x]])[p[x]] == x
    # no smaller word's image holds x
    assert all(x not in compose(fg, k, w) for w in words[: o[x]])
    # and o is sorted: each word owns one range of indices
    assert np.all(np.diff(o) >= 0)


def bits(a):
    return a.view(np.uint64)


#: the deepest step level k, per N, that the cell-pair loop runs in test time
ORACLE_LEVELS = {1: 6, 2: 4, 3: 2, 4: 1, 5: 0}
KINDS = ["constant", "tensor", "mixed", "gasket"]


def oracle_cases(deepest=5):
    for n, top in ORACLE_LEVELS.items():
        # the loop runs 6561 cell-pairs a step at N=4 and 59049 at N=5:
        # there the mixed model stands for both scalings
        kinds = KINDS if n < 4 else ["mixed", "gasket"] if n == 4 else ["mixed"]
        for kind in kinds if n <= deepest else []:
            yield n, top, kind


@pytest.mark.parametrize("n, top, kind", list(oracle_cases()))
def test_level_step_equals_the_cell_pair_loop(n, top, kind):
    # random level-k values: every entry of a block, owned or not, is the
    # loop's bit for bit, whatever the values at the junctions
    model = any_depth_model(n, kind)
    fg = FactorGrid(top + n)
    rng = np.random.default_rng(top)
    nw = 3**n
    for k in range(top + 1):
        f = rng.standard_normal((vertex_count(k),) * 2)
        want = level_step_oracle(model, fg, k, f)
        got = level_step(model, fg, k, f, np.full_like(want, np.nan))
        assert np.array_equal(bits(got), bits(want))
        if nw**2 * vertex_count(k) ** 2 > 2**19:
            continue
        cells = []
        for i, j, block in image_blocks(model, fg, k, f):
            cells.append((i, j))
            want = image_block_oracle(model, fg.lam[k], f, i * nw + j)
            assert np.array_equal(bits(block), bits(want))
        assert cells == [(i, j) for i in range(nw) for j in range(nw)]


@pytest.mark.parametrize("n, top, kind", list(oracle_cases(deepest=4)))
def test_product_values_and_rb_apply_equal_the_cell_pair_loop(n, top, kind):
    model = any_depth_model(n, kind)
    depth = top + n
    fg = FactorGrid(depth)
    start = depth % n
    want = product_values(model, start)[2] if start else np.zeros((3, 3))
    for k in range(start, depth, n):
        want = level_step_oracle(model, fg, k, want)
    assert np.array_equal(bits(product_values(model, depth)[2]), bits(want))
    # a grid function's depth is a multiple of N
    depth -= start
    fg = FactorGrid(depth)
    g = GridFunction(model, depth, grid=fg)
    g.values = np.random.default_rng(depth).standard_normal(g.values.shape)
    idx = fg.lift(np.arange(len(fg.lam[depth - n])), depth - n, depth)
    want = level_step_oracle(model, fg, depth - n, g.values[np.ix_(idx, idx)])
    assert np.array_equal(bits(rb_apply(model, g).values), bits(want))


def test_step_plans_built_once_per_step_on_one_grid(monkeypatch):
    # as check's contraction test: many applications on one grid, here
    # with models of N=1 and N=2 and several scalings; the owner maps of
    # each (k, N) are built once, and every step still equals the loop
    built = []
    owners = FactorGrid.owners
    monkeypatch.setattr(
        FactorGrid, "owners", lambda fg, k, n: built.append((k, n)) or owners(fg, k, n)
    )
    fg = FactorGrid(4)
    rng = np.random.default_rng(4)
    for n, kind in ((2, "tensor"), (1, "constant"), (2, "mixed"), (1, "gasket"), (2, "gasket")):
        model = any_depth_model(n, kind)
        for k in (0, 2, 4 - n):
            f = rng.standard_normal((vertex_count(k),) * 2)
            want = level_step_oracle(model, fg, k, f)
            got = level_step(model, fg, k, f, np.full_like(want, np.nan))
            assert np.array_equal(bits(got), bits(want))
        g = GridFunction(model, 4, grid=fg)
        g.values = rng.standard_normal(g.values.shape)
        idx = fg.lift(np.arange(vertex_count(4 - n)), 4 - n, 4)
        want = level_step_oracle(model, fg, 4 - n, g.values[np.ix_(idx, idx)])
        for _ in range(2):
            assert np.array_equal(bits(rb_apply(model, g).values), bits(want))
    assert sorted(built) == [(0, 1), (0, 2), (2, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize(
    "n, depth, kind",
    [(1, 3, "tensor"), (1, 6, "constant"), (1, 6, "mixed"), (2, 4, "gasket"), (2, 6, "tensor"),
     (3, 3, "tensor"), (3, 6, "mixed"), (4, 4, "mixed"), (5, 5, "mixed")],
)
def test_fixed_point_equals_the_plain_cell_pair_iteration(n, depth, kind):
    model = any_depth_model(n, kind)
    values, iterations = fixed_point_oracle(model, FactorGrid(depth), depth, 1e-12)
    got = solve_fixed_point(model, depth, 1e-12)
    assert got.iterations == iterations
    assert np.array_equal(bits(got.values), bits(values))


#: chunk budgets of the image kernel (entries).  On the 3-, 15- and
#: 42-row blocks of levels 0, 2 and 3 they give level steps in chunks of
#: two rows (1; a 15-row block then ends in a chunk of three), of 7 and 8
#: (315 at N=1), 13, 13, 13 and 3 (1722 at N=1), 14 (5292 at N=2), 32
#: and 10 (12348 at N=2), 42 where 41 fit (15498 at N=2), and whole
#: blocks (2^16).  Columns go by runs and by the gather at each of N=1,
#: 2 and 3 (by runs at N=3 only at 2^16).  Image blocks come in chunks
#: of 7 and 8 rows (105), whole where 41 of 42 rows fit (1722), and
#: several column words at a time, the last slice shorter (1722 at 15
#: rows, 12348 at 42).
BUDGETS = [1, 105, 315, 1722, 5292, 12348, 15498, 2**16]


@pytest.mark.parametrize("budget", BUDGETS)
def test_chunk_budgets_and_column_regimes_equal_the_loop(monkeypatch, budget):
    # chunks of every size, among them budgets that would leave a single
    # row of a 15-row or 42-row block (numpy's one-row products go to
    # gemv), columns written by runs and by the transposed gather
    monkeypatch.setattr(grids, "_STEP_ENTRIES", budget)
    for n, kind in ((1, "mixed"), (2, "tensor"), (3, "mixed")):
        model = any_depth_model(n, kind)
        fg = FactorGrid(3 + n)
        rng = np.random.default_rng(n)
        nw = 3**n
        for k in (0, 2, 3):
            f = rng.standard_normal((vertex_count(k),) * 2)
            want = level_step_oracle(model, fg, k, f)
            got = level_step(model, fg, k, f, np.full_like(want, np.nan))
            assert np.array_equal(bits(got), bits(want))
            for i, j, block in image_blocks(model, fg, k, f):
                want = image_block_oracle(model, fg.lam[k], f, i * nw + j)
                assert np.array_equal(bits(block), bits(want))


def test_product_values_peak_is_output_level_and_group_budget():
    model = gf.random_model(5, 1)
    product_values(model, 5)  # warm caches outside the trace
    tracemalloc.start()
    try:
        product_values(model, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output, level_k = 8 * vertex_count(5) ** 2, 8 * vertex_count(0) ** 2
    assert peak < output + level_k + 3 * 2**20 + 2**20
