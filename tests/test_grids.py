import tracemalloc

import numpy as np
import pytest

import gasketfif as gf
from gasketfif.errors import CapacityError
from gasketfif.evaluator import eval_exact
from gasketfif.gasket import Address, GasketSpec, canonicalize, vertex_count
from gasketfif.grids import (
    _STEP_ROWS,
    GRID_BYTES,
    FactorGrid,
    _row_chunks,
    _runs,
    image_blocks,
    level_step,
    product_values,
)
from gasketfif.model import ProductVertex, ScalingField, build_model, words_of_length
from oracles import factor_grid_oracle


def test_runs_cover_any_index_map():
    idx = np.array([5, 6, 7, 2, 3, 9, 9])
    assert _runs(idx) == [(0, 3, 5), (3, 5, 2), (5, 6, 9), (6, 7, 9)]
    assert _runs(np.array([4])) == [(0, 1, 4)]


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
    assert _row_chunks(3) == [(0, 3)]
    assert _row_chunks(_STEP_ROWS + 1) == [(0, _STEP_ROWS + 1)]
    assert _row_chunks(2 * _STEP_ROWS + 1) == [(0, _STEP_ROWS), (_STEP_ROWS, 2 * _STEP_ROWS + 1)]
    assert _row_chunks(2 * _STEP_ROWS) == [(0, _STEP_ROWS), (_STEP_ROWS, 2 * _STEP_ROWS)]


OFF_ORIGIN = GasketSpec(((10.0, 5.0), (11.0, 5.2), (10.1, 6.3)))


def any_depth_model(n, kind):
    """A random N=n model with constant or corner-tensor scaling, or on a
    gasket far from the origin."""
    scaling = ScalingField.constant(0.3, n)
    if kind == "tensor":
        rng = np.random.default_rng(n)
        words = words_of_length(n)
        scaling = ScalingField.from_cells(
            {(a, b): rng.uniform(-0.2, 0.2, (3, 3)) for a in words for b in words}, n
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


def test_runs_keep_only_the_masked_positions():
    idx = np.array([5, 6, 7, 8, 2, 3])
    keep = np.array([True, True, False, True, True, True])
    assert _runs(idx, keep) == [(0, 2, 5), (3, 4, 8), (4, 6, 2)]
    assert _runs(idx, np.zeros(6, dtype=bool)) == []


@pytest.mark.parametrize("n, depth", [(1, 5), (2, 5)])
def test_ownership_table_names_the_smallest_containing_block(n, depth):
    fg = FactorGrid(depth)
    words = words_of_length(n)
    for k in range(depth - n + 1):
        images = [fg.compose(k, w) for w in words]
        want = np.full(vertex_count(k + n), -1)
        for i, idx in enumerate(images):
            fresh = idx[want[idx] == -1]
            want[fresh] = i
        owners = np.zeros(vertex_count(k + n), dtype=int)
        got = np.full(vertex_count(k + n), -1)
        for i, runs in enumerate(fg.owned_runs(k, n)):
            for start, stop, first in runs:
                block = np.arange(first, first + stop - start)
                assert np.array_equal(images[i][start:stop], block)
                owners[block] += 1
                got[block] = i
        assert np.all(owners == 1)
        assert np.array_equal(got, want)


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
        rows, cols = fg1.compose(k, words[i]), fg2.compose(k, words[j])
        want = full[np.ix_(rows, cols)]
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
        owned = sum(b - a for a, b, _ in fg1.owned_runs(k, n)[i]) * sum(
            b - a for a, b, _ in fg2.owned_runs(k, n)[j]
        )
        unowned += block.size - owned
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
