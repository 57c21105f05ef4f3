import numpy as np
import pytest

from gasketfif.gasket import Address, standard_gasket
from gasketfif.grids import _STEP_ROWS, FactorGrid, _row_chunks, _runs


def test_runs_cover_any_index_map():
    idx = np.array([5, 6, 7, 2, 3, 9, 9])
    assert _runs(idx) == [(0, 3, 5), (3, 5, 2), (5, 6, 9), (6, 7, 9)]
    assert _runs(np.array([4])) == [(0, 1, 4)]


def test_index_of_reduces_the_address():
    fg = FactorGrid(standard_gasket(), 2)
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
