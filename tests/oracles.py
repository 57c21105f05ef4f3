"""Scalar oracles of the cell-pair maps, read one row of FifModel.cell_table
at a time by word pair."""

import numpy as np

from gasketfif.gasket import bary_f
from gasketfif.model import _bilinear9


def row(model, omega: str, eta: str) -> int:
    """The cell_table row c = i * 3**N + j of the cell-pair (omega, eta)."""
    index = model.cell_table.index
    return index[omega] * len(index) + index[eta]


def shift_corners(model, omega: str, eta: str) -> np.ndarray:
    """The 3x3 corner values of h_{omega eta}."""
    return model.cell_table.shift[:, :, row(model, omega, eta)]


def scaling_at(model, omega: str, eta: str, lam, mu) -> float:
    """alpha_{omega eta} at the barycentrics (lam, mu)."""
    alpha = model.cell_table.alpha_rows[row(model, omega, eta)]
    return alpha if type(alpha) is float else _bilinear9(alpha, lam, mu)


def shift_at(model, omega: str, eta: str, lam, mu) -> float:
    """h_{omega eta} at the barycentrics (lam, mu)."""
    return _bilinear9(model.cell_table.shift_rows[row(model, omega, eta)], lam, mu)


def eval_scaling(model, omega: str, eta: str, t, s) -> float:
    """alpha_{omega eta}(t, s) for preimage coordinates (t, s)."""
    lam = bary_f(model.gasket1, float(t[0]), float(t[1]))
    mu = bary_f(model.gasket2, float(s[0]), float(s[1]))
    return scaling_at(model, omega, eta, lam, mu)


def eval_shift(model, omega: str, eta: str, t, s) -> float:
    """h_{omega eta}(t, s) for preimage coordinates (t, s)."""
    lam = bary_f(model.gasket1, float(t[0]), float(t[1]))
    mu = bary_f(model.gasket2, float(s[0]), float(s[1]))
    return shift_at(model, omega, eta, lam, mu)
