"""Canonical model builders shared by tests, demos and the CLI docs."""

from __future__ import annotations

import numpy as np

from .gasket import Address, enumerate_vertices
from .model import DataSet, FifModel, ScalingField, build_model


def bump_dataset(n: int = 1, height: float = 0.5) -> DataSet:
    """Zero everywhere except at the vertex pair (1@2, 1@2), the first
    interior vertex of enumerate_vertices on both factors."""
    data = DataSet.zeros(n)
    i = data.grid.index_of(Address("1", 2))
    data.values[i, i] = float(height)
    return data


def random_dataset(n: int, seed: int, scale: float = 1.0) -> DataSet:
    """Zero on the boundary, uniform random values at interior vertex
    pairs, drawn in enumerate_vertices order, the first factor outside."""
    rng = np.random.default_rng(seed)
    data = DataSet.zeros(n)
    inner = data.grid.indices_of([a for a in enumerate_vertices(n) if a.word])
    data.values[np.ix_(inner, inner)] = rng.uniform(-scale, scale, (len(inner),) * 2)
    return data


def reference_model(alpha: float = 0.3, n: int = 1, height: float = 0.5) -> FifModel:
    """Single-bump data with a constant scaling factor."""
    return build_model(bump_dataset(n, height), ScalingField.constant(alpha, n))


def zero_model(alpha: float = 0.3, n: int = 1) -> FifModel:
    return build_model(DataSet.zeros(n), ScalingField.constant(alpha, n))


def random_model(n: int, seed: int, alpha: float = 0.3) -> FifModel:
    return build_model(random_dataset(n, seed), ScalingField.constant(alpha, n))
