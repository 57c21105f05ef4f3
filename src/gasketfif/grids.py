"""Level-by-level vertex indexing of one gasket and the vectorized exact
evaluation of the interpolation function on product vertex grids.

The oscillation and box-counting pipeline needs f on every depth-m product
vertex for m up to ~6, which is far too many points for the scalar
evaluator.  Here vertices are indexed level by level with exact dyadic
keys, and the defining recursion is applied to whole index blocks with
numpy, one cell-pair at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .gasket import GasketSpec
from .model import FifModel, words_of_length


def _reduce(nums, lev):
    while lev > 0 and nums[0] % 2 == 0 and nums[1] % 2 == 0 and nums[2] % 2 == 0:
        nums = (nums[0] // 2, nums[1] // 2, nums[2] // 2)
        lev -= 1
    return nums, lev


class FactorGrid:
    """Vertices, child maps, cells and barycentric coordinates of one
    gasket factor for every subdivision level up to `depth`.

    child[k][a-1][v] is the index at level k+1 of L_a(vertex v of level k);
    emb[k][v] re-indexes a level-k vertex inside level k+1; cells[k] holds
    the three corner indices of each length-k word cell in lexicographic
    word order.
    """

    def __init__(self, spec: GasketSpec, depth: int):
        self.spec = spec
        self.depth = depth
        corners = spec.corner_array

        keys = [
            _reduce((1, 0, 0), 0),
            _reduce((0, 1, 0), 0),
            _reduce((0, 0, 1), 0),
        ]
        index = {k: i for i, k in enumerate(keys)}
        self.lam = []
        self.verts = []
        self.child = []
        self.emb = []
        self.cells = [np.array([[0, 1, 2]])]

        def finish_level(keys):
            lam = np.array(
                [np.array(nums, dtype=float) / 2.0**lev for nums, lev in keys]
            )
            self.lam.append(lam)
            self.verts.append(lam @ corners)

        finish_level(keys)
        for k in range(depth):
            new_keys = []
            new_index = {}
            child_k = [np.empty(len(keys), dtype=np.intp) for _ in range(3)]
            for a in (1, 2, 3):
                for v, (nums, lev) in enumerate(keys):
                    two = 2**lev
                    nn = list(nums)
                    nn[a - 1] += two
                    key = _reduce(tuple(nn), lev + 1)
                    idx = new_index.get(key)
                    if idx is None:
                        idx = len(new_keys)
                        new_index[key] = idx
                        new_keys.append(key)
                    child_k[a - 1][v] = idx
            self.child.append(child_k)
            self.emb.append(np.array([new_index[key] for key in keys], dtype=np.intp))
            self.cells.append(
                np.vstack([child_k[a][self.cells[k]] for a in range(3)])
            )
            keys, index = new_keys, new_index
            finish_level(keys)

    def compose(self, k: int, w: str) -> np.ndarray:
        """Index map of L_w from level-k vertices into level k+|w|."""
        idx = np.arange(len(self.verts[k]), dtype=np.intp)
        lvl = k
        for ch in reversed(w):
            idx = self.child[lvl][int(ch) - 1][idx]
            lvl += 1
        return idx

    def lift(self, idx: np.ndarray, level_from: int, level_to: int) -> np.ndarray:
        """Re-index vertices of a coarse level inside a finer level."""
        for k in range(level_from, level_to):
            idx = self.emb[k][idx]
        return idx


def product_values(model: FifModel, depth: int):
    """Exact values of f at all depth-`depth` product vertices.

    Returns (grid1, grid2, F) where F[v, w] = f(vertex v of grid1, vertex w
    of grid2) at the requested level.  `depth` must be a positive multiple
    of the model depth N.
    """
    n = model.n
    if depth <= 0 or depth % n:
        raise PreconditionError(f"depth must be a positive multiple of N={n}")
    fg1 = FactorGrid(model.gasket1, depth)
    fg2 = FactorGrid(model.gasket2, depth)
    words = words_of_length(n)
    f = np.zeros((3, 3))  # f vanishes at corner pairs
    for k in range(0, depth, n):
        lam1 = fg1.lam[k]
        lam2 = fg2.lam[k]
        maps1 = {w: fg1.compose(k, w) for w in words}
        maps2 = {w: fg2.compose(k, w) for w in words}
        nxt = np.empty((len(fg1.verts[k + n]), len(fg2.verts[k + n])))
        for w1 in words:
            ix1 = maps1[w1]
            for w2 in words:
                c = model.shift[(w1, w2)]
                h = lam1 @ c @ lam2.T
                sc = model.scaling.cell(w1, w2)
                if np.isscalar(sc):
                    block = sc * f + h
                else:
                    block = (lam1 @ sc @ lam2.T) * f + h
                nxt[np.ix_(ix1, maps2[w2])] = block
        f = nxt
    return fg1, fg2, f
