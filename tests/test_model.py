import re

import numpy as np
import pytest

import gasketfif as gf
from gasketfif.errors import ContractionError, ValidationError
from gasketfif.gasket import Address, GasketSpec, address_point, canonicalize, standard_gasket
from gasketfif.grids import FactorGrid
from gasketfif.model import (
    DataSet,
    ProductVertex,
    ScalingField,
    build_model,
    check_compatibility,
    eval_scaling,
    eval_shift,
    perturb_shift,
    sup_bounds,
    touching_pairs,
    words_of_length,
)

SPEC = standard_gasket()
P = SPEC.corner_array
Q = SPEC.corner_array


class TestDataSet:
    def test_zero_dataset_valid(self):
        ds = DataSet.zeros(1)
        assert len(ds.entries) == 36

    def test_parses_without_checking_completeness(self):
        # completeness and boundary values are build_model's to check
        ds = DataSet.zeros(1)
        triples = [(str(k.first), str(k.second), z) for k, z in ds.entries.items()]
        assert len(DataSet.build(1, triples[:-1]).entries) == 35

    def test_conflicting_duplicate_representations_rejected(self):
        ds = DataSet.zeros(1)
        triples = [(str(k.first), str(k.second), z) for k, z in ds.entries.items()]
        # 2@1 and 1@2 name the same point; feeding both with different z
        # must be refused, never last-writer-wins
        triples.append(("2@1", "1@2", 0.25))
        with pytest.raises(ValidationError, match="conflicting"):
            DataSet.build(1, triples)

    def test_equal_duplicate_representations_collapse(self):
        ds = DataSet.zeros(1)
        triples = [(str(k.first), str(k.second), z) for k, z in ds.entries.items()]
        triples.append(("2@1", "1@2", 0.0))
        built = DataSet.build(1, triples)
        assert len(built.entries) == 36


class TestBuildModel:
    def test_zero_data_sup_bounds(self):
        m = gf.zero_model(0.3)
        assert sup_bounds(m) == (0.3, 0.0, 0.0)

    def test_bump_keys_into_expected_cell(self, ref03):
        # z = 0.5 at (1@2, 1@2) must land at corner (2,2) of cell (1,1)
        c = ref03.shift[("1", "1")]
        assert c[1, 1] == 0.5
        assert np.count_nonzero(c) == 1

    def test_noncontractive_scaling_rejected(self):
        with pytest.raises(ContractionError):
            build_model(DataSet.zeros(1), ScalingField.constant(1.0, 1))

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_model(DataSet.zeros(2), ScalingField.constant(0.3, 1))

    def test_f_sup_bound_formula(self):
        m = gf.reference_model(0.5, height=0.5)
        assert m.f_sup_bound == pytest.approx(1.0)

    def test_interpolation_condition_exhaustive(self):
        # the shift for cell (w1, w2) takes base-domain arguments, so its
        # corner values at (p_i, q_j) must reproduce the stored tensor
        m = gf.random_model(2, seed=5)
        for (w1, w2), c in m.shift.items():
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert eval_shift(m, w1, w2, P[i - 1], Q[j - 1]) == pytest.approx(
                        c[i - 1, j - 1], abs=1e-12
                    )

    def test_missing_vertex_rejected(self):
        ds = DataSet.zeros(1)
        triples = [(str(k.first), str(k.second), z) for k, z in ds.entries.items()]
        with pytest.raises(ValidationError, match="missing"):
            build_model(DataSet.build(1, triples[:-1]), ScalingField.constant(0.3, 1))

    def test_boundary_nonzero_rejected(self):
        ds = DataSet.zeros(1)
        triples = [
            (str(k.first), str(k.second), 0.7 if not k.first.word else z)
            for k, z in ds.entries.items()
        ]
        with pytest.raises(ValidationError, match="boundary"):
            build_model(DataSet.build(1, triples), ScalingField.constant(0.3, 1))

    def test_missing_pair_refused(self):
        entries = dict(DataSet.zeros(1).entries)
        del entries[ProductVertex(Address("1", 2), Address("2", 3))]
        with pytest.raises(ValidationError, match=re.escape("missing data for vertex 1@2|2@3")):
            build_model(DataSet(1, entries), ScalingField.constant(0.3, 1))

    def test_pair_outside_v_n_refused(self):
        entries = dict(DataSet.zeros(1).entries)
        entries[ProductVertex(Address("11", 2), Address("", 1))] = 0.0
        with pytest.raises(ValidationError, match="outside V_1"):
            build_model(DataSet(1, entries), ScalingField.constant(0.3, 1))

    def test_two_values_for_one_pair_refused(self):
        # 2@1 names the vertex 1@2; DataSet.build would canonicalize it
        entries = dict(DataSet.zeros(1).entries)
        entries[ProductVertex(Address("2", 1), Address("1", 2))] = 0.25
        with pytest.raises(ValidationError, match="conflicting"):
            build_model(DataSet(1, entries), ScalingField.constant(0.3, 1))

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_refused(self, z):
        # a NaN would give shift_sup = nan and no certified bound at all
        entries = dict(DataSet.zeros(1).entries)
        entries[ProductVertex(Address("1", 2), Address("2", 3))] = z
        with pytest.raises(ValidationError, match=re.escape("at vertex 1@2|2@3 is not finite")):
            build_model(DataSet(1, entries), ScalingField.constant(0.3, 1))

    @pytest.mark.parametrize("first, second", [("1@2", "@1"), ("@3", "2@3"), ("@2", "@1")])
    def test_boundary_value_refused(self, first, second):
        # f vanishes on the corners of either factor
        entries = dict(DataSet.zeros(1).entries)
        entries[ProductVertex(Address.parse(first), Address.parse(second))] = 0.7
        with pytest.raises(ValidationError, match=re.escape(f"boundary vertex {first}|{second}")):
            build_model(DataSet(1, entries), ScalingField.constant(0.3, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("tensor", [False, True])
    def test_non_finite_scaling_refused(self, bad, tensor):
        # max() skips a NaN, so alpha_sup would come out finite
        cells = {(w1, w2): 0.2 for w1 in "123" for w2 in "123"}
        cells[("2", "3")] = np.full((3, 3), 0.2) if tensor else bad
        if tensor:
            cells[("2", "3")][1, 2] = bad
        with pytest.raises(ValidationError, match="cell-pair 2[|]3 is not finite") as info:
            build_model(gf.random_dataset(1, 0), ScalingField.from_cells(cells, 1))
        assert not isinstance(info.value, ContractionError)

    def test_first_non_finite_scaling_cell_is_named(self):
        # the cells are checked together; the refusal names the first bad
        # one in the field's order
        cells = {(w1, w2): 0.2 for w1 in "123" for w2 in "123"}
        cells[("3", "1")] = float("nan")
        cells[("1", "2")] = np.full((3, 3), 0.2)
        cells[("1", "2")][2, 0] = float("inf")
        with pytest.raises(ValidationError, match="cell-pair 1[|]2 is not finite"):
            build_model(gf.random_dataset(1, 0), ScalingField.from_cells(cells, 1))

    def test_index_of_once_per_distinct_address(self, monkeypatch):
        # an address occurs in 2 V(N) pairs, but is looked up once
        calls = []
        index_of = FactorGrid.index_of
        monkeypatch.setattr(
            FactorGrid, "index_of", lambda fg, a: calls.append(a) or index_of(fg, a)
        )
        data = gf.random_dataset(2, 0)
        build_model(data, ScalingField.constant(0.3, 2))
        distinct = {a for key in data.entries for a in (key.first, key.second)}
        assert len(calls) == len(set(calls)) == len(distinct)


def canonical_read(data, g1, g2):
    """shift, shift_sup and k_h as build_model read them before the data
    matrix: one canonical-address lookup per corner of every cell-pair."""
    shift, shift_sup, k_h_range = {}, 0.0, 0.0
    words = words_of_length(data.n)
    for w1 in words:
        for w2 in words:
            c = np.empty((3, 3))
            for i in (1, 2, 3):
                ai = canonicalize(Address(w1, i))
                for j in (1, 2, 3):
                    bj = canonicalize(Address(w2, j))
                    c[i - 1, j - 1] = data.entries[ProductVertex(ai, bj)]
            shift[(w1, w2)] = c
            shift_sup = max(shift_sup, float(np.max(np.abs(c))))
            k_h_range = max(k_h_range, float(np.max(c) - np.min(c)))
    return shift, shift_sup, k_h_range / min(g1.min_side, g2.min_side)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("kind", ["random", "bump", "tensor"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_data_read_matches_canonical_addresses(n, kind):
    g1 = GasketSpec(((10.0, 5.0), (11.5, 5.25), (10.25, 6.5)))
    data = gf.bump_dataset(n) if kind == "bump" else gf.random_dataset(n, 20 + n)
    scaling = ScalingField.constant(0.3, n)
    if kind == "tensor":
        rng = np.random.default_rng(n)
        words = words_of_length(n)
        scaling = ScalingField.from_cells(
            {(a, b): rng.uniform(-0.2, 0.2, (3, 3)) for a in words for b in words}, n
        )
    model = build_model(data, scaling, g1)
    shift, shift_sup, k_h = canonical_read(data, g1, standard_gasket())
    assert model.shift.keys() == shift.keys()
    for key, c in shift.items():
        assert np.array_equal(bits(model.shift[key]), bits(c))
        assert not model.shift[key].flags.writeable
    assert bits(model.shift_sup) == bits(shift_sup)
    assert bits(model.k_h) == bits(k_h)


class TestEvalScaling:
    def test_constant_everywhere(self, ref03):
        assert eval_scaling(ref03, "1", "2", (0.3, 0.2), (0.6, 0.1)) == 0.3

    def test_tensor_partition_of_unity(self):
        sf = ScalingField.from_cells(
            {(w1, w2): np.full((3, 3), 0.4) for w1 in "123" for w2 in "123"}, 1
        )
        m = build_model(DataSet.zeros(1), sf)
        for pt in [(0.2, 0.1), (0.7, 0.05), (0.5, 0.4)]:
            assert eval_scaling(m, "2", "3", pt, pt) == pytest.approx(0.4)

    def test_tensor_corner_value(self):
        v = np.zeros((3, 3))
        v[0, 0] = 0.8
        sf = ScalingField.from_cells(
            {(w1, w2): v for w1 in "123" for w2 in "123"}, 1
        )
        m = build_model(DataSet.zeros(1), sf)
        assert eval_scaling(m, "1", "1", P[0], Q[0]) == pytest.approx(0.8)
        assert m.alpha_sup == 0.8

    def test_missing_cell_rejected(self):
        with pytest.raises(ValidationError):
            ScalingField.from_cells({("1", "1"): 0.3}, 1)


class TestEvalShift:
    def test_zero_data_everywhere_zero(self):
        m = gf.zero_model()
        assert eval_shift(m, "3", "2", (0.5, 0.3), (0.2, 0.1)) == 0.0

    def test_corner_pair_exact(self, ref03):
        assert eval_shift(ref03, "1", "1", P[1], Q[1]) == pytest.approx(0.5, abs=1e-15)

    def test_constant_tensor_partition_of_unity(self):
        entries = {
            k: (0.0 if (not k.first.word or not k.second.word) else 0.25)
            for k in DataSet.zeros(1).entries
        }
        m = build_model(DataSet(1, entries), ScalingField.constant(0.1, 1))
        # cell (2,2) has all nine corners interior-valued? no: corners of
        # cell 2 include the bare corner p2 -> mixed; use centroid of the
        # interior-heavy evaluation instead via direct bilinear identity
        c = m.shift[("2", "3")]
        lam = np.array([0.2, 0.5, 0.3])
        mu = np.array([0.1, 0.6, 0.3])
        t = lam @ P
        s = mu @ Q
        assert eval_shift(m, "2", "3", t, s) == pytest.approx(lam @ c @ mu, abs=1e-12)


class TestTouchingPairs:
    def test_depth_one_count(self):
        assert len(touching_pairs(1)) == 3

    def test_depth_two_count(self):
        # 3 junctions from the empty prefix plus 3 prefixes x 3 pairs
        assert len(touching_pairs(2)) == 12

    def test_pairs_share_a_point(self):
        for omega, tau, i, j in touching_pairs(3):
            a = gf.address_bary(Address(omega, i))
            b = gf.address_bary(Address(tau, j))
            assert np.array_equal(a, b)


class TestCompatibility:
    def test_tensor_built_model_is_compatible(self, ref03):
        rep = check_compatibility(ref03, samples_per_edge=12)
        assert rep.max_discrepancy <= 1e-12
        assert rep.first_factor_pairs == 3
        assert rep.violations == []

    def test_random_deeper_model_is_compatible(self):
        m = gf.random_model(2, seed=11)
        rep = check_compatibility(m, samples_per_edge=8)
        assert rep.max_discrepancy <= 1e-12

    def test_corrupted_cell_is_flagged(self, ref03):
        bad = perturb_shift(ref03, "1", "2", 2, 1, 0.1)
        rep = check_compatibility(bad, samples_per_edge=10)
        # the perturbed corner is on the 1/2 junction; at the corner sample
        # the mu-weight is 1, so the worst discrepancy is the full 0.1
        assert rep.max_discrepancy == pytest.approx(0.1, abs=1e-12)
        assert any("junction" in desc for desc, _ in rep.violations)

    def test_perturbation_scales_with_weight(self, ref03):
        bad = perturb_shift(ref03, "1", "2", 2, 1, 0.1)
        rep = check_compatibility(bad, samples_per_edge=6)
        for desc, disc in rep.violations:
            assert disc <= 0.1 + 1e-12
