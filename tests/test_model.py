import itertools
import math
import re
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasketfif as gf
from gasketfif.errors import ContractionError, ValidationError
from gasketfif.gasket import Address, GasketSpec, address_point, canonicalize
from gasketfif.grids import FactorGrid, product_values
from gasketfif.model import (
    COMPATIBILITY_TOL,
    DataSet,
    ProductVertex,
    ScalingField,
    build_model,
    check_compatibility,
    perturb_shift,
    words_of_length,
)
from oracles import dataset_entries_oracle, eval_scaling, eval_shift, shift_corners

SPEC = GasketSpec()
P = SPEC.corner_array
Q = SPEC.corner_array


def data_triples(data) -> list:
    """The (first, second, z) triples of a DataSet, addresses as strings."""
    return [(str(k.first), str(k.second), z) for k, z in data.entries.items()]


class TestDataSet:
    def test_zero_dataset_valid(self):
        ds = DataSet.zeros(1)
        assert len(ds.entries) == 36

    def test_build_refuses_incomplete_data(self):
        # a value matrix has no gaps: completeness is DataSet.build's to
        # check, boundary values build_model's
        triples = data_triples(DataSet.zeros(1))
        name = "|".join(triples[-1][:2])
        with pytest.raises(ValidationError, match=re.escape(f"missing data for vertex {name}")):
            DataSet.build(1, triples[:-1])
        assert len(DataSet.build(1, triples).entries) == 36

    def test_values_in_factor_grid_order(self):
        data = gf.random_dataset(2, 3)
        fg = FactorGrid(2)
        for key, z in data.entries.items():
            assert data.values[fg.index_of(key.first), fg.index_of(key.second)] == z

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


def spellings(a: Address) -> list:
    """Addresses of the point of a: itself, its corner letter appended,
    and at a touching point the other cell's name, L_ul(p_c) = L_uc(p_l)."""
    out = [a, Address(a.word + str(a.corner), a.corner)]
    if a.word and a.word[-1] != str(a.corner):
        out.append(Address(a.word[:-1] + str(a.corner), int(a.word[-1])))
    return out


def respelled(data, seed: int) -> list:
    """The triples of a DataSet, each given one to three times in random
    spellings, zeros as 0.0 or -0.0, in random order."""
    rng = np.random.default_rng(seed)
    triples = []
    for key, z in data.entries.items():
        for _ in range(rng.integers(1, 4)):
            a, b = (str(rng.choice(spellings(x))) for x in (key.first, key.second))
            triples.append((a, b, -z if z == 0.0 and rng.random() < 0.5 else z))
    return [triples[i] for i in rng.permutation(len(triples))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_matches_the_dict_built_data(n):
    triples = respelled(gf.random_dataset(n, n), n)
    got, want = DataSet.build(n, triples).entries, dataset_entries_oracle(triples)
    assert set(got) == set(want)
    assert all(bits(got[key]) == bits(want[key]) for key in want)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("clash", [0.25, float("nan")])
def test_conflicts_refused_as_by_the_dict(n, clash):
    # two conflicts: the one met first in input order is named, with the
    # value written before it
    triples = respelled(gf.random_dataset(n, 0), 10 + n)
    for pos in (len(triples) // 2, len(triples) // 3):
        first, second, z = triples[pos]
        if math.isnan(clash):  # a NaN clashes with itself
            triples[pos] = (first, second, clash)
        triples.insert(pos + 7, (first, second, clash))
    with pytest.raises(ValidationError) as want:
        dataset_entries_oracle(triples)
    with pytest.raises(ValidationError) as got:
        DataSet.build(n, triples)
    assert "conflicting" in str(want.value)
    assert str(got.value) == str(want.value)


class TestBuildModel:
    def test_zero_data_sup_bounds(self):
        m = gf.zero_model(0.3)
        assert (m.alpha_sup, m.shift_sup, m.f_sup_bound) == (0.3, 0.0, 0.0)

    def test_bump_keys_into_expected_cell(self, ref03):
        # z = 0.5 at (1@2, 1@2) must land at corner (2,2) of cell (1,1)
        c = shift_corners(ref03, "1", "1")
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
        for w1, w2 in itertools.product(words_of_length(2), repeat=2):
            c = shift_corners(m, w1, w2)
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
        triples = [t for t in data_triples(DataSet.zeros(1)) if t[:2] != ("1@2", "2@3")]
        with pytest.raises(ValidationError, match=re.escape("missing data for vertex 1@2|2@3")):
            build_model(DataSet.build(1, triples), ScalingField.constant(0.3, 1))

    def test_pair_outside_v_n_refused(self):
        triples = data_triples(DataSet.zeros(1)) + [("11@2", "@1", 0.0)]
        message = "data vertex 11@2|@1 lies outside V_1 x V_1"
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_model(DataSet.build(1, triples), ScalingField.constant(0.3, 1))

    def test_two_values_for_one_pair_refused(self):
        # 2@1 names the vertex 1@2
        triples = data_triples(DataSet.zeros(1)) + [("2@1", "1@2", 0.25)]
        with pytest.raises(ValidationError, match="conflicting"):
            build_model(DataSet.build(1, triples), ScalingField.constant(0.3, 1))

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_refused(self, z):
        # a NaN would give shift_sup = nan and no certified bound at all
        data = DataSet.zeros(1)
        fg = FactorGrid(1)
        data.values[fg.index_of(Address("1", 2)), fg.index_of(Address("2", 3))] = z
        with pytest.raises(ValidationError, match=re.escape("at vertex 1@2|2@3 is not finite")):
            build_model(data, ScalingField.constant(0.3, 1))

    @pytest.mark.parametrize("first, second", [("1@2", "@1"), ("@3", "2@3"), ("@2", "@1")])
    def test_boundary_value_refused(self, first, second):
        # f vanishes on the corners of either factor
        data = DataSet.zeros(1)
        fg = FactorGrid(1)
        data.values[fg.index_of(Address.parse(first)), fg.index_of(Address.parse(second))] = 0.7
        with pytest.raises(ValidationError, match=re.escape(f"boundary vertex {first}|{second}")):
            build_model(data, ScalingField.constant(0.3, 1))

    def test_data_of_another_shape_refused(self):
        with pytest.raises(ValidationError, match="shape"):
            build_model(DataSet(1, np.zeros((6, 5))), ScalingField.constant(0.3, 1))

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

    @pytest.mark.parametrize("key", [("4", "1"), ("12", "3"), ("1", ""), ("11", "22")])
    def test_unknown_scaling_key_refused(self, key):
        # every cell-pair is there, and the extra key names none of length 1
        cells = {(w1, w2): 0.2 for w1 in "123" for w2 in "123"}
        cells[key] = 0.5
        msg = f"scaling key {key[0]}|{key[1]} is not a cell-pair of length 1"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            ScalingField.from_cells(cells, 1)

    def test_address_parsed_once_per_distinct_string(self, monkeypatch):
        # an address occurs in 2 V(N) pairs, but is parsed once
        calls = []
        parse = Address.parse
        monkeypatch.setattr(Address, "parse", lambda text: calls.append(text) or parse(text))
        triples = data_triples(gf.random_dataset(2, 0))
        DataSet.build(2, triples)
        assert len(calls) == len(set(calls)) == len({a for t in triples for a in t[:2]})


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
    shift, shift_sup, k_h = canonical_read(data, g1, GasketSpec())
    assert model.cell_table.shift.shape == (3, 3, len(shift))
    for key, c in shift.items():
        assert np.array_equal(bits(shift_corners(model, *key)), bits(c))
    assert not model.cell_table.shift.flags.writeable
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

    @pytest.mark.parametrize(
        "value", ["0.2", True, np.True_, None, [[0.1] * 3, [0.1, "0.1", 0.1], [0.1] * 3],
                  [[0.1] * 3, [0.1, 0.1, False], [0.1] * 3], np.full((3, 3), "0.1")]
    )
    def test_string_or_bool_refused(self, value):
        # np.asarray(v, dtype=float) and float() read "0.1" and True
        cells = {(w1, w2): 0.3 for w1 in "123" for w2 in "123"}
        cells["2", "3"] = value
        kind = ValidationError if value is None else TypeError  # None: no 3x3 tensor
        with pytest.raises(kind, match="must be a number|must be 3x3"):
            ScalingField.from_cells(cells, 1)

    @pytest.mark.parametrize("value", ["0.3", True, np.True_, None])
    def test_constant_string_or_bool_refused(self, value):
        with pytest.raises(TypeError, match="the constant must be a number"):
            ScalingField.constant(value, 1)

    def test_numbers_of_numpy_accepted(self):
        cells = {(w1, w2): 0.3 for w1 in "123" for w2 in "123"}
        cells["1", "1"] = np.float32(0.25)
        cells["1", "2"] = np.int64(0)
        cells["1", "3"] = np.full((3, 3), 0.5, dtype=np.float32)
        cells["2", "1"] = [[0, 1e-3, 0.5]] * 3
        sf = ScalingField.from_cells(cells, 1)
        assert sf.corners[0, 0, 0] == 0.25 and sf.corners[1, 2, 2] == 0.5
        assert ScalingField.constant(np.float32(0.25), 1).corners[2, 1, 8] == 0.25
        assert sf.is_tensor.tolist() == [False, False, True, True] + [False] * 5


class TestEvalShift:
    def test_zero_data_everywhere_zero(self):
        m = gf.zero_model()
        assert eval_shift(m, "3", "2", (0.5, 0.3), (0.2, 0.1)) == 0.0

    def test_corner_pair_exact(self, ref03):
        assert eval_shift(ref03, "1", "1", P[1], Q[1]) == pytest.approx(0.5, abs=1e-15)

    def test_constant_tensor_partition_of_unity(self):
        triples = [
            (str(k.first), str(k.second), 0.0 if (not k.first.word or not k.second.word) else 0.25)
            for k in DataSet.zeros(1).entries
        ]
        m = build_model(DataSet.build(1, triples), ScalingField.constant(0.1, 1))
        # cell (2,2) has all nine corners interior-valued? no: corners of
        # cell 2 include the bare corner p2 -> mixed; use centroid of the
        # interior-heavy evaluation instead via direct bilinear identity
        c = shift_corners(m, "2", "3")
        lam = np.array([0.2, 0.5, 0.3])
        mu = np.array([0.1, 0.6, 0.3])
        t = lam @ P
        s = mu @ Q
        assert eval_shift(m, "2", "3", t, s) == pytest.approx(lam @ c @ mu, abs=1e-12)


def touching_pairs(n: int) -> list:
    """All touching pairs of distinct depth-n cells of one gasket factor.

    Each entry is (omega, tau, i, j) with omega = w.a.b^k, tau = w.b.a^k
    and shared point L_omega(p_i) = L_tau(p_j), i.e. i = b, j = a.  The
    junction list of an earlier check_compatibility, kept as its oracle.
    """
    out = []
    for plen in range(n):
        k = n - plen - 1
        for w in words_of_length(plen):
            for a in (1, 2, 3):
                for b in range(a + 1, 4):
                    out.append((w + str(a) + str(b) * k, w + str(b) + str(a) * k, b, a))
    return out


def junction_oracle(model, samples: int = 10) -> float:
    """The largest discrepancy over every first-factor, second-factor and
    corner junction of touching_pairs, the other factor sampled at its
    first `samples` canonical vertices: the loop of an earlier
    check_compatibility, on finite shift values."""
    n = model.n
    words = words_of_length(n)
    pairs = touching_pairs(n)
    level = 0
    while gf.gasket.vertex_count(level) < samples:
        level += 1
    lam = np.array([gf.address_bary(a) for a in gf.enumerate_vertices(level)[:samples]])
    sh = {(a, b): shift_corners(model, a, b) for a in words for b in words}
    worst = 0.0
    for omega, tau, i, j in pairs:
        for eta in words:
            d = lam @ (sh[(omega, eta)][i - 1] - sh[(tau, eta)][j - 1])
            worst = max(worst, float(np.max(np.abs(d))))
    for eta, xi, i, j in pairs:
        for omega in words:
            d = lam @ (sh[(omega, eta)][:, i - 1] - sh[(omega, xi)][:, j - 1])
            worst = max(worst, float(np.max(np.abs(d))))
    for omega, tau, i, j in pairs:
        for eta, xi, k, l in pairs:
            worst = max(worst, abs(sh[(omega, eta)][i - 1, k - 1] - sh[(tau, xi)][j - 1, l - 1]))
    return worst


def corner_pair(w1, w2, a, b) -> str:
    """The product vertex that corner (a, b) of the cell-pair (w1, w2) writes."""
    return f"{canonicalize(Address(w1, a))}|{canonicalize(Address(w2, b))}"


def corners(n: int):
    """Every (w1, w2, a, b): a corner of a depth-n cell-pair."""
    words = words_of_length(n)
    return list(itertools.product(words, words, (1, 2, 3), (1, 2, 3)))


@cache
def writer_counts(n: int) -> Counter:
    """The number of cell-pair corners that write each product vertex, by
    canonical addresses alone."""
    return Counter(corner_pair(*c) for c in corners(n))


@cache
def random_n1():
    return gf.random_model(1, 3)


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
        rep = check_compatibility(ref03)
        assert rep.max_discrepancy <= 1e-12
        assert rep.violations == []

    def test_random_deeper_model_is_compatible(self):
        m = gf.random_model(2, seed=11)
        rep = check_compatibility(m)
        assert rep.max_discrepancy <= 1e-12

    @pytest.mark.parametrize("n, seed", [(1, 0), (1, 5), (2, 0), (2, 5), (3, 0), (4, 0)])
    def test_every_built_model_reads_zero(self, n, seed):
        rep = check_compatibility(gf.random_model(n, seed))
        assert rep.max_discrepancy == 0.0
        assert rep.worst == ""
        assert rep.violations == []

    def test_corrupted_cell_is_flagged(self, ref03):
        bad = perturb_shift(ref03, "1", "2", 2, 1, 0.1)
        rep = check_compatibility(bad)
        # the perturbed corner is on the 1/2 junction, and the other cells
        # there still write the old value, so the discrepancy is the full 0.1
        assert rep.max_discrepancy == pytest.approx(0.1, abs=1e-12)
        assert any("junction" in desc for desc, _ in rep.violations)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_corner_matches_the_junction_loop(self, n):
        # every corner of every cell-pair: 81 cases at N=1, 729 at N=2
        m = gf.random_model(n, 3)
        for w1, w2, a, b in corners(n):
            bad = perturb_shift(m, w1, w2, a, b, 0.1)
            rep = check_compatibility(bad)
            assert rep.max_discrepancy == junction_oracle(bad)
            pair = corner_pair(w1, w2, a, b)
            expected = [f"junction at {pair}"] if writer_counts(n)[pair] >= 2 else []
            assert [desc for desc, _ in rep.violations] == expected

    @settings(max_examples=100, deadline=None)
    @given(
        delta=st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan])),
        corner=st.integers(0, 80),
    )
    def test_any_delta(self, delta, corner):
        m = random_n1()
        w1, w2, a, b = corners(1)[corner]
        z = shift_corners(m, w1, w2)[a - 1, b - 1]
        bad = perturb_shift(m, w1, w2, a, b, delta)
        rep = check_compatibility(bad)
        flagged = [desc for desc, _ in rep.violations]
        pair = f"junction at {corner_pair(w1, w2, a, b)}"
        moved = z + delta
        if math.isfinite(moved):
            assert rep.max_discrepancy == junction_oracle(bad)
            seen = writer_counts(1)[corner_pair(w1, w2, a, b)] >= 2
            assert flagged == ([pair] if seen and abs(moved - z) > COMPATIBILITY_TOL else [])
        else:
            # a non-finite corner is broken even where no other cell writes
            assert flagged == [pair]
            assert rep.worst == pair
            assert not rep.max_discrepancy <= COMPATIBILITY_TOL

    def test_perturbation_scales_with_weight(self, ref03):
        bad = perturb_shift(ref03, "1", "2", 2, 1, 0.1)
        rep = check_compatibility(bad)
        for desc, disc in rep.violations:
            assert disc <= 0.1 + 1e-12


def mixed_scaling(n: int, seed: int) -> ScalingField:
    """A random 3x3 corner tensor on about half the cell-pairs, a random
    constant on the rest."""
    rng = np.random.default_rng(seed)
    words = words_of_length(n)
    cells = {}
    for key in itertools.product(words, repeat=2):
        tensor = rng.random() < 0.5
        cells[key] = rng.uniform(-0.3, 0.3, (3, 3)) if tensor else float(rng.uniform(-0.3, 0.3))
    return ScalingField.from_cells(cells, n)


class TestOneScalingStore:
    @pytest.mark.parametrize("n", [1, 2])
    def test_alpha_is_a_read_only_copy(self, n):
        field = mixed_scaling(n, n)
        model = build_model(gf.random_dataset(n, 0), field)
        table = model.cell_table
        assert table.alpha.shape == (3, 3, 9**n)
        assert not table.alpha.flags.writeable and not table.is_tensor.flags.writeable
        assert not np.shares_memory(table.alpha, field.corners)
        assert not np.shares_memory(table.is_tensor, field.is_tensor)
        assert np.array_equal(table.alpha.view(np.uint64), field.corners.view(np.uint64))
        assert np.array_equal(table.is_tensor, field.is_tensor)
        assert table.any_tensor
        # alpha[0, 0] is a view of every cell's constant
        assert np.shares_memory(table.alpha[0, 0], table.alpha)
        assert table.alpha[0, 0].flags.c_contiguous
        before = (table.alpha.copy(), table.alpha_rows, product_values(model, n + 1)[2])
        field.corners[...] = 0.9
        field.is_tensor[...] = ~field.is_tensor
        assert np.array_equal(table.alpha.view(np.uint64), before[0].view(np.uint64))
        assert table.alpha_rows == before[1]
        after = product_values(model, n + 1)[2]
        assert np.array_equal(after.view(np.uint64), before[2].view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2])
    def test_perturb_shift_passes_the_array_on(self, n):
        model = build_model(gf.random_dataset(n, 0), mixed_scaling(n, n))
        bad = perturb_shift(model, "1" * n, "2" * n, 2, 1, 0.1)
        for name in ("alpha", "is_tensor", "offset"):
            assert getattr(bad.cell_table, name) is getattr(model.cell_table, name)
        assert bad.cell_table.any_tensor == model.cell_table.any_tensor
        assert bad.cell_table.shift is not model.cell_table.shift
        assert not bad.cell_table.shift.flags.writeable

    @pytest.mark.parametrize("n", [1, 2])
    def test_alpha_rows(self, n):
        field = mixed_scaling(n, 10 + n)
        rows = build_model(gf.random_dataset(n, 0), field).cell_table.alpha_rows
        assert len(rows) == 9**n
        for c, entry in enumerate(rows):
            corners = field.corners[:, :, c].ravel()
            if field.is_tensor[c]:
                assert type(entry) is tuple and len(entry) == 9
                assert all(type(v) is float for v in entry)
                assert np.array_equal(np.array(entry).view(np.uint64), corners.view(np.uint64))
            else:
                assert type(entry) is float
                assert np.array_equal(
                    np.full(9, entry).view(np.uint64), corners.view(np.uint64)
                )

    @pytest.mark.parametrize(
        "n, word",
        [(1, "12"), (1, "4"), (1, ""), (1, "0"), (1, " 1"), (2, "1"), (2, "1a"), (2, "123")],
    )
    def test_perturb_shift_refuses_a_word_not_of_length_n(self, n, word):
        model = gf.random_model(n, 0)
        for omega, eta in ((word, "1" * n), ("1" * n, word)):
            with pytest.raises(KeyError) as info:
                perturb_shift(model, omega, eta, 1, 1, 0.5)
            assert str(info.value) == repr(word)
