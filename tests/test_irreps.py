"""Highest-weight construction: dimensions, weights, matrices, persistence."""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from oconf import irreps
from oconf.cli import main
from oconf.irreps import (
    IrrepData,
    _spin_rep,
    build_irrep,
    omega_matrix,
    validate_irrep,
)
from oconf.linalg import EchelonBasis, SparseMat
from oconf.ortho import build_ortho
from oconf.weights import (
    casimir_eigenvalue,
    is_dominant,
    natural_dim,
    parse_weight,
    pieri_decompose,
    weyl_dim,
    weyl_orbit_size,
    zero_weight,
)
import reference
from reference import integral_fraction_ops, is_canonical, kron_sum, solve_row_combination, tensor_with_natural

F = Fraction

MU_BATTERY = [
    ("D", "1,0"),
    ("D", "1,1"),
    ("D", "1,-1"),
    ("D", "2,0"),
    ("D", "0,0"),
    ("B", "1,0"),
    ("B", "1/2,1/2"),
    ("B", "1,1"),
]


def assert_homomorphism(ob, rep, dim):
    labels = ob.labels()
    for i in range(len(ob)):
        for j in range(i + 1, len(ob)):
            lhs = SparseMat(dim, dim)
            for k, c in ob.bracket_coeffs(i, j):
                lhs = lhs + rep[labels[k]].scale(c)
            assert lhs == rep[labels[i]].bracket(rep[labels[j]]), (labels[i], labels[j])


@pytest.mark.parametrize("series,mus", MU_BATTERY)
def test_dimension_matches_weyl_formula(series, mus):
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    assert V.dim == weyl_dim(mu)


def test_natural_module_weights():
    V = build_irrep(parse_weight("1,0", "D"))
    got = sorted(w.coords for w in V.weights)
    assert got == sorted([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))])
    V = build_irrep(parse_weight("1,0", "B"))
    got = sorted(w.coords for w in V.weights)
    assert got == sorted([(F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))])


def test_trivial_module():
    V = build_irrep(zero_weight("D", 2))
    assert V.dim == 1
    assert all(M.is_zero() for M in V.rep.values())


@pytest.mark.parametrize("series,mus", MU_BATTERY)
def test_validation_battery(series, mus):
    mu = parse_weight(mus, series)
    rep = validate_irrep(build_irrep(mu))
    assert rep["ok"], rep


def test_weyl_group_invariance_of_weights():
    # D series: signed permutations with an even number of sign flips
    V = build_irrep(parse_weight("2,0", "D"))
    multiset = sorted(w.coords for w in V.weights)
    n = 2
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product([1, -1], repeat=n):
            if signs.count(-1) % 2 == 1:
                continue
            image = sorted(tuple(signs[i] * w[perm[i]] for i in range(n)) for w in multiset)
            assert image == multiset
    # B series: all signed permutations
    V = build_irrep(parse_weight("1,1", "B"))
    multiset = sorted(w.coords for w in V.weights)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product([1, -1], repeat=n):
            image = sorted(tuple(signs[i] * w[perm[i]] for i in range(n)) for w in multiset)
            assert image == multiset


def test_spin_representation_matrices():
    # so(5) spin rep: 4-dimensional, weights (+-1/2, +-1/2)
    V = build_irrep(parse_weight("1/2,1/2", "B"))
    assert V.dim == 4
    got = sorted(w.coords for w in V.weights)
    assert got == sorted(
        [(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))]
    )
    assert omega_matrix(V) == SparseMat.identity(4).scale(F(5, 2))


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "2,0")])
def test_casimir_scalar(series, mus):
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    assert omega_matrix(V) == SparseMat.identity(V.dim).scale(casimir_eigenvalue(mu))


def test_persistence_round_trip(tmp_path):
    mu = parse_weight("1/2,1/2", "B")
    V = build_irrep(mu)
    path = tmp_path / "irrep.json"
    assert main(["build-irrep", "--series", "B", "--mu", "1/2,1/2", "--format", "json", "--output", str(path)]) == 0
    with open(path) as fh:
        doc = json.load(fh)
    # the written document is the irrep's own JSON, plus the validation
    # report of the verb
    assert "validation" in doc
    del doc["validation"]
    assert doc == V.to_json_dict()


def test_tensor_with_natural_dimensions():
    mu = parse_weight("1,0", "D")
    tm = tensor_with_natural(build_irrep(mu))
    assert tm.dim == 16
    # tensoring the trivial module reproduces the natural one
    tm0 = tensor_with_natural(build_irrep(zero_weight("D", 2)))
    assert tm0.dim == 4
    ob = build_irrep(zero_weight("D", 2)).basis
    for i, el in enumerate(ob.elements):
        assert tm0.rep[el.label] == ob.matrix(i)


def test_tensor_action_is_homomorphism():
    mu = parse_weight("1/2,1/2", "B")
    V = build_irrep(mu)
    tm = tensor_with_natural(V)
    assert_homomorphism(V.basis, tm.rep, tm.dim)


def test_dimension_cap(monkeypatch):
    def no_work(mu):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(irreps, "_build", no_work)
    with pytest.raises(irreps.CapExceeded, match="exceeds cap 10"):
        build_irrep(parse_weight("3,0", "D"), 10)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        build_irrep(parse_weight("0,1", "D"))


def test_rank_four_natural_module():
    V = build_irrep(parse_weight("1,0,0,0", "D"))
    assert V.dim == 8
    assert validate_irrep(V)["ok"]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9])  # B1, D2, B2, D3, B3, D4, B4
def test_clifford_spin_module(m):
    ob = build_ortho(m)
    rep = _spin_rep(ob)
    dim = 2**ob.n
    assert_homomorphism(ob, rep, dim)
    for idx in ob.cartan_indices():
        M = rep[ob.elements[idx].label]
        assert len(M.data) == dim
        assert all(r == c and abs(v) == F(1, 2) for (r, c), v in M.data.items())


@pytest.mark.parametrize("series,mus", [("D", "2,0,0,0"), ("D", "6,6"), ("D", "2,2,-2")])
def test_validation_of_larger_weights(series, mus):
    # D(6,6) (dim 13) comes from D(6,5) (dim 24): the cap bounds V(mu) only
    mu = parse_weight(mus, series)
    V = build_irrep(mu, weyl_dim(mu))
    assert V.dim == weyl_dim(mu)
    assert validate_irrep(V)["ok"]


LADDER = [
    ("D", "1,0"), ("D", "1,1"), ("D", "2,0"), ("D", "2,1"),
    ("B", "1,0"), ("B", "1/2,1/2"), ("B", "1,1"), ("B", "3/2,1/2"),
    ("D", "1,0,0"), ("D", "1,1,1"), ("B", "1/2,1/2,1/2"),
]


@pytest.mark.parametrize("series,mus", LADDER)
def test_tensor_character_matches_pieri(series, mus):
    # weights of V(mu) (x) natural = union of the weights of its Pieri summands
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    ob = V.basis
    natural = [tuple(ob.matrix(c).get(k, k) for c in ob.cartan_indices()) for k in range(ob.m)]
    tensor = Counter(tuple(a + b for a, b in zip(w.coords, u)) for w in V.weights for u in natural)
    summands = Counter(w.coords for nu in pieri_decompose(mu) for w in build_irrep(nu).weights)
    assert tensor == summands


# the weights of the battery that have a cyclic module (all but V(0))
CYCLIC_BATTERY = [(s, w) for s, w in MU_BATTERY if w != "0,0"]


@pytest.mark.parametrize("series,mus", sorted(set(LADDER + CYCLIC_BATTERY + [("D", "1,1,1,1")])))  # and one of rank 4
def test_matrix_columns_match_reference_solve(series, mus):
    # each column holds the coordinates of a basis vector's image in the
    # vectors of the target weight, as a fresh transposed solve finds them
    mu = parse_weight(mus, series)
    cyc = irreps._CyclicModule(mu)
    V = cyc.irrep()
    assert V.rep == build_irrep(mu).rep
    offsets, start = {}, 0
    for nu in sorted(cyc.vecs, reverse=True):
        offsets[nu], start = start, start + len(cyc.vecs[nu])
    # the keys are doubled weights, so a generator shifts them by twice its root
    for i, el in enumerate(V.basis.elements):
        cols = V.rep[el.label].col_vectors()
        shift = (0,) * mu.n if el.root is None else tuple(2 * c for c in el.root)
        for nu, vecs in cyc.vecs.items():
            target = tuple(a + b for a, b in zip(nu, shift))
            for col, vec in enumerate(vecs):
                ref = solve_row_combination(cyc.vecs.get(target, []), cyc.act(i, vec))
                assert ref is not None
                assert cols[offsets[nu] + col] == {offsets[target] + r: x for r, x in enumerate(ref) if x}


# the ladder and the battery (the suite's weights among them), rank 1 to 4
# of both series, spin weights, short roots and long raising chains
ORACLE = sorted(set(LADDER + CYCLIC_BATTERY + [
    ("D", "2,2"), ("D", "3,1"), ("B", "5/2,3/2"), ("B", "1/2"), ("B", "1"),
    ("D", "1,1,0"), ("D", "2,1,1"), ("B", "1,1,0"),
    ("D", "1,1,1,1"), ("D", "1/2,1/2,1/2,1/2"), ("D", "1/2,1/2,1/2,-1/2"),
    ("B", "1/2,1/2,1/2,1/2"), ("B", "1,1,0,0"),
]))


@pytest.mark.parametrize("series,mus", ORACLE)
def test_matrices_equal_the_tensor_solve(series, mus):
    # the matrices read off the lowering pass are those that solving every
    # column in the tensor gives, in the same basis
    mu = parse_weight(mus, series)
    assert build_irrep(mu).to_json_dict() == reference.solved_irrep(mu)


@pytest.mark.parametrize("series,mus", [("D", "2,1"), ("B", "3/2,1/2"), ("D", "1,1,1"), ("B", "1,0")])
def test_a_bent_lowering_coordinate_breaks_the_homomorphism(series, mus):
    # the Cartan and raising matrices are derived from the lowering columns,
    # so a wrong lowering coordinate must not be hidden by matrices that
    # agree with it: doubling any one of them fails the homomorphism check
    cyc = irreps._CyclicModule(parse_weight(mus, series))
    bends = [(coeffs, r) for found in cyc.lowered.values() for known in found
             for coeffs in known.values() for r in coeffs]
    assert bends
    for coeffs, r in bends:
        x = coeffs[r]
        coeffs[r] = 2 * x
        try:
            report = validate_irrep(cyc.irrep())
        finally:
            coeffs[r] = x
        assert not report["homomorphism_ok"], r
    assert validate_irrep(cyc.irrep())["ok"]


# the ladder, the spin factors of ranks 1 and 4, and a wide natural factor
FACTORED = sorted(set(LADDER + [
    ("B", "1/2"), ("D", "1/2,1/2,1/2,1/2"), ("D", "1/2,1/2,1/2,-1/2"), ("B", "1/2,1/2,1/2,1/2"),
    ("D", "1,1,1,1"),
]))


def _cyclic_and_inner(mu):
    # the cyclic module of mu, and the V(lambda) its constructor asked for:
    # the first _build call, as a cold V(lambda) makes calls of its own
    asked, build = [], irreps._build
    with pytest.MonkeyPatch.context() as m:
        m.setattr(irreps, "_build", lambda lam: asked.append(lam) or build(lam))
        cyc = irreps._CyclicModule(mu)
    return cyc, build(asked[0])


@pytest.mark.parametrize("series,mus", FACTORED)
def test_act_equals_the_materialized_tensor(series, mus):
    # the factor-by-factor action against the whole tensor matrix
    # rho_W(X) (x) 1 + 1 (x) rho_lambda(X), on every stored vector and every
    # unit vector, entry order included
    mu = parse_weight(mus, series)
    cyc, V = _cyclic_and_inner(mu)
    factor = (_spin_rep if mu.twice[-1] % 2 else irreps._natural_rep)(cyc.ob)
    tensor = kron_sum(factor, V.rep)
    width = len(cyc.cols[0][0]) * V.dim
    vecs = [vec for found in cyc.vecs.values() for vec in found] + [{k: 1} for k in range(width)]
    for i, el in enumerate(cyc.ob.elements):
        T = tensor[el.label]
        assert T.rows == width
        want = [list(image.items()) for image in T.apply_all(vecs)]
        assert [list(cyc.act(i, vec).items()) for vec in vecs] == want, el.label


def test_cold_builds_form_no_tensor_matrix(monkeypatch):
    # each generator acts on V(lambda) (x) W through its two factors' columns,
    # dim W and dim V(lambda) of them: no Kronecker product is formed
    def forbidden(*args):
        raise AssertionError("a tensor-space matrix was formed")

    mus = [parse_weight(w, s) for s, w in FACTORED]
    monkeypatch.setattr(SparseMat, "kron", forbidden)
    build_irrep.cache_clear()
    irreps._build.cache_clear()
    for mu in mus:
        assert build_irrep(mu).dim == weyl_dim(mu)
    monkeypatch.undo()
    for mu in mus:
        with monkeypatch.context() as m:
            m.setattr(SparseMat, "kron", forbidden)
            cyc, V = _cyclic_and_inner(mu)
        dim_w = 2**mu.n if mu.twice[-1] % 2 else natural_dim(mu.series, mu.n)
        assert all((len(left), len(right)) == (dim_w, V.dim) for left, right in cyc.cols)


def test_construction_does_no_integral_fraction_arithmetic():
    # weights are doubled ints and roots ints inside the builder, and every
    # image is summed in canonical scalars: a cold V(mu), with its recursion,
    # and the dominance, orbit and dimension kernels add no integral Fractions
    mus = [parse_weight(w, s) for s, w in LADDER]
    for mu in mus:
        build_ortho(natural_dim(mu.series, mu.n))  # the shared basis, built once per m
    with integral_fraction_ops() as count:
        for mu in mus:
            irreps._CyclicModule(mu).irrep()
            is_dominant(mu), weyl_orbit_size(mu), weyl_dim(mu)
    assert count() == 0


@pytest.mark.parametrize("series,mus", sorted(set(MU_BATTERY + LADDER)))
def test_representation_matrices_are_canonical(series, mus):
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    assert all(is_canonical(v) for M in V.rep.values() for v in M.data.values())
    if not mu.is_zero():
        # the cyclic module's vectors and their images, as stored
        cyc = irreps._CyclicModule(mu)
        vecs = [vec for found in cyc.vecs.values() for vec in found]
        images = [cyc.act(i, vec) for i in range(len(V.basis)) for vec in vecs]
        assert all(is_canonical(x) for vec in vecs + images for x in vec.values())


def test_kron_sum_entries_are_canonical():
    half = {"h": SparseMat(2, 2, {(0, 0): F(1, 2), (1, 1): F(-1, 2)})}
    got = kron_sum(half, half)["h"]
    assert got.data == {(0, 0): 1, (3, 3): -1} and all(type(v) is int for v in got.data.values())


def test_commutant_dimension_of_a_reducible_module():
    # V(e1) (x) V(e1) = V(2e1) + V(e1+e2) + V(e1-e2) + V(0) for D2, dims
    # 9 + 3 + 3 + 1: four highest-weight vectors, of weights 2e1, e1+e2,
    # e1-e2 and 0, one of each, so the commutant has dimension 4
    V = build_irrep(parse_weight("1,0", "D"))
    tm = tensor_with_natural(V)
    assert irreps._commutant_dimension(V.basis, tm.rep, tm.dim) == 4
    V = build_irrep(parse_weight("2,1", "D"))
    assert irreps._commutant_dimension(V.basis, V.rep, V.dim) == 1


def _conjugated(mats, dim):
    # P M P^-1 with P = 1 + (ones on the superdiagonal), whose inverse has
    # (-1)^(j-i) on and above the diagonal: integer, and only a zero M stays
    # diagonal
    P = SparseMat(dim, dim, {**{(i, i): 1 for i in range(dim)}, **{(i, i + 1): 1 for i in range(dim - 1)}})
    P_inv = SparseMat(dim, dim, {(i, j): (-1) ** (j - i) for i in range(dim) for j in range(i, dim)})
    assert P * P_inv == SparseMat.identity(dim)
    return [P * M * P_inv for M in mats]


# (series, weight, natural factors tensored onto V(mu), commutant dimension)
COMMUTANT_CASES = [(s, w, False, 1) for s, w in LADDER] + [
    ("D", "1,0", True, 4),  # V(e1) (x) V(e1) for D2, four summands
    ("B", "1", True, 3),  # V(e1) (x) V(e1) for B1: 5 + 3 + 1
    ("B", "1", 2, 15),  # V(e1)^(x3) for B1: 7 + 2 x 5 + 3 x 3 + 1, so 1 + 4 + 9 + 1
]


@pytest.mark.parametrize("series,mus,naturals,want", COMMUTANT_CASES)
def test_commutant_matches_the_full_system(series, mus, naturals, want):
    # the highest-weight count against every dim^2 unknown of the commutant.
    # Conjugated, the commutant keeps its dimension, but no matrix is
    # diagonal and every highest-weight vector falls in one class: the
    # count is (sum of the m_nu)^2, at least the commutant and 1 exactly
    # when it is
    V = build_irrep(parse_weight(mus, series))
    rep, dim = V.rep, V.dim
    for _ in range(naturals):
        rep, dim = kron_sum(irreps._natural_rep(V.basis), rep), V.basis.m * dim
    mats = list(rep.values())
    assert irreps._commutant_dimension(V.basis, rep, dim) == reference.commutant_dimension(mats, dim) == want
    conj = _conjugated(mats, dim)
    assert not any(M.data and all(i == j for i, j in M.data) for M in conj)
    got = irreps._commutant_dimension(V.basis, dict(zip(rep, conj)), dim)
    assert got >= want
    assert (got == 1) == (want == 1)


@pytest.mark.parametrize("series,mus", [("B", "3/2,1/2"), ("D", "3,1,0")])
def test_commutant_eliminates_only_the_positive_root_rows(series, mus, monkeypatch):
    # one echelon form, of the nonzero rows of the positive-root matrices
    # (38 rows of 16 columns for B(3/2,1/2), 769 of 175 for D(3,1,0)), and
    # its one non-pivot column is the highest-weight vector: no commutant
    # unknowns
    spans = []

    class Spy(EchelonBasis):
        def __init__(self, vectors=()):
            self.given = list(vectors)
            super().__init__(self.given)
            spans.append(self)

    V = build_irrep(parse_weight(mus, series))
    rows = [r for el in V.basis.elements if el.kind == "pos" for r in V.rep[el.label].row_vectors() if r]
    irreps._generator_pairs(V.basis.m)  # the generator proof's echelon form, made once per m
    monkeypatch.setattr(irreps, "EchelonBasis", Spy)
    assert validate_irrep(V)["irreducible"]
    span, = spans
    assert len(span.given) == len(rows) == {"B": 38, "D": 769}[series]
    assert sorted(sorted(r.items()) for r in span.given) == sorted(sorted(r.items()) for r in rows)
    assert [a for a in range(V.dim) if a not in span.rows] == [V.highest]


def _simple_root_labels(ob):
    # the positive roots that are no sum of two positive roots, and their
    # negatives: read from the roots alone, not from heights
    pos = {el.root for el in ob.elements if el.kind == "pos"}
    simple = {r for r in pos if not any(tuple(a - b for a, b in zip(r, q)) in pos for q in pos)}
    return {el.label for el in ob.elements
            if el.root is not None and (el.root in simple or tuple(-c for c in el.root) in simple)}


@pytest.mark.parametrize("m", [4, 6, 8, 10, 3, 5, 7, 9, 11])  # D n=2..5, B n=1..5
def test_simple_root_vectors_generate(m):
    ob = build_ortho(m)
    labels = ob.labels()
    gens = [i for i, label in enumerate(labels) if label in _simple_root_labels(ob)]
    assert len(gens) == 2 * ob.n
    assert irreps._subalgebra_dimension(ob, gens) == len(ob)
    # the positive ones alone generate only the positive root vectors
    raising = [i for i in gens if ob.elements[i].kind == "pos"]
    assert irreps._subalgebra_dimension(ob, raising) == sum(el.kind == "pos" for el in ob.elements)
    pairs = irreps._generator_pairs(m)
    rest = len(ob) - len(gens)
    assert len(pairs) == len(ob) * (len(ob) - 1) // 2 - rest * (rest - 1) // 2
    assert all(i < j and (i in gens or j in gens) for i, j in pairs)


@pytest.mark.parametrize("series,mus", [("D", "1,0,0"), ("B", "1,0")])
def test_homomorphism_check_catches_a_wrong_matrix(series, mus):
    # doubling any root vector's matrix breaks rho[x, y] = [rho x, rho y]:
    # a non-generator's through the pairs it shares with a generator, and
    # every failure listed is such a pair
    V = build_irrep(parse_weight(mus, series))
    gens = _simple_root_labels(V.basis)
    assert validate_irrep(V)["homomorphism_ok"]
    for el in V.basis.elements:
        if el.kind == "cartan":
            continue
        bad = IrrepData(V.mu, V.dim, V.weights, {**V.rep, el.label: V.rep[el.label].scale(2)}, V.highest, V.basis)
        report = validate_irrep(bad)
        assert report["homomorphism_ok"] is False and report["ok"] is False, el.label
        assert report["homomorphism_failures"]
        assert all(a in gens or b in gens for a, b in report["homomorphism_failures"])
        if el.label in gens:
            assert any(el.label in pair for pair in report["homomorphism_failures"])


def test_validation_flags_a_bent_cartan_or_highest_weight_column():
    # an off-diagonal, a wrong or a missing Cartan entry, and an entry in the
    # highest-weight column of a raising matrix, each fail exactly their own check
    V = build_irrep(parse_weight("2,1", "D"))
    ob = V.basis
    h = ob.labels()[ob.cartan_indices()[0]]
    e = next(el.label for el in ob.elements if el.kind == "pos")
    k = next(k for k, w in enumerate(V.weights) if w.coords[0])  # h's diagonal entry k is nonzero

    def report(label, entry, x):
        M = V.rep[label] + SparseMat(V.dim, V.dim, {entry: x})
        return validate_irrep(IrrepData(V.mu, V.dim, V.weights, {**V.rep, label: M}, V.highest, ob))

    assert validate_irrep(V)["cartan_diagonal_ok"] and validate_irrep(V)["highest_weight_annihilated"]
    for label, entry, x, key in ((h, (0, 1), 1, "cartan_diagonal_ok"), (h, (k, k), 1, "cartan_diagonal_ok"),
                                 (h, (k, k), -V.weights[k].coords[0], "cartan_diagonal_ok"),
                                 (e, (1, V.highest), 1, "highest_weight_annihilated")):
        got = report(label, entry, x)
        assert got[key] is False and got["ok"] is False, (label, entry, x)
        other = {"cartan_diagonal_ok", "highest_weight_annihilated"} - {key}
        assert all(got[name] for name in other), (label, entry, x)


def test_recursion_builds_each_weight_once(monkeypatch):
    # the ladder passes through 12 distinct nonzero weights; built cold, each
    # is one cyclic module (19 without the cache: D(1,0) four times, B(1,0)
    # three, D(1,1) and D(1,0,0) twice)
    built = []
    init = irreps._CyclicModule.__init__

    def spy(self, mu):
        built.append(mu)
        init(self, mu)

    monkeypatch.setattr(irreps._CyclicModule, "__init__", spy)
    build_irrep.cache_clear()
    irreps._build.cache_clear()
    for series, mus in LADDER:
        build_irrep(parse_weight(mus, series))
    assert len(built) == len(set(built)) == 12


# sha256 of json.dumps(build_irrep(mu).to_json_dict(), sort_keys=True), as
# recorded before the recursion was cached
IRREP_SHA256 = {
    ("B", "1,0"): "fa82ce58d9b49a8dbd4f01665fba896561189b07311b12f7873de7343be17aa9",
    ("B", "1,1"): "2252a8c2ae2c12bed408b99142318d083655edec86d13a7364d6beab42fa621b",
    ("B", "1/2,1/2"): "683db65c80ff965d61bab0dbbf39232d02434761248769c07ad20b31f4539ee1",
    ("B", "1/2,1/2,1/2"): "2183eeb9628327967479b5ed65624c33157ad736fd2f288c1b871b0132e3e508",
    ("B", "3/2,1/2"): "84c32a058585252decbaa64eff7c3fe164f689e241dc7868837168bb4a4198f1",
    ("D", "1,0"): "867249e850c3690889c7eb46f9b270b1b1919916d6863460bed061bea01202f4",
    ("D", "1,0,0"): "0de7b63e2f001c5e429173f593040cb30a7ab020d23f9a65a247aeb66bc50fc3",
    ("D", "1,1"): "6022ca96b4241f0d836b5ad679c0d974dbf0af2bd9f572b8e6e81329c79965d7",
    ("D", "1,1,1"): "4fffd39652fffd72a97cb74188b951a92971b4311c5e82ff3f064fe2c606111e",
    ("D", "2,0"): "4165ac7b9be2bcba78c03382a6c811cd2dfa38bfe50f0456eb0adc3d6b3e343e",
    ("D", "2,1"): "a9a814f1eefa452cecfc6a1fce19aae4bbd60a6778b16bd9454bc20f1453f23b",
    ("D", "3,1,0"): "0f722d190d094a8bca13e157bb9ead07d96801401ceeea6b780096ff21033ae2",
    # wide V(lambda), recorded before the tensor was acted on factor by factor
    ("D", "31,31"): "0c596fb4379c0d0093d097471895e2edefb517c58c0f1811e8ea620d3324c568",
    ("D", "2,2,-2"): "dbb9c7486e38ea6dbf48cd10432b2649410ee54757f31ccf1baeff7d9dd2c745",
    ("B", "2,1,1"): "e1661ab1d6d602167362054a9233f648aace5388361970a9ea3402a9b95e5e8d",
}


@pytest.mark.parametrize("series,mus", sorted(IRREP_SHA256))
def test_irrep_json_is_pinned(series, mus):
    doc = build_irrep(parse_weight(mus, series)).to_json_dict()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == IRREP_SHA256[(series, mus)]
