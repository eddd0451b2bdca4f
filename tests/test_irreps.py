"""Highest-weight construction: dimensions, weights, matrices, persistence."""

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from oconf import irreps
from oconf.cli import main
from oconf.irreps import (
    _spin_rep,
    build_irrep,
    omega_matrix,
    tensor_with_natural,
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
from reference import integral_fraction_ops, is_canonical, solve_row_combination

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


@pytest.mark.parametrize("series,mus", LADDER)
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
    got = irreps._kron_sum(half, half)["h"]
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
        rep, dim = irreps._kron_sum(irreps._natural_rep(V.basis), rep), V.basis.m * dim
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
    monkeypatch.setattr(irreps, "EchelonBasis", Spy)
    assert validate_irrep(V)["irreducible"]
    span, = spans
    assert len(span.given) == len(rows) == {"B": 38, "D": 769}[series]
    assert sorted(sorted(r.items()) for r in span.given) == sorted(sorted(r.items()) for r in rows)
    assert [a for a in range(V.dim) if a not in span.rows] == [V.highest]
