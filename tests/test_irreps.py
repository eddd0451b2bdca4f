"""Highest-weight construction: dimensions, weights, matrices, persistence."""

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from oconf import irreps
from oconf.irreps import (
    _spin_rep,
    build_irrep,
    load_irrep_json,
    omega_matrix,
    tensor_with_natural,
    validate_irrep,
)
from oconf.linalg import SparseMat
from oconf.ortho import build_ortho
from oconf.weights import casimir_eigenvalue, parse_weight, pieri_decompose, weyl_dim, zero_weight

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
    V.save_json(str(path))
    with open(path) as fh:
        doc = json.load(fh)
    V2 = load_irrep_json(doc)
    assert V2.dim == V.dim
    assert [w.coords for w in V2.weights] == [w.coords for w in V.weights]
    assert V2.rep == V.rep
    assert V2.highest == V.highest


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
    with pytest.raises(ValueError):
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
