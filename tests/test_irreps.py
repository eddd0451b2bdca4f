"""Highest-weight construction: dimensions, weights, matrices, persistence."""

import itertools
import json
from fractions import Fraction

import pytest

from oconf.irreps import (
    _builder_for,
    _candidate_weights,
    _IrrepBuild,
    build_irrep,
    load_irrep_json,
    omega_matrix,
    tensor_with_natural,
    validate_irrep,
)
from oconf.linalg import SparseMat
from oconf.weights import casimir_eigenvalue, parse_weight, weyl_dim, zero_weight

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
    ob = V.basis
    labels = ob.labels()
    for i in range(len(ob)):
        for j in range(i + 1, len(ob)):
            lhs = SparseMat(tm.dim, tm.dim)
            for k, c in ob.bracket_coeffs(i, j):
                lhs = lhs + tm.rep[labels[k]].scale(c)
            assert lhs == tm.rep[labels[i]].bracket(tm.rep[labels[j]])


def test_dimension_cap():
    with pytest.raises(ValueError):
        build_irrep(parse_weight("3,0", "D"), 10)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        build_irrep(parse_weight("0,1", "D"))


def _brute_force_partitions(roots, max_total):
    """Weight drop -> multiplicity vectors, from every multiset of at most
    max_total roots."""
    table = {}
    for total in range(max_total + 1):
        for pick in itertools.combinations_with_replacement(range(len(roots)), total):
            counts = tuple(pick.count(p) for p in range(len(roots)))
            drop = tuple(sum(c * r[i] for c, r in zip(counts, roots)) for i in range(len(roots[0])))
            table.setdefault(drop, []).append(counts)
    return table


@pytest.mark.parametrize(
    "series,mus",
    [("D", "1,0"), ("D", "2,1"), ("D", "1,1,0"), ("B", "3/2,1/2"), ("B", "1,0,0"), ("B", "1/2,1/2,1/2")],
)
def test_words_for_matches_brute_force(series, mus):
    mu = parse_weight(mus, series)
    vb = _builder_for(series, mu.n)
    bound = max(abs(c) for c in mu.coords)
    steps = range(-int(2 * bound), int(2 * bound) + 1)
    axes = [[c + k for k in steps if abs(c + k) <= bound] for c in mu.coords]
    deltas = [tuple(m - x for m, x in zip(mu.coords, nu)) for nu in itertools.product(*axes)]
    # every positive root pairs to at least 1 with (n, ..., 1): that bounds
    # the number of roots in a partition of delta
    height = [mu.n - i for i in range(mu.n)]
    max_total = int(max(sum(h * d for h, d in zip(height, delta)) for delta in deltas))
    table = _brute_force_partitions([tuple(int(c) for c in r) for r in vb.droot], max_total)
    deltas.append(tuple(-c for c in vb.droot[0]))  # a raise is never a drop
    unreachable = 0
    for delta in deltas:
        expected = sorted(table.get(delta, []), key=lambda c: (sum(c), tuple(-x for x in c)))
        words = [tuple(p for p, c in enumerate(counts) for _ in range(c)) for counts in expected]
        assert vb.words_for(delta) == words, delta
        unreachable += not words
    assert 0 < unreachable < len(deltas)


def test_rank_four_natural_module():
    V = build_irrep(parse_weight("1,0,0,0", "D"))
    assert V.dim == 8
    assert validate_irrep(V)["ok"]


def test_build_stores_weight_spaces_only_at_candidate_weights(monkeypatch):
    # images landing where V(mu) is zero are paired against that weight's
    # words; the weight space (and its Gram matrix) is never built there
    mu = parse_weight("1,1,1", "D")
    seen = []
    space = _IrrepBuild.space

    def spy(self, nu):
        seen.append(nu)
        return space(self, nu)

    monkeypatch.setattr(_IrrepBuild, "space", spy)
    V = build_irrep.__wrapped__(mu)  # cold: bypass the lru_cache
    assert V.dim == weyl_dim(mu)
    assert seen and set(seen) <= set(_candidate_weights(mu))
