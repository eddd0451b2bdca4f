"""Weight combinatorics: dominance, jumps, Pieri, dimensions, spectra,
excluded central-charge sets.  Frozen values are derived in comments."""

import itertools
from bisect import bisect_left
from fractions import Fraction

import pytest

from oconf.irreps import build_irrep
from oconf.mixed import ConformalModule
from oconf.reducibility import _dominant_orbit_size
from oconf.weights import (
    WeightVec,
    casimir_eigenvalue,
    critical_b_set,
    epsilon,
    is_dominant,
    is_dominant_twice,
    jump_sequence,
    minimal_dominant_twice,
    omega_tilde_spectrum,
    parse_weight,
    pieri_decompose,
    pieri_terms,
    rho,
    split_casimir_eigenvalue,
    weyl_dim,
    weyl_orbit_size,
    weyl_orbit_size_twice,
    zero_weight,
)
from reference import fraction_is_dominant, fraction_weyl_dim, fraction_weyl_orbit, slice_weights

F = Fraction


def W(series, *coords):
    return WeightVec(series, tuple(F(c) for c in coords))


def test_dominance():
    assert is_dominant(W("D", 1, 0))
    assert not is_dominant(W("D", 0, 1))
    assert is_dominant(W("B", F(1, 2), F(1, 2)))
    assert is_dominant(W("D", 1, -1))
    assert not is_dominant(W("D", 0, -1))  # mu_{n-1}+mu_n < 0
    assert not is_dominant(W("B", 1, -1))  # B coordinates must be nonnegative
    assert is_dominant(W("D", 2, 1, 1, -1))
    assert not is_dominant(W("D", 1, F(1, 2)))  # descent not integral


def test_jump_sequences():
    assert jump_sequence(W("D", 1, 0)).boundaries == (0, 1, 2)
    assert jump_sequence(W("D", 2, 2, 2)).boundaries == (0, 3)
    assert jump_sequence(W("D", 3, 1, 1, 0)).boundaries == (0, 1, 3, 4)
    js = jump_sequence(W("D", 3, 1, 1, 0))
    assert js.s == 3


def test_jump_sequence_reconstructs_equality_pattern():
    for coords in [(3, 1, 1, 0), (2, 2, 0, 0), (1, 1, 1, 1), (5, 4, 3, 2)]:
        mu = W("D", *coords)
        js = jump_sequence(mu)
        # block r holds the positions boundaries[r-1] < i <= boundaries[r]
        for i in range(1, mu.n + 1):
            for j in range(1, mu.n + 1):
                same_block = bisect_left(js.boundaries, i) == bisect_left(js.boundaries, j)
                assert (mu.coords[i - 1] == mu.coords[j - 1]) == same_block


def test_rho():
    assert rho("D", 2).coords == (F(1), F(0))
    assert rho("B", 2).coords == (F(3, 2), F(1, 2))
    assert rho("D", 4).coords == (F(3), F(2), F(1), F(0))


def test_weyl_dims():
    assert weyl_dim(W("D", 1, 0)) == 4
    assert weyl_dim(W("D", 1, 1)) == 3  # so(4) = sl2 x sl2 self-dual factor
    assert weyl_dim(W("B", F(1, 2), F(1, 2))) == 4  # spin rep of so(5)
    assert weyl_dim(W("B", 1, 0)) == 5
    assert weyl_dim(W("D", 1, 1, 0)) == 15  # adjoint of so(6)
    assert weyl_dim(zero_weight("B", 3)) == 1


def test_casimir_eigenvalues():
    assert casimir_eigenvalue(W("D", 1, 0)) == 3
    assert casimir_eigenvalue(zero_weight("D", 4)) == 0
    assert casimir_eigenvalue(W("B", F(1, 2), F(1, 2))) == F(5, 2)


def test_pieri_examples():
    got = {w.coords for w in pieri_decompose(W("D", 1, 0))}
    assert got == {(F(0), F(0)), (F(2), F(0)), (F(1), F(1)), (F(1), F(-1))}
    assert [w.coords for w in pieri_decompose(zero_weight("D", 2))] == [(F(1), F(0))]
    got = {w.coords for w in pieri_decompose(W("B", F(1, 2), F(1, 2)))}
    assert got == {(F(1, 2), F(1, 2)), (F(3, 2), F(1, 2))}
    # B-series mu_n = 0: no V(mu) summand (5*5 = 14+10+1)
    got = {w.coords for w in pieri_decompose(W("B", 1, 0))}
    assert got == {(F(2), F(0)), (F(1), F(1)), (F(0), F(0))}


def _dominant_corpus(series, n, max_mu1):
    """All dominant weights with coordinates in Z/2, |mu_1| <= max_mu1."""
    vals = [F(k, 2) for k in range(-2 * max_mu1, 2 * max_mu1 + 1)]
    out = []
    for coords in itertools.product(vals, repeat=n):
        try:
            mu = WeightVec(series, coords)
        except ValueError:
            continue
        if is_dominant(mu):
            out.append(mu)
    return out


@pytest.mark.parametrize("series,n", [("D", 2), ("D", 3), ("B", 1), ("B", 2)])
def test_pieri_total_dimension_identity(series, n):
    nat = weyl_dim(epsilon(series, n, 1))
    for mu in _dominant_corpus(series, n, 2):
        parts = pieri_decompose(mu)
        assert all(is_dominant(w) for w in parts)
        assert nat * weyl_dim(mu) == sum(weyl_dim(w) for w in parts)


@pytest.mark.parametrize("series,n", [("D", 2), ("D", 3), ("B", 2)])
def test_spectrum_matches_casimir_shift(series, n):
    # each spectrum eigenvalue equals (c(nu) - c(mu) - c(e1)) / 2
    e1 = epsilon(series, n, 1)
    for mu in _dominant_corpus(series, n, 2):
        for term in pieri_terms(mu):
            lam = split_casimir_eigenvalue(mu, term)
            shift = (casimir_eigenvalue(term.weight) - casimir_eigenvalue(mu) - casimir_eigenvalue(e1)) / 2
            assert lam == shift


def test_spectrum_examples():
    sp = omega_tilde_spectrum(W("D", 1, 0))
    assert sp.entries == ((F(1), 9), (F(-1), 6), (F(-3), 1))
    sp = omega_tilde_spectrum(zero_weight("D", 3))
    assert sp.entries == ((F(0), 6),)
    sp = omega_tilde_spectrum(W("B", F(1, 2), F(1, 2)))
    assert sp.entries == ((F(1, 2), 16), (F(-2), 4))


@pytest.mark.parametrize("series,n", [("D", 2), ("D", 3), ("B", 2)])
def test_spectrum_total_multiplicity(series, n):
    nat = weyl_dim(epsilon(series, n, 1))
    for mu in _dominant_corpus(series, n, 2):
        assert sum(m for _, m in omega_tilde_spectrum(mu).entries) == nat * weyl_dim(mu)


def test_eigenvalue_containment_in_theta_ladder():
    # both eigenvalue families lie in mu_1 + 2n - n_1 - 1 - N (D series)
    for n in range(2, 5):
        for mu in _dominant_corpus("D", n, 3):
            if mu.is_zero():
                continue
            js = jump_sequence(mu)
            top = mu.coords[0] + 2 * n - js.boundaries[1] - 1
            for i in range(1, js.s + 1):
                lo = js.boundaries[i - 1]
                raise_val = -mu.coords[lo] + lo
                lower_val = mu.coords[js.boundaries[i] - 1] + 2 * n - js.boundaries[i] - 1
                for v in (raise_val, lower_val):
                    assert (top - v).denominator == 1 and top - v >= 0


def test_critical_sets():
    cs = critical_b_set(W("D", 1, 0))
    assert [c.describe() for c in cs.components] == ["n-1-N/2 = 1-N/2", "Theta(mu) = 3-N"]
    assert cs.contains(F(3)) and cs.contains(F(1)) and cs.contains(F(1, 2))
    assert not cs.contains(F(5, 3)) and not cs.contains(F(7, 2))
    # special branch: mu_{n-1} = -mu_n > 0 with s = 2
    cs = critical_b_set(W("D", 1, -1))
    assert [c.describe() for c in cs.components] == ["n-1-N/2 = 1-N/2", "Theta(mu) = 2-N"]
    # B-series spin weight: Theta empty
    cs = critical_b_set(W("B", F(1, 2), F(1, 2)))
    assert [c.describe() for c in cs.components] == ["n-N/2 = 2-N/2"]
    assert cs.contains(F(2)) and not cs.contains(F(1, 4))
    # mu = 0: exactly -N, and flagged exact
    cs = critical_b_set(zero_weight("B", 2))
    assert cs.exact and cs.contains(F(0)) and cs.contains(F(-2)) and not cs.contains(F(1, 2))


def test_weight_parsing_round_trip():
    mu = parse_weight("3/2,1/2", "B")
    assert str(mu) == "3/2,1/2"
    with pytest.raises(ValueError):
        parse_weight("1,x", "D")
    with pytest.raises(ValueError):
        WeightVec("D", (F(1, 3),))


@pytest.mark.parametrize("series,n", [("B", 1), ("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)])
def test_weyl_orbit_size_matches_enumeration(series, n):
    # W: signed permutations, with an even number of sign changes for D; the
    # orbits of the dominant weights partition the (W-stable) box
    group = [
        (perm, signs)
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
        if series == "B" or signs.count(-1) % 2 == 0
    ]
    box = list(itertools.product(range(-3, 4), repeat=n))
    seen = set()
    for c in box:
        nu = WeightVec(series, c)
        if not is_dominant(nu):
            continue
        orbit = {tuple(s * c[p] for p, s in zip(perm, signs)) for perm, signs in group}
        assert weyl_orbit_size(nu) == len(orbit), c
        assert not orbit & seen, c
        seen |= orbit
    assert seen == set(box)


HALF_BOX = [F(k, 2) for k in range(-6, 7)]  # -3, -5/2, ..., 3


@pytest.mark.parametrize("series", ["D", "B"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_kernels_match_the_fraction_reference(series, n):
    # dominance, orbit sizes and Weyl dimensions run on the doubled ints;
    # every weight of the box, integral, half-integral or mixed, against the
    # Fraction-coordinate reference (the box is W-stable, so orbits stay in it)
    orbits = {}
    for c in itertools.product(HALF_BOX, repeat=n):
        nu = WeightVec(series, c)
        assert nu.twice == tuple(int(2 * x) for x in c)
        dominant = fraction_is_dominant(series, c)
        assert is_dominant(nu) == is_dominant_twice(series, nu.twice) == dominant, c
        orbit = orbits.get(c)
        if orbit is None:
            orbit = fraction_weyl_orbit(series, c)
            orbits.update(dict.fromkeys(orbit, orbit))
        assert weyl_orbit_size(nu) == weyl_orbit_size_twice(series, nu.twice) == len(orbit), c
        if dominant:
            assert weyl_dim(nu) == fraction_weyl_dim(series, c), c


@pytest.mark.parametrize("series,w,degree", [
    ("D", "0,0", 4), ("D", "1,0", 5), ("D", "1,1", 3), ("B", "1/2,1/2", 4), ("B", "1,0", 4), ("D", "1,0,0", 3),
])
def test_dominant_orbit_lookups_match_the_fraction_reference(series, w, degree):
    # the doubled slice weights whose blocks `_j_span_rank` sizes
    mod = ConformalModule(parse_weight(w, series), F(1, 3))
    for k in range(1, degree + 1):
        for nu in set(slice_weights(mod, k)):
            c = tuple(F(x, 2) for x in nu)
            want = len(fraction_weyl_orbit(series, c)) if fraction_is_dominant(series, c) else 0
            assert _dominant_orbit_size(series, nu) == want, (k, nu)


def simple_root_coefficients(series, t):
    """Coefficients of the doubled weight t in the simple roots e_i - e_(i+1)
    and e_(n-1) + e_n (D) or e_n (B), from the partial sums of its
    coordinates."""
    n = len(t)
    partial = [F(s, 2) for s in itertools.accumulate(t)]  # c_1 + ... + c_i
    if series == "B":
        return partial
    return partial[: n - 2] + [(partial[n - 2] - F(t[n - 1], 2)) / 2, partial[n - 1] / 2]


@pytest.mark.parametrize("series,n", [("D", 2), ("D", 3), ("B", 1), ("B", 2), ("B", 3)])
def test_least_dominant_weight_lies_below_its_class(series, n):
    # the least dominant weight m of t's class is dominant, t - m is a sum of
    # simple roots with nonnegative integer coefficients, and m is a weight
    # of V(t): every dominant t of the box, integral and spin
    classes = set()
    for t in itertools.product(range(-6, 7), repeat=n):
        if not is_dominant_twice(series, t):
            continue
        m = minimal_dominant_twice(series, t)
        assert is_dominant_twice(series, m), t
        coeffs = simple_root_coefficients(series, [a - b for a, b in zip(t, m)])
        assert all(c.denominator == 1 and c >= 0 for c in coeffs), (t, m, coeffs)
        mu = WeightVec.from_twice(series, t)
        if weyl_dim(mu) <= 64:
            assert m in {w.twice for w in build_irrep(mu).weights}, (t, m)
        classes.add(m)
    assert len(classes) == (4 if series == "D" else 2)


def test_twice_is_derived_and_not_compared():
    mu = parse_weight("3/2,-1/2", "D")
    assert mu.twice == (3, -1) and type(mu.twice[0]) is int
    assert WeightVec.from_twice("D", (3, -1)) == mu and str(WeightVec.from_twice("D", (3, -1))) == "3/2,-1/2"
    assert repr(mu) == "WeightVec(series='D', coords=(Fraction(3, 2), Fraction(-1, 2)))"
    assert mu.add_unit(2, 1).twice == (3, 1) and mu.add_unit(1, -1).coords == (F(1, 2), F(-1, 2))
    assert hash(mu) == hash(("D", mu.coords))  # the fields compared, as before `twice`
