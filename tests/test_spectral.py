"""Casimir matrices, split-Casimir spectra, and the invariant T operator."""

from fractions import Fraction

import pytest

from oconf import spectral
from oconf.irreps import build_irrep, omega_matrix, tensor_with_natural
from oconf.linalg import SparseMat, charpoly
from oconf.mixed import ConformalModule
from oconf.spectral import (
    central_t_matrix,
    closed_form_charpoly,
    invariant_t_matrix,
    omega_tilde_matrix,
    t_operator_sweep,
    t_scalar,
    verify_charpoly_lemma,
    verify_t_operator,
)
from oconf.weights import Spectrum, omega_tilde_spectrum, parse_weight, weyl_dim, zero_weight
import reference

F = Fraction


def test_omega_examples():
    V = build_irrep(parse_weight("1,0", "D"))
    assert omega_matrix(V) == SparseMat.identity(4).scale(3)
    V = build_irrep(zero_weight("D", 2))
    assert omega_matrix(V).is_zero()
    V = build_irrep(parse_weight("1,1", "D"))
    assert omega_matrix(V) == SparseMat.identity(3).scale(4)


def test_omega_tilde_zero_on_trivial():
    otm = omega_tilde_matrix(zero_weight("D", 2))
    assert otm.is_zero()


def test_omega_tilde_charpoly_example():
    # (t-1)^9 (t+1)^6 (t+3) for D n=2, mu = (1,0)
    otm = omega_tilde_matrix(parse_weight("1,0", "D"))
    spec = omega_tilde_spectrum(parse_weight("1,0", "D"))
    assert charpoly(otm) == closed_form_charpoly(spec)
    assert spec.entries == ((F(1), 9), (F(-1), 6), (F(-3), 1))


def test_omega_tilde_commutes_with_diagonal_action():
    mu = parse_weight("1/2,1/2", "B")
    otm = omega_tilde_matrix(mu)
    tm = tensor_with_natural(build_irrep(mu))
    for lbl, M in tm.rep.items():
        assert otm * M == M * otm, lbl


CHARPOLY_BATTERY = [
    ("D", "1,0"),
    ("D", "1,1"),
    ("D", "1,-1"),
    ("D", "2,0"),
    ("B", "1,0"),
    ("B", "1/2,1/2"),
    ("B", "1,1"),
]


@pytest.mark.parametrize("series,mus", CHARPOLY_BATTERY)
def test_charpoly_lemma_battery(series, mus):
    r = verify_charpoly_lemma(parse_weight(mus, series))
    assert r["match"], r["charpoly_computed"]
    assert r["half_difference_consistency"]
    assert r["eigenspace_dims_match_pieri"], r["eigenspace_dims"]


@pytest.mark.parametrize("series,mus", CHARPOLY_BATTERY + [("D", "2,1,0"), ("B", "1,1,1")])
def test_closed_form_matches_the_linear_factor_reference(series, mus):
    spec = omega_tilde_spectrum(parse_weight(mus, series))
    assert closed_form_charpoly(spec) == reference.closed_form_charpoly(spec)


def test_closed_form_with_mixed_denominators():
    spec = Spectrum(((F(1, 2), 2), (F(1, 3), 1), (F(-5, 6), 3)))
    closed = closed_form_charpoly(spec)
    assert closed == reference.closed_form_charpoly(spec)
    assert len(closed) == 7 and closed[-1] == 1
    assert closed[0] == F(1, 4) * F(-1, 3) * F(5, 6) ** 3


def test_charpoly_lemma_rank_three():
    r = verify_charpoly_lemma(parse_weight("1,1,0", "D"))
    assert r["ok"] and r["dim"] == 90


def test_eigenspace_dimensions_match_pieri_weyl_dims():
    from oconf.weights import pieri_decompose

    mu = parse_weight("1/2,1/2", "B")
    r = verify_charpoly_lemma(mu)
    # total-dimension identity 5*4 = 4 + 16
    assert 5 * 4 == sum(weyl_dim(w) for w in pieri_decompose(mu))
    assert r["eigenspace_dims"] == {"1/2": 16, "-2": 4}


@pytest.mark.parametrize("series", ["D", "B"])
@pytest.mark.parametrize("b", [F(0), F(1), F(-1), F(1, 3), F(7, 2)])
def test_t_operator_scalar_identity(series, b):
    mu = parse_weight("1,0", series)
    mod = ConformalModule(mu, b, slice_cap=8192)
    for k in range(0, 5):
        T = invariant_t_matrix(mod, k)
        eta_mult = mod.mult_matrix(mod.conf.eta(), k)
        assert T == eta_mult.scale(t_scalar(mod, k)), (series, b, k)


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1,0"), ("B", "1/2,1/2"), ("D", "1,0,0")])
@pytest.mark.parametrize("b", [F(0), F(1, 3), F(-11, 7)])
def test_t_assembly_matches_product_reference(series, mus, b):
    mu = parse_weight(mus, series)
    mod = ConformalModule(mu, b, slice_cap=8192)
    for k in range(4):
        T = invariant_t_matrix(mod, k)
        assert T.data == reference.t_matrix(mod, k).data, (series, mus, b, k)
        assert (T.rows, T.cols) == (mod.slice_dim(k + 2), mod.slice_dim(k))


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1,0"), ("B", "1/2,1/2")])
def test_t_is_affine_in_b(series, mus):
    # T(b) = T(b0) + (b - b0) T_C, entry for entry
    mu = parse_weight(mus, series)
    base = ConformalModule(mu, F(3, 7), slice_cap=8192)
    for k in range(4):
        T0, TC = invariant_t_matrix(base, k), central_t_matrix(base, k)
        for b in [F(0), F(1), F(-11, 7), F(3, 7)]:
            fresh = invariant_t_matrix(ConformalModule(mu, b, slice_cap=8192), k)
            assert T0.add_scaled(TC, b - base.b).data == fresh.data, (b, k)


@pytest.mark.parametrize("series", ["D", "B"])
def test_t_operator_sweep_matches_single_b_verification(series):
    mu = parse_weight("1,0", series)
    # b = 1 - k/2 (D) and b = (3 - k)/2 (B) make the predicted scalar vanish
    bs = [F(0), F(1), F(1, 3), F(-1, 2), F(1, 2)]
    for k in range(3):
        sweep = t_operator_sweep(ConformalModule(mu, F(0), slice_cap=8192), k, bs)
        assert sweep == {b: verify_t_operator(mu, b, k)["match"] for b in bs}
        assert all(sweep.values())


SWEEP_BS = [F(0), F(1), F(1, 3), F(-1, 2), F(1, 2), F(-11, 7)]


@pytest.mark.parametrize("series", ["D", "B"])
def test_t_operator_sweep_matches_fresh_modules(series):
    # the sweep compares E0 + (b - b0) E_C with zero; the reference builds
    # T and the multiple of eta whole, in a fresh module per b
    mu = parse_weight("1,0", series)
    for b0 in [F(0), F(3, 7)]:
        for k in range(3):
            sweep = t_operator_sweep(ConformalModule(mu, b0, slice_cap=8192), k, SWEEP_BS)
            assert sweep == reference.t_operator_sweep(mu, k, SWEEP_BS), (b0, k)
            assert all(sweep.values())


@pytest.mark.parametrize("series", ["D", "B"])
def test_t_operator_sweep_sees_a_wrong_scalar(series, monkeypatch):
    # the slope comes from t_scalar, so a scalar off by a constant fails at
    # every b, and one off by (b - 1) holds at b = 1 only
    mu = parse_weight("1,0", series)
    right = spectral.t_scalar
    for wrong, want in [
        (lambda mod, k: right(mod, k) + 1, {b: False for b in SWEEP_BS}),
        (lambda mod, k: right(mod, k) + mod.b - 1, {b: b == 1 for b in SWEEP_BS}),
    ]:
        monkeypatch.setattr(spectral, "t_scalar", wrong)
        for k in range(3):
            sweep = t_operator_sweep(ConformalModule(mu, F(0), slice_cap=8192), k, SWEEP_BS)
            assert sweep == want == reference.t_operator_sweep(mu, k, SWEEP_BS), k


def test_t_assembly_stores_no_action_matrix():
    # T reads only the J columns at monomials divisible by its variable
    mod = ConformalModule(parse_weight("1,0", "B"), F(1, 3), slice_cap=8192)
    for k in range(3):
        assert invariant_t_matrix(mod, k).data == reference.t_matrix(ConformalModule(mod.mu, mod.b), k).data
    assert not mod._act


@pytest.mark.parametrize("k", [-1, -3])
def test_t_operator_rejects_negative_degree(k):
    mu = parse_weight("1,0", "D")
    with pytest.raises(ValueError, match="k must be >= 0"):
        verify_t_operator(mu, F(1), k)
    with pytest.raises(ValueError, match="k must be >= 0"):
        invariant_t_matrix(ConformalModule(mu, F(1)), k)


def test_t_operator_sweep_checks_caps_before_building(monkeypatch):
    # the degree, then slice k + 1, then slice k + 2, before any monomial
    from oconf import mixed
    from oconf.irreps import CapExceeded

    def spy(nv, k):
        raise AssertionError(f"built the monomials of degree {k}")

    monkeypatch.setattr(mixed, "monomial_basis", spy)
    mu = parse_weight("1,0", "D")
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        t_operator_sweep(ConformalModule(mu, F(1)), -1, [F(1)])
    with pytest.raises(CapExceeded, match="slice dimension 52976 at degree 41 exceeds cap 8192"):
        verify_t_operator(mu, F(1), 40)
    # D(1,0): slice 3 has dim 80 and slice 4 has dim 140
    with pytest.raises(CapExceeded, match="slice dimension 140 at degree 4 exceeds cap 100"):
        t_operator_sweep(ConformalModule(mu, F(1), slice_cap=100), 2, [F(1)])


def test_verify_t_operator_reads_the_sweep():
    mu = parse_weight("1,0", "B")
    r = verify_t_operator(mu, F(1, 3), 2)
    assert r == {"mu": "1,0", "series": "B", "b": "1/3", "k": 2,
                 "scalar": str(t_scalar(ConformalModule(mu, F(1, 3)), 2)), "match": True}


def test_single_b_t_operator_builds_no_central_part(monkeypatch):
    # at the module's own b the slope term is multiplied by 0, so the verb
    # builds no T_C; the suite's sweep over three b still does
    from oconf import suite

    def spy(mod, k):
        raise AssertionError("built T_C")

    monkeypatch.setattr(spectral, "central_t_matrix", spy)
    mu = parse_weight("1,0", "B")
    assert verify_t_operator(mu, F(1, 3), 2)["match"]
    assert t_operator_sweep(ConformalModule(mu, F(1, 3)), 2, [F(1, 3), F(1, 3)]) == {F(1, 3): True}
    with pytest.raises(AssertionError, match="built T_C"):
        suite.check_t_operator()


def test_t_scalar_examples():
    # D n=2, b=1, k=0: 2b+2-2n+k = 0, so T vanishes
    mod = ConformalModule(parse_weight("1,0", "D"), F(1))
    assert t_scalar(mod, 0) == 0
    assert invariant_t_matrix(mod, 0).is_zero()
    # D n=2, b=2, k=1: scalar 3; B n=2, b=2, k=1: scalar 2
    assert t_scalar(ConformalModule(parse_weight("1,0", "D"), F(2)), 1) == 3
    assert t_scalar(ConformalModule(parse_weight("1,0", "B"), F(2)), 1) == 2


def test_t_operator_on_spin_module():
    r = verify_t_operator(parse_weight("1/2,1/2", "B"), F(1, 3), 2)
    assert r["match"]
