"""Casimir matrices, split-Casimir spectra, and the invariant T operator."""

from collections import Counter
from fractions import Fraction

import pytest

from oconf import spectral
from oconf.irreps import IrrepData, build_irrep, casimir_matrix, omega_matrix
from oconf.linalg import SparseMat, charpoly
from oconf.mixed import ConformalModule
from oconf.ortho import casimir_terms
from oconf.poly import DiffOp, Poly
from oconf.spectral import (
    closed_form_charpoly,
    omega_tilde_matrix,
    t_identity,
    t_scalar,
    tensor_casimir,
    verify_charpoly_lemma,
    verify_t_operator,
)
from oconf.weights import Spectrum, omega_tilde_spectrum, parse_weight, weyl_dim, zero_weight
import reference
from reference import tensor_with_natural

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


# the suite's eight charpoly weights, the trivial modules and spin weights
FACTOR_WEIGHTS = [("D", "1,0"), ("D", "1,1"), ("D", "1,-1"), ("D", "2,0"), ("B", "1,0"), ("B", "1/2,1/2"),
                  ("D", "1,1,0"), ("B", "1,1"), ("D", "0,0"), ("B", "0"), ("D", "1/2,1/2"), ("D", "1/2,-1/2"),
                  ("B", "1/2,1/2,1/2")]


@pytest.mark.parametrize("series,mus", FACTOR_WEIGHTS)
def test_tensor_casimir_equals_the_casimir_of_the_tensor_matrices(series, mus):
    # assembled from the two factors against the Casimir of one tensor-space
    # matrix per generator: the same entries, each of the same type
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    tm = tensor_with_natural(V)
    want = casimir_matrix(V.basis, tm.rep, tm.dim)
    got = tensor_casimir(V, omega_tilde_matrix(mu))
    assert (got.rows, got.cols) == (want.rows, want.cols) and got.data == want.data
    assert {k: type(v) for k, v in got.data.items()} == {k: type(v) for k, v in want.data.items()}
    assert verify_charpoly_lemma(mu)["half_difference_consistency"]


@pytest.mark.parametrize("series,mus,label", [("D", "1,0", "E_{1,1}-E_{3,3}"), ("B", "1/2,1/2", "E_{0,3}-E_{1,0}"),
                                              ("D", "1,1,0", "E_{1,2}-E_{5,4}")])
def test_a_bent_factor_matrix_breaks_the_half_difference_identity(monkeypatch, series, mus, label):
    # one entry of one generator of V(mu) moved by 1: the tensor Casimir is
    # assembled from the bent matrices and no longer differs from twice the
    # split Casimir by the two scalars
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    M = V.rep[label]
    key = next(iter(M.data)) if M.data else (0, 0)
    bent = dict(V.rep, **{label: M + SparseMat(M.rows, M.cols, {key: 1})})
    monkeypatch.setattr(spectral, "build_irrep", lambda w: IrrepData(w, V.dim, V.weights, bent, V.highest, V.basis))
    assert verify_charpoly_lemma(mu)["half_difference_consistency"] is False


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2"), ("D", "1,1,0")])
def test_the_mirror_cross_terms_are_computed(monkeypatch, series, mus):
    # casimir_terms is symmetric, so the mirror sum of W(b) (x) V(a) equals
    # the split Casimir; it is still formed as products of its own, each
    # (W matrix, V(mu) matrix) pair twice in all
    mu = parse_weight(mus, series)
    V = build_irrep(mu)
    w_ids = {id(V.basis.matrix(i)): el.label for i, el in enumerate(V.basis.elements)}
    v_ids = {id(M): label for label, M in V.rep.items()}
    seen, kron = Counter(), SparseMat.kron

    def spy(left, right):
        if id(left) in w_ids and id(right) in v_ids:
            seen[w_ids[id(left)], v_ids[id(right)]] += 1
        return kron(left, right)

    monkeypatch.setattr(SparseMat, "kron", spy)
    assert verify_charpoly_lemma(mu)["ok"]
    terms = casimir_terms(V.basis.m)
    assert seen == Counter((a, b) for a, b, _ in terms) + Counter((b, a) for a, b, _ in terms)


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


@pytest.mark.parametrize("series,n", [("D", 2), ("D", 3), ("D", 4), ("B", 1), ("B", 2), ("B", 3)])
def test_t_identity_holds(series, n):
    assert t_identity(n, series)


@pytest.mark.parametrize("series", ["D", "B"])
@pytest.mark.parametrize("b", [F(0), F(1), F(-1), F(1, 3), F(7, 2)])
def test_t_operator_scalar_identity(series, b):
    # n = 2: the scalar is 2b + 2 - 2n + k (D) or 2b - 2n + k + 1 (B)
    mu = parse_weight("1,0", series)
    for k in range(0, 5):
        r = verify_t_operator(mu, b, k)
        assert r["match"] is True and r["scalar"] == str(2 * b + k - (2 if series == "D" else 3)), (series, b, k)


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1,0"), ("B", "1/2,1/2"), ("D", "1,0,0")])
@pytest.mark.parametrize("b", [F(0), F(1, 3), F(-11, 7)])
def test_t_assembly_matches_product_reference(series, mus, b):
    # end to end: T as whole J matrices of the module times x
    # multiplications is t_scalar times eta, as the identity proves
    mod = ConformalModule(parse_weight(mus, series), b)
    for k in range(4):
        eta = mod.mult_matrix(mod.conf.eta(), k)
        assert reference.t_matrix(mod, k) == eta.scale(t_scalar(mod, k)), (series, mus, b, k)


SWEEP_BS = [F(0), F(1), F(1, 3), F(-1, 2), F(1, 2), F(-11, 7)]


@pytest.mark.parametrize("series", ["D", "B"])
def test_t_operator_sweep_sees_a_wrong_scalar(series, monkeypatch):
    # the verb swept over b agrees with whole matrices in a fresh module per
    # b: a scalar off by a constant or by (b - 1) fails t_identity, which
    # reads t_scalar at b = 0, 1; one off by b (b - 1) passes it, and the
    # verb, which checks its own b too, still fails at every other b
    mu = parse_weight("1,0", series)
    right = spectral.t_scalar
    for wrong, identity, want in [
        (lambda mod, k: right(mod, k) + 1, False, {b: False for b in SWEEP_BS}),
        (lambda mod, k: right(mod, k) + mod.b - 1, False, {b: b == 1 for b in SWEEP_BS}),
        (lambda mod, k: right(mod, k) + mod.b * (mod.b - 1), True, {b: b in (0, 1) for b in SWEEP_BS}),
    ]:
        monkeypatch.setattr(spectral, "t_scalar", wrong)
        for n in ([2, 3, 4] if series == "D" else [1, 2, 3]):
            assert t_identity(n, series) is identity, n
        for k in range(3):
            got = {b: verify_t_operator(mu, b, k)["match"] for b in SWEEP_BS}
            assert got == want == reference.t_operator_sweep(mu, k, SWEEP_BS), k


@pytest.fixture
def fresh_t_form():
    # _t_form is cached per rank: a patched T is proved afresh, and forgotten
    spectral._t_form.cache_clear()
    yield
    spectral._t_form.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_identity_needs_the_j0_term(n, monkeypatch, fresh_t_form):
    right = spectral._t_terms
    monkeypatch.setattr(spectral, "_t_terms", lambda n, series: [t for t in right(n, series) if t[0] != "J_0"])
    assert not t_identity(n, "B")


# Each bend below changes one part of T only, away from the monomial of eta
# that `_t_form` reads its scalars at (x_1 x_3 for D n=2, x_0^2 for B n=1),
# so only the check of that part can see it.
BENT_RANKS = [("D", 2), ("B", 1)]


@pytest.mark.parametrize("series,n", BENT_RANKS)
def test_t_identity_needs_the_orthogonal_parts_to_cancel(series, n, monkeypatch, fresh_t_form):
    # one more o(n) coefficient in J_1's first monomial: V(mu) no longer drops out
    right = spectral._split

    def split(n, series, label):
        out = list(right(n, series, label))
        if label == "J_1":
            e, c, coeffs = out[0]
            out[0] = (e, c, {**coeffs, 0: coeffs.get(0, 0) + 1})
        return out

    monkeypatch.setattr(spectral, "_split", split)
    assert not t_identity(n, series)


@pytest.mark.parametrize("series,n", BENT_RANKS)
def test_t_identity_needs_the_central_part_on_eta(series, n, monkeypatch, fresh_t_form):
    # J_n's central coefficients doubled: b enters off the line of eta
    right = spectral._split
    label_n = f"J_{n}"
    monkeypatch.setattr(spectral, "_split", lambda n, series, label: [
        (e, 2 * c if label == label_n else c, coeffs) for e, c, coeffs in right(n, series, label)])
    assert not t_identity(n, series)


@pytest.mark.parametrize("series,n", BENT_RANKS)
def test_t_identity_needs_the_field_part_on_eta(series, n, monkeypatch, fresh_t_form):
    # J_n plus multiplication by the first variable: T's field part gains
    # the product of that variable with x_{2n}, which eta does not contain
    conf = spectral.build_conformal(n, series)
    x = DiffOp.mult(Poly.var(conf.num_vars, 0))

    class Bent:
        def __getattr__(self, name):
            return getattr(conf, name)

        def op(self, label):
            return conf.op(label) + x if label == f"J_{n}" else conf.op(label)

    monkeypatch.setattr(spectral, "build_conformal", lambda n, series: Bent())
    assert not t_identity(n, series)


@pytest.mark.parametrize("k", [-1, -3])
def test_t_operator_rejects_negative_degree(k):
    mu = parse_weight("1,0", "D")
    with pytest.raises(ValueError, match="k must be >= 0"):
        verify_t_operator(mu, F(1), k)


def test_verify_t_operator_reads_the_identity(monkeypatch):
    # no slice is built, however high k is
    from oconf import mixed

    def spy(nv, k):
        raise AssertionError(f"built the monomials of degree {k}")

    mu = parse_weight("1,0", "B")
    scalar = str(t_scalar(ConformalModule(mu, F(1, 3)), 2))
    monkeypatch.setattr(mixed, "monomial_basis", spy)
    r = verify_t_operator(mu, F(1, 3), 2)
    assert r == {"mu": "1,0", "series": "B", "b": "1/3", "k": 2, "scalar": scalar, "match": True}
    assert verify_t_operator(mu, F(1, 3), 400)["match"]


def test_t_scalar_examples():
    # D n=2, b=1, k=0: 2b+2-2n+k = 0, so T vanishes
    mod = ConformalModule(parse_weight("1,0", "D"), F(1))
    assert t_scalar(mod, 0) == 0
    assert reference.t_matrix(mod, 0).is_zero()
    # D n=2, b=2, k=1: scalar 3; B n=2, b=2, k=1: scalar 2
    assert t_scalar(ConformalModule(parse_weight("1,0", "D"), F(2)), 1) == 3
    assert t_scalar(ConformalModule(parse_weight("1,0", "B"), F(2)), 1) == 2


def test_t_operator_on_spin_module():
    r = verify_t_operator(parse_weight("1/2,1/2", "B"), F(1, 3), 2)
    assert r["match"]
