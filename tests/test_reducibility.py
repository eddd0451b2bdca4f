"""Irreducibility scans, submodule witnesses, harmonics, classification."""

import json
import random
from fractions import Fraction
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest

from oconf import reducibility
from oconf.linalg import EchelonBasis, SparseMat, nullspace_of_rows, rank_of_rows, vectors_contained_in_span
from oconf.mixed import ConformalModule
from oconf.ortho import build_conformal
from oconf.poly import Poly
from oconf.reducibility import (
    SubmoduleWitness,
    _dominant_dims,
    _dominant_orbit_size,
    _j_span_rank,
    classify_b,
    detect_submodule,
    harmonic_decompose,
    laplacian_eta_commutator,
    surjectivity_scan,
    verify_submodule_closure,
)
from oconf.spectral import omega_tilde_matrix, verify_t_operator
from oconf.weights import minimal_dominant_twice, natural_dim, omega_tilde_spectrum, parse_weight, zero_weight
import reference

F = Fraction


# each entry point that takes a central charge from a caller
FLOAT_B_CALLS = {
    "scan": lambda mu: surjectivity_scan(mu, 0.1, 2),
    "detect-submodule": lambda mu: detect_submodule(ConformalModule(mu, 0.5), 2),
    "t-operator": lambda mu: verify_t_operator(mu, 0.5, 1),
    "classify": lambda mu: classify_b(mu, 0.1),
}


@pytest.mark.parametrize("name", sorted(FLOAT_B_CALLS))
def test_a_float_central_charge_is_refused(name):
    # a float's binary value is not the b it was written for: 0.1 read
    # exactly is 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        FLOAT_B_CALLS[name](parse_weight("1,0", "D"))


def test_exact_central_charges_are_accepted_in_every_form():
    mu = parse_weight("1,0", "D")
    for b, want in ((1, 1), (F(2, 2), 1), (F(1, 3), F(1, 3)), ("1/3", F(1, 3)), ("-2", -2)):
        got = ConformalModule(mu, b).b
        assert got == want and type(got) is type(want), b
        assert surjectivity_scan(mu, b, 1).b == want
        assert classify_b(mu, b).describe() == classify_b(mu, want).describe()
    assert [classify_b(mu, b).status for b in (1, "1/2", F(1, 3))] == ["excluded", "excluded", "generic"]


def test_scan_generic_full_rank():
    r = surjectivity_scan(parse_weight("1,0", "D"), F(1, 3), 4)
    assert r.verdict == "irreducible-up-to-4"
    assert [(rec.k, rec.dim, rec.rank) for rec in r.records] == [
        (1, 16, 16),
        (2, 40, 40),
        (3, 80, 80),
        (4, 140, 140),
    ]
    assert r.phi_eigenvalues_k1 == [(F(4, 3), 9), (F(-2, 3), 6), (F(-8, 3), 1)]


def test_scan_detects_degree_one_deficiency():
    r = surjectivity_scan(parse_weight("1,0", "D"), F(3), 2)
    assert r.verdict == "proper-submodule-found"
    assert r.records[0].rank == 15 and r.records[0].dim == 16


def test_scan_spin_weight_generic():
    r = surjectivity_scan(parse_weight("1/2,1/2", "B"), F(1, 4), 3)
    assert r.verdict == "irreducible-up-to-3"
    assert all(rec.full for rec in r.records)


def test_critical_b_witness_for_nonzero_mu():
    # at b = 3 the phi eigenvalue b - 3 vanishes on the trivial Pieri summand
    # and the generated submodule misses one dimension at degree 1
    w = detect_submodule(ConformalModule(parse_weight("1,0", "D"), F(3)), 2)
    assert w is not None
    assert w.dims[0] == (4, 4) and w.dims[1] == (15, 16)
    assert verify_submodule_closure(w)["ok"]


def test_scan_critical_b_without_deficiency_is_flagged():
    # b in the excluded half-ladder but phi spectrum has no zero at low degree:
    # D n=2 mu=(1,0), b = 1/2 lies in 1 - N/2; eigenvalues 1/2 + {1,-1,-3}
    # are nonzero so degree 1 stays full; the verdict reports critical-b.
    r = surjectivity_scan(parse_weight("1,0", "D"), F(1, 2), 2)
    assert all(rec.full for rec in r.records)
    assert r.verdict == "critical-b"


def test_generic_sample_consistency():
    # the generic points of the old default b sweep must scan full-rank
    for mu, deg in [(parse_weight("1,0", "D"), 3), (parse_weight("1/2,1/2", "B"), 2)]:
        for b in [F(1, 3), F(7, 2)]:
            assert classify_b(mu, b).status == "generic"
            r = surjectivity_scan(mu, b, deg)
            assert all(rec.full for rec in r.records), (str(mu), b)


@pytest.mark.parametrize("series", ["D", "B"])
def test_mu_zero_necessity_direction(series):
    # b in -N really is reducible (this direction of the classification holds)
    mu0 = zero_weight(series, 2)
    for b in [F(0), F(-1), F(-2)]:
        w = detect_submodule(ConformalModule(mu0, b), 3)
        assert w is not None and w.is_proper(), (series, b)
        assert classify_b(mu0, b).status == "excluded"


def test_mu_zero_truly_irreducible_values():
    # values outside -N *and* outside the special conformal weights
    # ({1..n-1} for D, {1/2..n-1/2} for B at n=2) generate everything
    for b in [F(2), F(1, 2), F(-1, 2), F(5, 2)]:
        assert detect_submodule(ConformalModule(zero_weight("D", 2), b), 3) is None, b
    for b in [F(1), F(2), F(-1, 2), F(5, 2)]:
        assert detect_submodule(ConformalModule(zero_weight("B", 2), b), 3) is None, b


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="stated classification is refuted at the special conformal weight "
    "b = n-1 = 1: U(J)(1 (x) v0) is a proper submodule although 1 is not in -N",
)
def test_mu_zero_stated_iff_at_b_one():
    # the sharp classification as stated: irreducible whenever b not in -N
    assert detect_submodule(ConformalModule(zero_weight("D", 2), F(1)), 3) is None


def test_mu_zero_special_weight_counterexamples():
    # machine-certified refutations of the stated mu=0 classification:
    # the generated submodule is proper and closed under every generator
    w = detect_submodule(ConformalModule(zero_weight("D", 2), F(1)), 3)
    assert w.dims == {0: (1, 1), 1: (4, 4), 2: (9, 10), 3: (16, 20)}
    assert verify_submodule_closure(w)["ok"]
    w = detect_submodule(ConformalModule(zero_weight("B", 2), F(3, 2)), 2)
    assert w.dims[2] == (14, 15)
    w = detect_submodule(ConformalModule(zero_weight("B", 2), F(1, 2)), 4)
    assert w.dims[4] == (69, 70)
    assert all(w.dims[k][0] == w.dims[k][1] for k in range(4))
    # classify_b follows the stated theorem sets, so it disagrees here; the
    # scan verdict reports the truth
    assert classify_b(zero_weight("D", 2), F(1)).status == "generic"
    assert surjectivity_scan(zero_weight("D", 2), F(1), 2).verdict == "proper-submodule-found"


def test_mu_zero_special_weights_at_rank_three():
    # the special-weight family b = n-r (gap at degree 2r) persists at n=3
    mu0 = zero_weight("D", 3)
    w = detect_submodule(ConformalModule(mu0, F(2)), 2)
    assert w.dims[2] == (20, 21)
    w = detect_submodule(ConformalModule(mu0, F(1)), 4)
    assert w.dims[2] == (21, 21) and w.dims[3] == (56, 56) and w.dims[4] == (125, 126)
    assert detect_submodule(ConformalModule(mu0, F(3)), 3) is None  # b = n generates everything


def test_mu_zero_b_zero_gap_is_final():
    # certify mechanically that the 34-dimensional degree-4 component of the
    # quotient-generated submodule can never grow: the degree-5 component it
    # generates flows back inside itself under every translation
    mod = ConformalModule(zero_weight("D", 2), F(0))
    s4 = []
    for lbl in mod.j_labels:
        s4.extend(v for v in mod.action_matrix(lbl, 3).col_vectors() if v)
    assert rank_of_rows(s4) == 34
    s5 = []
    for lbl in mod.j_labels:
        M = mod.action_matrix(lbl, 4)
        s5.extend(M.apply(v) for v in s4)
    s5 = [v for v in s5 if v]
    back = []
    for lbl in [f"d_{r}" for r in range(1, 5)]:
        M = mod.action_matrix(lbl, 5)
        back.extend(M.apply(v) for v in s5)
    back = [v for v in back if v]
    assert vectors_contained_in_span(back, s4)
    # rotations preserve it as well
    for lbl in ["A_{1,1}", "A_{1,2}", "A_{2,1}", "A_{2,2}", "B_{1,2}", "C_{1,2}"]:
        M = mod.action_matrix(lbl, 4)
        imgs = [M.apply(v) for v in s4]
        assert vectors_contained_in_span([v for v in imgs if v], s4)


def test_mu_zero_b_zero_constants_line():
    w = detect_submodule(ConformalModule(zero_weight("D", 2), F(0)), 4)
    assert w.dims[0] == (1, 1)
    for k in range(1, 5):
        assert w.dims[k][0] == 0
    # the degree-one slice is an irreducible rotation module: any nonzero
    # vector generates it under the orthogonal action
    mod = w.module
    flats = [mod.action_matrix(l, 1) for l in ["A_{1,1}", "A_{1,2}", "A_{2,1}", "A_{2,2}", "B_{1,2}", "C_{1,2}"]]
    seed = {0: F(1)}
    span = [seed]
    changed = True
    while changed:
        changed = False
        for M in flats:
            for v in list(span):
                img = M.apply(v)
                if img and not vectors_contained_in_span([img], span):
                    span.append(img)
                    changed = True
    assert rank_of_rows(span) == 4


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quotient A/C at b=0 is NOT irreducible for the D series at n=2: "
    "the submodule generated by A_1 misses the eta^2 line at degree 4",
)
def test_mu_zero_b_zero_quotient_full_rank_as_stated():
    # the scan's records 2..4 are the quotient's (see the test below)
    r = surjectivity_scan(zero_weight("D", 2), F(0), 4)
    assert all(rec.full for rec in r.records[1:])


def test_mu_zero_b_zero_quotient_truth():
    # D series: the quotient's minimal submodule stalls at 34/35 in degree 4.
    # This is final, not a truncation artifact: by PBW, U(g) = U(J) U(l) U(d)
    # with l = o(n) + D, and the seed A_1 is l-stable, so the submodule is
    # U(J) U(d)(A_1) = U(J)(A_1) (the d's take A_1 to the constants, which J
    # kills at b = 0), whose degree-4 part is J(degree-3 part) = J(A_3): no
    # path through a higher degree adds to it.  While the degrees below are
    # full, the scan's record k is the rank of that part.
    r = surjectivity_scan(zero_weight("D", 2), F(0), 4)
    assert [(rec.rank, rec.dim) for rec in r.records[1:]] == [(10, 10), (20, 20), (34, 35)]
    # B series: no break at integer b (the T scalar 2b-2n+k+1 is odd), so the
    # quotient really is generated to degree 4
    r = surjectivity_scan(zero_weight("B", 2), F(0), 4)
    assert all(rec.full for rec in r.records[1:])


@pytest.mark.parametrize("series,n,deg", [("D", 2, 4), ("B", 2, 4), ("D", 3, 4)])
def test_mu_zero_b_zero_scan_reads_the_quotient(series, n, deg):
    # the suite reads the b=0 quotient off the scan: records 2..deg are the
    # full-pass dims of the submodule that slice 1 generates (B n=3 to
    # degree 3 is a case of the test below)
    mu0 = zero_weight(series, n)
    want = reference.generation_closure_scan(ConformalModule(mu0, F(0)), deg)
    got = {rec.k: (rec.rank, rec.dim) for rec in surjectivity_scan(mu0, F(0), deg).records}
    assert {k: got[k] for k in range(2, deg + 1)} == {k: want[k] for k in range(2, deg + 1)}
    if (series, n) == ("D", 2):
        assert got[4] == (34, 35)


def test_mu_zero_b_minus_one_eta_line():
    # at b=-1 the image at degree 2 collapses to the line through eta
    w = detect_submodule(ConformalModule(zero_weight("D", 2), F(-1)), 3)
    assert w.dims[1] == (4, 4) and w.dims[2] == (1, 10) and w.dims[3] == (0, 20)
    (vec,) = w.basis[2]
    eta = w.module.conf.eta()
    idx = w.module.mono_index(2)
    eta_vec = {idx[e]: c for e, c in eta.terms.items()}
    scale = None
    for k, v in vec.items():
        assert k in eta_vec
        s = F(v) / eta_vec[k]
        scale = s if scale is None else scale
        assert s == scale


@pytest.mark.parametrize(
    "series,b",
    [("D", F(0)), ("D", F(-1)), ("B", F(0)), ("B", F(-2))],
)
def test_submodule_witness_closed_under_all_generators(series, b):
    w = detect_submodule(ConformalModule(zero_weight(series, 2), b), 3)
    assert w is not None
    rep = verify_submodule_closure(w)
    assert rep["ok"], rep


@pytest.mark.parametrize(
    "series,mus,b",
    [(s, "0,0", b) for s in ["D", "B"] for b in [F(0), F(-1), F(1, 2)]]
    + [("D", "1,0", F(0)), ("D", "1,0", F(3))]
    + [("D", "0,0,0", F(0)), ("B", "0,0,0", F(0)), ("B", "1/2,1/2", F(-1)), ("B", "1,0", F(-1))],
)
def test_closure_scan_matches_the_full_pass_reference(series, mus, b):
    # by PBW the submodule that slice 1 generates is U(J)(slice 1) above
    # degree 0, so while it fills every slice below k, its degree-k part is
    # J(slice k-1): the scan's record k equals the full-pass dims there
    mu = parse_weight(mus, series)
    want = reference.generation_closure_scan(ConformalModule(mu, b), 3)
    assert all(want[k][0] == want[k][1] for k in (0, 1))  # the d's take slice 1 onto slice 0
    for rec in surjectivity_scan(mu, b, 3).records[1:]:
        assert (rec.rank, rec.dim) == want[rec.k], rec.k
        if not rec.full:
            break


@pytest.mark.parametrize("series,mus,b,deg", [
    *[(s, "0,0", b, 4 if b == F(1, 2) else 3)
      for s in ["D", "B"] for b in [F(0), F(-1), F(-2), F(1), F(1, 2), F(3, 2)]],
    ("D", "1,0", F(3), 2), ("D", "0,0,0", F(1), 4), ("D", "0,0,0", F(2), 2),
])
def test_detection_matches_the_phi_column_reference(series, mus, b, deg):
    # the PBW pass from slice 0 spans what the columns of phi span, slice by
    # slice, and the witness lives in the module it was given
    mod = ConformalModule(parse_weight(mus, series), b)
    want = reference.phi_column_submodule(mod, deg)
    w = detect_submodule(mod, deg)
    if w is None:
        assert all(len(want[k]) == mod.slice_dim(k) for k in want), (series, mus, b)
        return
    assert w.module is mod and w.max_degree == deg
    assert w.dims == {k: (len(vecs), mod.slice_dim(k)) for k, vecs in want.items()}
    for k, vecs in want.items():
        assert len(w.basis[k]) == len(vecs) and vectors_contained_in_span(w.basis[k], vecs), k


@pytest.mark.parametrize("generate", [detect_submodule])
def test_generation_rejects_a_negative_degree(generate):
    mod = ConformalModule(zero_weight("D", 2), F(1))
    with pytest.raises(ValueError, match="max degree must be at least 0, got -1"):
        generate(mod, -1)


@pytest.mark.parametrize("generate", [detect_submodule])
def test_generation_checks_slice_cap_before_any_degree(generate, monkeypatch):
    # D mu=0: slice 4 has dim 35, over a cap of 20; no slice may be built
    from oconf import mixed
    from oconf.irreps import CapExceeded

    def spy(nv, k):
        raise AssertionError(f"built the monomials of degree {k}")

    mod = ConformalModule(zero_weight("D", 2), F(1))
    monkeypatch.setattr(mixed, "DEFAULT_SLICE_CAP", 20)
    monkeypatch.setattr(mixed, "monomial_basis", spy)
    with pytest.raises(CapExceeded, match="slice dimension 35 at degree 4 exceeds cap 20"):
        generate(mod, 4)


def test_closure_check_reports_a_missing_basis_vector():
    # the B mu=0 witness at b=1/2 is closed; without one degree-3 vector
    # it is not, and the labels that fail are those of a fresh span per
    # (label, degree)
    w = detect_submodule(ConformalModule(zero_weight("B", 2), F(1, 2)), 4)
    assert verify_submodule_closure(w)["ok"] and not reference.submodule_closure_failures(w)
    broken = SubmoduleWitness(w.module, w.max_degree, w.dims, {**w.basis, 3: w.basis[3][:-1]})
    rep = verify_submodule_closure(broken)
    failing = {lbl for lbl, good in rep.items() if lbl != "ok" and not good}
    assert rep["ok"] is False
    assert failing == reference.submodule_closure_failures(broken)
    assert failing and len(failing) < len(w.module.conf.labels())


@pytest.mark.parametrize("degree", [1, 4])
def test_closure_check_matches_the_reference_on_a_broken_witness(degree):
    # without one vector of slice 1 (full in the witness) or of slice 4
    # (69 of 70), the failing labels are those of a fresh span per
    # (label, degree), label by label
    w = detect_submodule(ConformalModule(zero_weight("B", 2), F(1, 2)), 4)
    broken = SubmoduleWitness(w.module, w.max_degree, w.dims, {**w.basis, degree: w.basis[degree][:-1]})
    rep = verify_submodule_closure(broken)
    failing = reference.submodule_closure_failures(broken)
    assert rep == {**{lbl: lbl not in failing for lbl in w.module.conf.labels()}, "ok": not failing}
    assert failing and len(failing) < len(w.module.conf.labels())


def _closure_witness(series, mus, b, deg):
    """detect_submodule's witness, or, where the submodule fills every slice,
    the whole truncation (one unit vector per basis index)."""
    mod = ConformalModule(parse_weight(mus, series), b)
    w = detect_submodule(mod, deg)
    if w is None:
        dims = {k: (mod.slice_dim(k),) * 2 for k in range(deg + 1)}
        w = SubmoduleWitness(mod, deg, dims, {k: [{i: 1} for i in range(d)] for k, (d, _) in dims.items()})
    return w


def _broken_bases(w):
    """The witness's basis broken three ways, by name: the top nonempty
    slice without its last vector; the top slice the witness does not fill
    with the first unit vector outside it added; the top slice of
    codimension one swapped for another hyperplane."""
    top = max(k for k, vecs in w.basis.items() if vecs)
    out = {"dropped": {**w.basis, top: w.basis[top][:-1]}}
    short = [k for k, (r, d) in w.dims.items() if r < d]
    if short:
        t = short[-1]
        span = EchelonBasis(w.basis[t])
        foreign = next({i: 1} for i in range(w.dims[t][1]) if not span.contains({i: 1}))
        out["foreign"] = {**w.basis, t: w.basis[t] + [foreign]}
    planes = [k for k, (r, d) in w.dims.items() if r == d - 1]
    if planes:
        t = planes[-1]
        (f,) = nullspace_of_rows(w.basis[t], w.dims[t][1])  # W_t = ker f
        j = 1 if set(f) == {0} else 0  # f + e_j^* is no multiple of f
        g = {**f, j: f.get(j, 0) + 1}
        out["swapped"] = {**w.basis, t: nullspace_of_rows([g], w.dims[t][1])}
    return out


ALL_BREAKS = {"dropped", "foreign", "swapped"}


@pytest.mark.parametrize("series,mus,b,deg,breaks", [
    ("D", "1,0", F(3), 2, ALL_BREAKS), ("D", "0,0,0", F(1), 4, ALL_BREAKS),
    ("B", "1/2,1/2", F(-1), 2, {"dropped"}), ("D", "0,0", F(0), 3, {"dropped", "foreign"}),
])
def test_closure_check_matches_the_reference_on_broken_witnesses(series, mus, b, deg, breaks):
    # label by label, the annihilator test agrees with a fresh span per
    # (label, degree): on the witness (D(1,0) at b=3, D mu=0 at b=1 and n=3,
    # the whole truncation of B(1/2,1/2) at b=-1, the constants line of D
    # mu=0 at b=0, whose top slice is empty) and on each broken copy
    w = _closure_witness(series, mus, b, deg)
    broken = _broken_bases(w)
    assert set(broken) == breaks
    labels = w.module.conf.labels()
    closed = {}
    for name, basis in [("witness", w.basis), *broken.items()]:
        bw = SubmoduleWitness(w.module, deg, w.dims, basis)
        failing = reference.submodule_closure_failures(bw)
        assert verify_submodule_closure(bw) == {**{lbl: lbl not in failing for lbl in labels}, "ok": not failing}, name
        closed[name] = not failing
    assert closed["witness"] and not all(closed.values())


@pytest.mark.parametrize("series,mus", [("D", "0,0"), ("B", "0,0"), ("D", "1,0"), ("B", "1/2,1/2")])
def test_detection_finds_nothing_iff_the_scan_is_full(series, mus):
    # U(J)(1 (x) V(mu)) fills the degrees up to K iff J(slice k-1) = slice k
    # for every k <= K, at every half-integral b in [-3, 3]
    mu = parse_weight(mus, series)
    deficient = 0
    for b in [F(p, 2) for p in range(-6, 7)]:
        mod = ConformalModule(mu, b)
        records = surjectivity_scan(mu, b, 4).records
        for K in range(1, 5):
            full = all(rec.full for rec in records[:K])
            assert (detect_submodule(mod, K) is None) == full, (b, K)
            deficient += not full
    assert deficient  # both sides of the equivalence are met


class _SpyModule:
    """A module that records every action matrix asked of it."""

    def __init__(self, mod):
        self._mod = mod
        self.asked = []

    def __getattr__(self, name):
        return getattr(self._mod, name)

    def action_matrix(self, label, k):
        self.asked.append((label, k))
        return self._mod.action_matrix(label, k)


def test_closure_check_computes_no_image_into_a_full_slice(monkeypatch):
    # the suite's three closure witnesses: a target slice the witness fills
    # asks for no matrix; into the others, each annihilating functional is
    # pulled back through the matrix once and no image is formed
    functionals = []
    nullspace = reducibility.nullspace_of_rows

    def counted(rows, ncols):
        out = nullspace(rows, ncols)
        functionals.append(len(out))
        return out

    def no_image(self, vecs):
        raise AssertionError("formed an image")

    witnesses = [detect_submodule(ConformalModule(zero_weight(series, 2), b), deg)
                 for series, b, deg in [("D", F(1), 2), ("B", F(3, 2), 2), ("B", F(1, 2), 4)]]
    monkeypatch.setattr(reducibility, "nullspace_of_rows", counted)
    monkeypatch.setattr(SparseMat, "apply_all", no_image)
    asked = pullbacks = 0
    for w in witnesses:
        spy = _SpyModule(w.module)
        assert verify_submodule_closure(SubmoduleWitness(spy, w.max_degree, w.dims, w.basis))["ok"]
        assert len(set(spy.asked)) == len(spy.asked)
        for label, k in spy.asked:
            kt = k + spy.degree_shift(label)
            assert w.dims[kt][0] < w.dims[kt][1], (w.module.b, label, k)
            pullbacks += w.dims[kt][1] - w.dims[kt][0]  # |F_kt|, one pull-back each
        asked += len(spy.asked)
    # one hyperplane per witness, at its top degree: 3 functionals, and one
    # pull-back per matrix (the images of the witness vectors number 1,192)
    assert (asked, sum(functionals), pullbacks) == (43, 3, 43)


@pytest.mark.parametrize("series,mus,b,deg", [
    ("D", "0,0", F(0), 4), ("B", "0,0", F(0), 4), ("D", "1,0", F(1), 3),
])
def test_closure_scan_asks_only_for_pbw_ordered_matrices(series, mus, b, deg):
    # U(J)(slice 0) is the whole submodule: detection raises by J below
    # max_degree, and never applies d, o(n) or D
    mod = ConformalModule(parse_weight(mus, series), b)
    spy = _SpyModule(mod)
    w = detect_submodule(spy, deg)
    want = {k: (len(vecs), mod.slice_dim(k)) for k, vecs in reference.phi_column_submodule(mod, deg).items()}
    assert w.dims == want if w else all(r == d for r, d in want.values())
    assert spy.asked
    for label, k in spy.asked:
        assert label in mod.j_labels and k < deg, (label, k)


def test_eta_multiple_lands_in_j_span():
    # for b with 2b+1-2n+l != 0: eta * (slice l-1) lies in sum_i J_i(slice l)
    mu = parse_weight("1,0", "D")
    mod = ConformalModule(mu, F(1, 3))
    for level in [1, 2, 3]:
        eta_mult = mod.mult_matrix(mod.conf.eta(), level - 1)
        eta_vecs = [v for v in eta_mult.col_vectors() if v]
        j_vecs = []
        for lbl in mod.j_labels:
            j_vecs.extend(v for v in mod.action_matrix(lbl, level).col_vectors() if v)
        assert vectors_contained_in_span(eta_vecs, j_vecs), level


@pytest.mark.parametrize("series,mus", [("D", "1,0"), ("B", "1/2,1/2")])
def test_special_conformal_action_identity(series, mus):
    # J_i(g (x) v) + eta d_{i'}(g) (x) v = g * [(l + b + split-Casimir)(x_i (x) v)]
    rng = random.Random(23)
    mu = parse_weight(mus, series)
    b = F(1, 3)
    mod = ConformalModule(mu, b)
    otm = omega_tilde_matrix(mu)
    n, nv = mod.n, mod.num_vars
    for level in [1, 2]:
        monos = mod.monomials_of(level)
        shifted = SparseMat.identity(otm.rows).scale(b + level) + otm
        for _ in range(6):
            g = monos[rng.randrange(len(monos))]
            r = rng.randrange(mod.dim_v)
            i = rng.randrange(nv)  # variable position of x_i
            label = i + 1 if series == "D" else i
            if label == 0:
                partner = 0  # J_0 pairs x_0 with itself
            else:
                partner = label + n if label <= n else label - n
            jlbl = f"J_{label}"
            src = _index(mod, level, g, r)
            lhs = mod.action_matrix(jlbl, level).apply({src: F(1)})
            dg = Poly.monomial(nv, g).diff(mod.conf.var_pos(partner))
            if not dg.is_zero():
                ((ge, gc),) = dg.terms.items()
                eta_mult = mod.mult_matrix(mod.conf.eta(), level - 1)
                ev = eta_mult.apply({_index(mod, level - 1, ge, r): gc})
                lhs = {k: lhs.get(k, F(0)) + ev.get(k, F(0)) for k in set(lhs) | set(ev)}
                lhs = {k: v for k, v in lhs.items() if v}
            # right side: multiply the degree-1 image by the monomial g
            x_vec = shifted.apply({_index(mod, 1, _unit(nv, i), r): F(1)})
            gmult = mod.mult_matrix(Poly.monomial(nv, g), 1)
            rhs = gmult.apply(x_vec)
            assert lhs == rhs


def _index(mod, k, e, r):
    """Index of x^e (x) v_r in slice k (monomial-major)."""
    return mod.mono_index(k)[e] * mod.dim_v + r


def _unit(nv, pos):
    e = [0] * nv
    e[pos] = 1
    return tuple(e)


def test_harmonic_decomposition_examples():
    hb = harmonic_decompose(2, 2, "D")
    assert len(hb.monomials) == 10 and len(hb.harmonic) == 9
    assert hb.layer_dims == [9, 1]
    assert hb.decomposition_ok and hb.filtration_ok
    hb0 = harmonic_decompose(0, 2, "D")
    assert len(hb0.harmonic) == 1
    hb1 = harmonic_decompose(1, 2, "D")
    assert len(hb1.harmonic) == 4  # Delta lowers degree by 2, so H_1 = A_1
    hb4 = harmonic_decompose(4, 2, "B")
    assert sum(hb4.layer_dims) == len(hb4.monomials)
    assert hb4.decomposition_ok and hb4.filtration_ok
    # closed forms that do not go through the Laplacian's matrix: over N
    # variables dim H_j = C(j+N-1, N-1) - C(j+N-3, N-1), A_k is the direct
    # sum of the eta^m H_{k-2m}, and ker Delta^{r+1} is the sum of its first
    # r+1 layers; each harmonic vector is killed by the Laplacian itself
    for series, n, top in [("D", 2, 6), ("D", 3, 6), ("B", 1, 6), ("B", 2, 6), ("B", 3, 4)]:
        N = natural_dim(series, n)
        lap = build_conformal(n, series).laplacian()
        for k in range(top + 1):
            hb = harmonic_decompose(k, n, series)
            layers = [comb(j + N - 1, N - 1) - comb(j + N - 3, N - 1) for j in range(k, -1, -2)]
            assert hb.layer_dims == layers, (series, n, k)
            assert hb.filtration_dims == list(accumulate(layers))
            assert len(hb.harmonic) == layers[0] and len(hb.monomials) == comb(k + N - 1, N - 1)
            assert hb.decomposition_ok and hb.filtration_ok
            for vec in hb.harmonic:
                f = Poly(N, {hb.monomials[i]: c for i, c in vec.items()})
                assert not f.is_zero() and lap.apply(f).is_zero()


def test_laplacian_eta_commutator_forms():
    d_forms = laplacian_eta_commutator(2, "D")
    assert d_forms["commutator"] == d_forms["stated"] == d_forms["true"]
    b_forms = laplacian_eta_commutator(2, "B")
    # the stated 1+2n+D closed form does not hold for the defining
    # normalizations; the exact commutator is 1+2n+2D
    assert b_forms["commutator"] != b_forms["stated"]
    assert b_forms["commutator"] == b_forms["true"]


def test_classification_examples():
    assert classify_b(parse_weight("1,0", "D"), F(1)).describe() == "excluded(b in n-1-N/2 = 1-N/2)"
    assert classify_b(parse_weight("1,0", "D"), F(5, 3)).describe() == "generic"
    assert classify_b(parse_weight("1/2,1/2", "B"), F(2)).describe() == "excluded(b in n-N/2 = 2-N/2)"
    c = classify_b(zero_weight("D", 2), F(-2))
    assert c.status == "excluded" and c.exact
    assert "reducible" in c.describe()


def test_scan_json_round_trip():
    r = surjectivity_scan(parse_weight("1,0", "D"), F(3), 1)
    doc = r.to_json_dict()
    assert doc["schema"] == 1
    assert doc["verdict"] == "proper-submodule-found"
    assert doc["records"][0] == {"k": 1, "dim": 16, "rank": 15, "full": False}


def test_every_cap_raises_cap_exceeded(monkeypatch):
    from oconf import mixed, spectral
    from oconf.irreps import CapExceeded

    mu = parse_weight("1,0", "D")
    monkeypatch.setattr(spectral, "TENSOR_CAP", 15)
    with pytest.raises(CapExceeded, match="tensor dimension 16 exceeds cap 15"):
        omega_tilde_matrix(mu)
    with pytest.raises(CapExceeded, match="slice dimension 5456 at degree 30 exceeds cap 4096"):
        harmonic_decompose(30, 2, "D")
    monkeypatch.setattr(mixed, "DEFAULT_SLICE_CAP", 39)
    with pytest.raises(CapExceeded, match="slice dimension 40 at degree 2 exceeds cap 39"):
        ConformalModule(mu, F(1)).action_matrix("J_1", 1)

    def spy(nv, k):
        raise AssertionError(f"built the monomials of degree {k}")

    monkeypatch.setattr(mixed, "monomial_basis", spy)  # a whole matrix too checks before it builds
    with pytest.raises(CapExceeded, match="slice dimension 40 at degree 2 exceeds cap 39"):
        ConformalModule(mu, F(1)).action_matrix("A_{1,1}", 2)


def _j_span_rank_by_elimination(mod, level):
    """The scan rank without weight blocks: every J column, one elimination,
    which stops once the span fills the slice."""
    vectors = [v for lbl in mod.j_labels for v in mod.action_matrix(lbl, level).col_vectors() if v]
    span, full = EchelonBasis(), mod.slice_dim(level + 1)
    for v in vectors:
        if span.add(v) and span.rank == full:
            break
    return span.rank


# (series, weight, scanned degree): integral, spin and mu = 0 weights
BLOCK_GRID = [
    ("D", "0,0", 4), ("D", "1,0", 4), ("D", "1/2,1/2", 4), ("D", "1/2,-1/2", 4),
    ("D", "0,0,0", 3), ("D", "1,0,0", 2), ("D", "1/2,1/2,1/2", 2),
    ("B", "0", 5), ("B", "1", 5), ("B", "1/2", 5),
    ("B", "0,0", 3), ("B", "1,0", 3), ("B", "1/2,1/2", 3),
    ("B", "0,0,0", 2), ("B", "1/2,1/2,1/2", 2),
]


def test_weight_blocks_give_the_rank_of_full_elimination():
    # at generic b, at every -lambda of the degree-one spectrum and on the
    # half-integers where the critical ladders lie; the scan runs in its own
    # module, the weight blocks and the full elimination in another
    deficient = 0
    for series, w, deg in BLOCK_GRID:
        mu = parse_weight(w, series)
        bs = {F(1, 3), F(-2, 7), F(7, 2)} | {-lam for lam, _ in omega_tilde_spectrum(mu).entries}
        bs |= {F(j, 2) for j in range(-12, 9)}
        for b in sorted(bs):
            mod = ConformalModule(mu, b)
            scan = surjectivity_scan(mu, b, deg)
            want = [_j_span_rank_by_elimination(mod, level) for level in range(deg)]
            assert [r.rank for r in scan.records] == want, (series, w, b)
            assert [_j_span_rank(mod, level) for level in range(deg)] == want, (series, w, b)
            deficient += sum(not r.full for r in scan.records)
    assert deficient == 83


def test_the_least_dominant_block_decides_each_slice():
    # every weight of slice k lies in the class of mu + k e_1 modulo the root
    # lattice, and that class's least dominant weight nu_c is a weight of the
    # slice; over the grid above, the rank of nu_c's block, read from whole
    # action matrices, falls short exactly where the slice's rank does
    deficient = 0
    for series, w, deg in BLOCK_GRID:
        mu = parse_weight(w, series)
        base = ConformalModule(mu, F(1, 3))
        rows = {}  # slice k -> its indexes of weight nu_c
        for k in range(1, deg + 1):
            weights = reference.slice_weights(base, k)
            nu_c = minimal_dominant_twice(series, weights[0])
            assert {minimal_dominant_twice(series, x) for x in weights} == {nu_c}, (series, w, k)
            assert nu_c in _dominant_dims(base, k), (series, w, k)
            rows[k] = {i for i, x in enumerate(weights) if x == nu_c}
        bs = {F(1, 3), F(-2, 7), F(7, 2)} | {-lam for lam, _ in omega_tilde_spectrum(mu).entries}
        bs |= {F(j, 2) for j in range(-12, 9)}
        for b in sorted(bs):
            mod = ConformalModule(mu, b)
            for level in range(deg):
                full = _j_span_rank_by_elimination(mod, level) == mod.slice_dim(level + 1)
                block = rows[level + 1]
                cols = [v for lbl in mod.j_labels for v in mod.action_matrix(lbl, level).col_vectors()]
                block_full = rank_of_rows([{i: c for i, c in v.items() if i in block} for v in cols]) == len(block)
                assert block_full == full, (series, w, b, level)
                deficient += not full
    assert deficient == 83


def test_a_certified_block_asks_for_no_more_columns(monkeypatch):
    # D(1,0) at b = 1/3 to degree 8: the J columns that land in dominant
    # blocks, against those the scan asks for; every slice is full, so the
    # scan opens only the block of the least dominant weight nu_c of each
    # slice, and its parent columns close it: one per basis vector of the
    # block, dim M_nu_c in all
    mu, b, deg = parse_weight("1,0", "D"), F(1, 3), 8
    mod = ConformalModule(mu, b)
    reach, dims_c = 0, []
    for level in range(deg):
        weights = reference.slice_weights(mod, level + 1)
        dims_c.append(weights.count(minimal_dominant_twice("D", weights[0])))
        dominant = {nu for nu in weights if _dominant_orbit_size("D", nu)}
        for d in mod.var_weights():
            targets = [tuple(a + c for a, c in zip(w, d)) for w in reference.slice_weights(mod, level)]
            reach += sum(t in dominant for t in targets)
    assert dims_c == [4, 5, 8, 9, 12, 13, 16, 17]
    asked = []
    columns = ConformalModule.action_columns

    def counted(self, label, k, cols):
        asked.append(len(cols))
        return columns(self, label, k, cols)

    monkeypatch.setattr(ConformalModule, "action_columns", counted)
    assert surjectivity_scan(mu, b, deg).verdict == f"irreducible-up-to-{deg}"
    assert (sum(asked), reach) == (sum(dims_c), 1572) == (84, 1572)


def test_parent_columns_short_of_the_block_fall_back_to_every_column(monkeypatch):
    # D(1,0) at b = 1, degree 3: the parent columns of nu_c's block, one per
    # basis vector x^a (x) v_r, J_i(x^(a - u_i) (x) v_r) with i the first
    # variable of a, span only 6 of its 8 dimensions, since -b is an
    # eigenvalue of their b-free part; the scan asks for the other columns
    # of the block and still finds the slice full, as full elimination does
    mu, b, level = parse_weight("1,0", "D"), F(1), 2
    mod = ConformalModule(mu, b)
    weights = reference.slice_weights(mod, level + 1)
    nu_c = minimal_dominant_twice("D", weights[0])
    block = [i for i, w in enumerate(weights) if w == nu_c]
    dv, index = mod.dim_v, mod.mono_index(level)
    parents = []
    for i in block:
        a, r = mod.monomials_of(level + 1)[i // dv], i % dv
        v = next(t for t, x in enumerate(a) if x > 0)
        src = index[a[:v] + (a[v] - 1,) + a[v + 1:]] * dv + r
        col = mod.action_matrix(mod.j_labels[v], level).col_vectors()[src]
        parents.append({q: c for q, c in col.items() if q in block})
    assert (len(block), rank_of_rows(parents)) == (8, 6)

    asked = []
    columns = ConformalModule.action_columns

    def counted(self, label, k, cols):
        asked.append(len(cols))
        return columns(self, label, k, cols)

    monkeypatch.setattr(ConformalModule, "action_columns", counted)
    fresh = ConformalModule(mu, b)
    assert _j_span_rank(fresh, level) == _j_span_rank_by_elimination(mod, level) == 80 == mod.slice_dim(3)
    assert sum(asked) > len(block)
    scan = surjectivity_scan(mu, b, 3)
    assert (scan.records[-1].rank, scan.records[-1].dim) == (80, 80)


def test_only_a_deficient_slice_counts_every_dominant_block(monkeypatch):
    # while nu_c's block closes, only its dimension is counted: the
    # irreducible D(1,0) scan at b = 1/3 never convolves the dominant
    # dimensions, and the B(1/2,1/2) scan at b = -1 does so at its one
    # deficient degree, with the records of its golden file
    calls = []
    dominant_dims = reducibility._dominant_dims

    def spy(mod, k):
        calls.append(k)
        return dominant_dims(mod, k)

    monkeypatch.setattr(reducibility, "_dominant_dims", spy)
    assert surjectivity_scan(parse_weight("1,0", "D"), F(1, 3), 8).verdict == "irreducible-up-to-8"
    assert calls == []
    scan = surjectivity_scan(parse_weight("1/2,1/2", "B"), F(-1), 7)
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "scan-B-1_2-1_2-b-1-deg7.json").read_text())
    assert scan.to_json_dict()["records"] == golden["records"]
    assert calls == [7]


@pytest.mark.parametrize("series,w,b,deg,deficits", [
    ("D", "0,0", -1, 6, {2: 9, 6: 1}),
    ("B", "1/2,1/2", -1, 7, {7: 4}),
    ("D", "1,0", 1, 2, {1: 6, 2: 4}),
])
def test_open_blocks_count_the_exact_deficit(series, w, b, deg, deficits):
    # blocks still open after the last label, past the first deficient degree
    scan = surjectivity_scan(parse_weight(w, series), b, deg)
    assert [r.k for r in scan.records] == list(range(1, deg + 1))
    assert {r.k: r.dim - r.rank for r in scan.records if not r.full} == deficits
    assert scan.verdict == "proper-submodule-found"
