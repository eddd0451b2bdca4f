"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Each criterion runs its check from `oconf.suite`, the battery behind
`oconf suite`, plus any example the suite does not cover.  All comparisons
are exact (zero tolerance).  Two stated claims are refuted by
the engine itself and carried as strict xfails with machine-certified
companion tests: the B-series [Delta,eta] closed form (criterion 11; the
exact commutator is 1+2n+2D) and parts of the mu=0 sharp classification
(criterion 9; the special conformal weights b=1 (D) and b=1/2 (B) are
reducible, and the D-series b=0 quotient stalls at the eta^2 line).
"""

from fractions import Fraction

import pytest

from oconf import reducibility, spectral, suite
from oconf.weights import parse_weight, pieri_decompose, weyl_dim, zero_weight

F = Fraction


def report(name, ok):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_bracket_tables():
    ok, detail = suite.check_bracket_tables()
    report("1 bracket-tables (2.37)-(2.43) n=2,3 and (3.29)-(3.33) n=1,2", ok)


def test_criterion_02_theta_isomorphism():
    ok, detail = suite.check_theta_isomorphism()
    report("2 theta isomorphism o(6), o(7) + injectivity", ok)


def test_criterion_03_shen_embedding():
    ok, detail = suite.check_shen_embedding()
    report("3 mixed-product embedding: brackets + closed forms", ok)


def test_criterion_04_casimir_scalar():
    ok, detail = suite.check_casimir_scalar()
    report("4 Casimir scalar action on the mu battery", ok)


def test_criterion_05_charpoly_lemmas():
    ok, detail = suite.check_charpoly_lemma()
    # the concrete derived example: (t-1)^9 (t+1)^6 (t+3)
    r = spectral.verify_charpoly_lemma(parse_weight("1,0", "D"))
    computed = [F(c) for c in map(F, r["charpoly_computed"])]
    manual = [F(1)]
    for lam, mult in [(F(1), 9), (F(-1), 6), (F(-3), 1)]:
        for _ in range(mult):
            nxt = [F(0)] * (len(manual) + 1)
            for i, c in enumerate(manual):
                nxt[i + 1] += c
                nxt[i] -= lam * c
            manual = nxt
    ok &= computed == manual
    report("5 split-Casimir charpolys match closed forms (incl. n=3)", ok)


def test_criterion_06_phi_equals_b_plus_split_casimir():
    ok, detail = suite.check_phi_degree_one()
    report("6 phi = (b + split Casimir) on degree one, b in {0,1/3,-2}", ok)


def test_criterion_07_t_operator():
    ok, detail = suite.check_t_operator()
    report("7 invariant T = scalar * eta on degrees <= 4", ok)


def test_criterion_08_sufficiency_scans():
    ok, detail = suite.check_scan_sufficiency()
    report("8 sufficiency scans + critical-value deficiency at degree 1", ok)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="criterion 9 as stated is refuted by the engine: b=1 (D) and b=1/2 "
    "(B, degree 4) are reducible special conformal weights, and the D-series "
    "b=0 quotient misses the eta^2 line at degree 4; see the companion test",
)
def test_criterion_09_mu_zero_classification_as_stated():
    ok, detail = suite.check_mu_zero_classification()
    report("9 mu=0 classification exactly as stated", ok)


def test_criterion_09_companion_true_classification():
    ok, detail = suite.check_mu_zero_true_classification()
    report("9' mu=0 machine-established classification (with counterexamples)", ok)


def test_criterion_10_pieri_eigenspace_crosscheck():
    ok, detail = suite.check_pieri_eigenspaces()
    # the stated example 5*4 = 4 + 16
    mu = parse_weight("1/2,1/2", "B")
    ok &= sorted(weyl_dim(w) for w in pieri_decompose(mu)) == [4, 16]
    report("10 split-Casimir eigenspaces = Pieri Weyl dimensions", ok)


def test_criterion_11_harmonics_d_series_and_kernel():
    forms = reducibility.laplacian_eta_commutator(2, "D")
    ok = forms["commutator"] == forms["stated"]
    hb = reducibility.harmonic_decompose(2, 2, "D")
    ok &= len(hb.harmonic) == 9 and hb.decomposition_ok and hb.filtration_ok
    report("11 (D half) [Delta,eta] = n + D and dim H_2 = 9", ok)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the stated B-series closed form [Delta,eta] = 1+2n+D is a "
    "misprint for the defining normalizations; the exact commutator is "
    "1+2n+2D (see the companion test)",
)
def test_criterion_11_harmonics_b_series_as_stated():
    forms = reducibility.laplacian_eta_commutator(2, "B")
    report("11 (B half) [Delta,eta] = 1 + 2n + D as stated", forms["commutator"] == forms["stated"])


def test_criterion_11_companion_b_series_exact_identity():
    forms = reducibility.laplacian_eta_commutator(2, "B")
    ok = forms["commutator"] == forms["true"]
    hb = reducibility.harmonic_decompose(4, 2, "B")
    ok &= hb.decomposition_ok and hb.filtration_ok
    report("11' (B half) exact identity [Delta,eta] = 1 + 2n + 2D + filtration", ok)


def failing_fragments(detail):
    return {part.strip() for part in detail.split("; ") if "FAIL" in part}


def test_known_failures_are_pinned_to_their_sub_cases():
    # a new failing sub-case must not hide under a known check name
    ok, detail = suite.check_mu_zero_classification()
    assert not ok
    assert failing_fragments(detail) == {
        "D mu=0 b=1: full rank FAIL",
        "D mu=0 b=0: proper submodule FAIL",
        "B mu=0 b=1/2: full rank FAIL",
    }
    ok, detail = suite.check_harmonic()
    assert not ok
    assert failing_fragments(detail) == {"B2: [Delta,eta] = 1+2n+D FAIL (stated form)"}
    assert set(suite.EXPECTED_FAILURES) == {"mu-zero-classification", "harmonic-decomposition"}


def test_charpoly_reports_are_shared_read_only():
    # criteria 5 and 10 read one report per weight; neither can alter it
    mu = parse_weight("1,0", "D")
    r = suite._charpoly_report(mu)
    assert suite._charpoly_report(mu) is r
    with pytest.raises(TypeError):
        r["ok"] = False
    assert dict(r) == spectral.verify_charpoly_lemma(mu)


def test_mu_zero_quotient_is_shared_read_only():
    # both mu=0 checks read one degree-4 scan per (series, b), the b = 0
    # quotient's among them; neither can alter it
    q = suite._mu_zero_scan("D", Fraction(0))
    assert suite._mu_zero_scan("D", Fraction(0)) is q
    with pytest.raises(TypeError):
        q[4] = (35, 35)
    fresh = reducibility.surjectivity_scan(zero_weight("D", 2), 0, 4).records
    assert dict(q) == {r.k: (r.rank, r.dim) for r in fresh} and q[1] == (0, 4) and q[4] == (34, 35)


def test_charpoly_report_and_phi_check_share_the_split_casimirs(monkeypatch):
    # the phi check reads the split Casimirs that the charpoly reports were
    # built from: one omega_tilde_matrix per charpoly weight in the battery
    calls = []
    built = spectral.omega_tilde_matrix

    def spy(mu):
        calls.append(mu)
        return built(mu)

    monkeypatch.setattr(spectral, "omega_tilde_matrix", spy)
    for cached in (suite._split_casimir, suite._charpoly_report):
        cached.cache_clear()
    try:
        oks = {name: check()[0] for name, check in suite.ALL_CHECKS}
    finally:
        for cached in (suite._split_casimir, suite._charpoly_report):
            cached.cache_clear()
    assert oks == {name: name not in suite.EXPECTED_FAILURES for name, _ in suite.ALL_CHECKS}
    assert len(calls) == len(set(calls)) == 8


def test_mu_zero_checks_agree_in_either_order():
    # the two checks share the mu=0 scans (the b in {0, -1, -2} ones, the
    # b = 0 quotient's and the generic b both check); neither changes what
    # the other reads
    checks = [suite.check_mu_zero_classification, suite.check_mu_zero_true_classification]
    suite._mu_zero_scan.cache_clear()
    forward = [check() for check in checks]
    suite._mu_zero_scan.cache_clear()
    backward = [check() for check in reversed(checks)][::-1]
    assert forward == backward
    assert [ok for ok, _ in forward] == [False, True]
    scan = suite._mu_zero_scan("D", Fraction(-1))
    fresh = reducibility.surjectivity_scan(zero_weight("D", 2), -1, 4).records
    assert dict(scan) == {r.k: (r.rank, r.dim) for r in fresh}
