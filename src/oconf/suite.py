"""The full verification battery with fixed desk-scale parameters.

Each check is a standalone function returning (ok, detail).  The command
line `suite` verb runs `ALL_CHECKS` in order; the acceptance tests call the
same check functions one criterion at a time.  Two checks run stated claims
verbatim and are known to fail (`EXPECTED_FAILURES`): the B-series
Laplacian commutator, whose stated closed form 1+2n+D does not match the
defining normalizations (the exact commutator is 1+2n+2D), and the sharp
mu=0 classification, which misses the special conformal weights; their
corrected companions must pass.

Checks that read the same exact object compute it once, through the
module-level `lru_cache`s: `_split_casimir` (the split Casimirs that the
charpoly reports and the phi check read), `_charpoly_report` and
`_mu_zero_scan` (the mu=0 scan records, from which the two mu=0 checks
read generation, reducibility and the b=0 quotient).  What these return
is shared and read-only: a check reads a matrix, a report or a record and
never alters it, so the checks give the same results in any order.  Only
the three special-weight witnesses of `check_mu_zero_true_classification`
are built by `detect_submodule`, each in a module built at its own b,
because their closure is verified.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, List, Mapping, Tuple

from . import mixed, reducibility, spectral
from .irreps import build_irrep, omega_matrix
from .linalg import SparseMat
from .ortho import bracket_identities, verify_theta_homomorphism
from .weights import (
    WeightVec,
    casimir_eigenvalue,
    natural_dim,
    parse_weight,
    pieri_decompose,
    weyl_dim,
    zero_weight,
)

D_MU_LIST = ["1,0", "1,1", "1,-1", "2,0"]
B_MU_LIST = ["1,0", "1/2,1/2"]


def check_bracket_tables() -> Tuple[bool, str]:
    bits = []
    ok = True
    for n, series in [(2, "D"), (3, "D"), (1, "B"), (2, "B")]:
        count, fails = 0, []
        for name, lhs, rhs in bracket_identities(n, series):
            count += 1
            if lhs != rhs:
                fails.append(name)
        ok &= not fails
        bits.append(f"{series}{n}: {count} identities, {len(fails)} failures")
        if fails:
            bits.append("  failing: " + ", ".join(fails[:5]))
    return ok, "; ".join(bits)


def check_theta_isomorphism() -> Tuple[bool, str]:
    bits = []
    ok = True
    for n, series in [(2, "D"), (2, "B")]:
        r = verify_theta_homomorphism(n, series)
        ok &= bool(r["ok"])
        bits.append(
            f"{series}{n}: {r['pairs_checked']} pairs, "
            f"{len(r['failures'])} failures, image rank {r['image_rank']}/{r['dimension']}"
        )
    return ok, "; ".join(bits)


def check_shen_embedding() -> Tuple[bool, str]:
    bits = []
    ok = True
    for n, series in [(2, "D"), (2, "B")]:
        r = mixed.verify_shen_monomorphism(n, series)
        ok &= bool(r["ok"])
        bits.append(
            f"{series}{n}: {r['pairs_checked']} pairs, "
            f"{len(r['bracket_failures'])} bracket / {len(r['closed_form_failures'])} closed-form "
            f"/ {len(r['containment_failures'])} containment failures"
        )
    return ok, "; ".join(bits)


def _mu_battery() -> List[WeightVec]:
    mus = [parse_weight(s, "D") for s in D_MU_LIST]
    mus += [parse_weight(s, "B") for s in B_MU_LIST]
    return mus


def check_casimir_scalar() -> Tuple[bool, str]:
    bits = []
    ok = True
    for mu in _mu_battery():
        V = build_irrep(mu)
        expected = casimir_eigenvalue(mu)
        good = omega_matrix(V) == SparseMat.identity(V.dim).scale(expected)
        ok &= good
        bits.append(f"{mu.series} {mu}: omega = {expected}*Id {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


@lru_cache(maxsize=None)
def _split_casimir(mu: WeightVec) -> SparseMat:
    """`omega_tilde_matrix(mu)`, built once for the charpoly-lemma report
    and the phi check that both read it (read-only: they share it)."""
    return spectral.omega_tilde_matrix(mu)


@lru_cache(maxsize=None)
def _charpoly_report(mu: WeightVec) -> Mapping[str, object]:
    """The charpoly-lemma report of mu, computed once for the checks that
    read it (read-only: the checks share it)."""
    return MappingProxyType(spectral.charpoly_lemma_report(mu, _split_casimir(mu)))


def check_charpoly_lemma() -> Tuple[bool, str]:
    bits = []
    ok = True
    mus = _mu_battery() + [parse_weight("1,1,0", "D"), parse_weight("1,1", "B")]
    for mu in mus:
        r = _charpoly_report(mu)
        ok &= bool(r["ok"])
        bits.append(f"{mu.series} {mu}: dim {r['dim']} {'ok' if r['ok'] else 'FAIL'}")
    return ok, "; ".join(bits)


def check_phi_degree_one() -> Tuple[bool, str]:
    bits = []
    ok = True
    for mu in [parse_weight("1,0", "D"), parse_weight("1/2,1/2", "B")]:
        otm = _split_casimir(mu)
        for b in [Fraction(0), Fraction(1, 3), Fraction(-2)]:
            lhs = mixed.ConformalModule(mu, b).phi_matrix(1)
            rhs = SparseMat.identity(otm.rows).scale(b) + otm
            good = lhs == rhs
            ok &= good
            bits.append(f"{mu.series} {mu} b={b}: {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


def check_t_operator() -> Tuple[bool, str]:
    bits = []
    ok = True
    bs = [Fraction(0), Fraction(1), Fraction(1, 3)]
    for mu in [parse_weight("1,0", "D"), parse_weight("1,0", "B")]:
        fails = [f"{mu.series} {mu} b={b} k={k}: FAIL" for b in bs for k in range(0, 5)
                 if not spectral.verify_t_operator(mu, b, k)["match"]]
        ok &= not fails
        bits += fails
        bits.append(f"{mu.series} {mu}: k<=4, b in {{0,1,1/3}} ok")
    return ok, "; ".join(bits)


def check_scan_sufficiency() -> Tuple[bool, str]:
    bits = []
    ok = True
    cases = [
        (parse_weight("1,0", "D"), Fraction(1, 3), 4, "irreducible-up-to-4"),
        (parse_weight("1/2,1/2", "B"), Fraction(1, 4), 3, "irreducible-up-to-3"),
    ]
    for mu, b, deg, want in cases:
        r = reducibility.surjectivity_scan(mu, b, deg)
        good = r.verdict == want and all(rec.full for rec in r.records)
        ok &= good
        bits.append(f"{mu.series} {mu} b={b}: {r.verdict} {'ok' if good else 'FAIL'}")
    # critical value with a degree-one zero eigenvalue, in the D 1,0 module
    r = reducibility.surjectivity_scan(parse_weight("1,0", "D"), Fraction(3), 2)
    good = r.verdict == "proper-submodule-found" and not r.records[0].full
    ok &= good
    bits.append(f"D 1,0 b=3: deficiency at degree 1 {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


@lru_cache(maxsize=None)
def _mu_zero_scan(series: str, b: Fraction) -> Mapping[int, Tuple[int, int]]:
    """{k: (rank, dim)}, k = 1..4, the records of `surjectivity_scan` in the
    mu=0 module at n=2 and b, computed once for the two mu=0 checks that
    read it (read-only: they share it).

    U(J)(1 (x) V(mu)) fills the degrees up to K iff records 1..K are full
    (see `reducibility`), so a deficient record among them is a proper
    submodule, and at b = 0 the records are also those of the quotient by
    the constants: U(g) = U(J) U(l) U(d) by PBW, and slice 1 is l-stable,
    the d's take it onto the constants and J kills them, so the submodule
    that slice 1 generates is U(J)(slice 1).  While it fills every slice
    below k, its degree-k part is J(slice k-1), whose rank is record k.  So
    every record up to the first deficient one is exact there, and the
    checks read no other."""
    scan = reducibility.surjectivity_scan(zero_weight(series, 2), b, 4)
    return MappingProxyType({r.k: (r.rank, r.dim) for r in scan.records})


def _fills(series: str, b: Fraction, first: int, last: int) -> bool:
    """True iff the mu=0 scan at b is full at every degree first..last."""
    scan = _mu_zero_scan(series, b)
    return all(scan[k][0] == scan[k][1] for k in range(first, last + 1))


def check_mu_zero_classification() -> Tuple[bool, str]:
    """The mu=0 classification exactly as stated.  Known to fail at the
    special conformal weights (D b=1; B b=1/2 at degree 4; D b=0 quotient at
    degree 4) — the engine's counterexamples to the stated sharp form."""
    bits = []
    ok = True
    for series in ["D", "B"]:
        for b in [Fraction(1, 2), Fraction(1), Fraction(5, 2)]:
            good = _fills(series, b, 1, 4)
            ok &= good
            bits.append(f"{series} mu=0 b={b}: full rank {'ok' if good else 'FAIL'}")
        for b in [Fraction(0), Fraction(-1), Fraction(-2)]:
            good = not _fills(series, b, 1, 3)
            if b == 0 and good:
                # exactly the constants line: part 1 = J(constants) = 0, so
                # every higher part is 0; the quotient is generated above it
                good = _mu_zero_scan(series, b)[1][0] == 0 and _fills(series, b, 2, 4)
            ok &= good
            bits.append(f"{series} mu=0 b={b}: proper submodule {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


def check_mu_zero_true_classification() -> Tuple[bool, str]:
    """The machine-established mu=0 behavior at n=2: b in -N reducible; the
    special conformal weights ({1..n-1} for D, {1/2..n-1/2} for B) reducible
    with verified proper submodules; everything else generated to depth."""
    bits = []
    ok = True
    for series, good_bs, bad_extra in [
        ("D", [Fraction(1, 2), Fraction(2), Fraction(5, 2)], [(Fraction(1), 2)]),
        ("B", [Fraction(1), Fraction(2), Fraction(5, 2)], [(Fraction(3, 2), 2), (Fraction(1, 2), 4)]),
    ]:
        mu0 = zero_weight(series, 2)
        for b in good_bs:
            good = _fills(series, b, 1, 3)
            ok &= good
            bits.append(f"{series} b={b}: generated to degree 3 {'ok' if good else 'FAIL'}")
        for b, deg in bad_extra:
            w = reducibility.detect_submodule(mixed.ConformalModule(mu0, b), deg)
            good = w is not None and w.dims[deg][0] == w.dims[deg][1] - 1
            if good:
                good &= reducibility.verify_submodule_closure(w)["ok"]
            ok &= bool(good)
            bits.append(
                f"{series} b={b}: proper submodule at degree {deg}, closure verified "
                f"{'ok' if good else 'FAIL'} (refutes the stated sharp classification)"
            )
        for b in [Fraction(0), Fraction(-1), Fraction(-2)]:
            good = not _fills(series, b, 1, 3)
            ok &= good
            bits.append(f"{series} b={b}: reducible {'ok' if good else 'FAIL'}")
    # the D b=0 quotient stalls at the eta^2 line (34/35 at degree 4)
    quot = _mu_zero_scan("D", Fraction(0))
    good = quot[4] == (34, 35) and _fills("D", Fraction(0), 2, 3)
    ok &= good
    bits.append(f"D b=0 quotient degree-4 component: {quot[4][0]}/{quot[4][1]} {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


def check_pieri_eigenspaces() -> Tuple[bool, str]:
    bits = []
    ok = True
    for mu in _mu_battery():
        r = _charpoly_report(mu)
        total = weyl_dim(mu) * natural_dim(mu.series, mu.n)
        summands = sum(weyl_dim(w) for w in pieri_decompose(mu))
        good = bool(r["eigenspace_dims_match_pieri"]) and total == summands
        ok &= good
        bits.append(f"{mu.series} {mu}: {total} = {summands} {'ok' if good else 'FAIL'}")
    return ok, "; ".join(bits)


def check_harmonic() -> Tuple[bool, str]:
    bits = []
    ok = True
    for n, series in [(2, "D"), (2, "B")]:
        forms = reducibility.laplacian_eta_commutator(n, series)
        stated_ok = forms["commutator"] == forms["stated"]
        ok &= stated_ok
        label = "n+D" if series == "D" else "1+2n+D"
        bits.append(f"{series}{n}: [Delta,eta] = {label} {'ok' if stated_ok else 'FAIL (stated form)'}")
        if not stated_ok:
            true_ok = forms["commutator"] == forms["true"]
            bits.append(f"  (exact commutator equals 1+2n+2D: {true_ok}; the stated closed form is a misprint)")
    hb = reducibility.harmonic_decompose(2, 2, "D")
    good = len(hb.harmonic) == 9 and hb.decomposition_ok and hb.filtration_ok
    ok &= good
    bits.append(f"D2 k=2: dim H_2 = {len(hb.harmonic)} (expect 9), layers {hb.layer_dims}")
    return ok, "; ".join(bits)


ALL_CHECKS: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("bracket-tables", check_bracket_tables),
    ("theta-isomorphism", check_theta_isomorphism),
    ("shen-embedding", check_shen_embedding),
    ("casimir-scalar", check_casimir_scalar),
    ("charpoly-lemma", check_charpoly_lemma),
    ("phi-degree-one", check_phi_degree_one),
    ("t-operator", check_t_operator),
    ("scan-sufficiency", check_scan_sufficiency),
    ("mu-zero-classification", check_mu_zero_classification),
    ("mu-zero-true-classification", check_mu_zero_true_classification),
    ("pieri-eigenspaces", check_pieri_eigenspaces),
    ("harmonic-decomposition", check_harmonic),
]

# Checks that run stated claims verbatim and are refuted by the engine, with
# the label the CLI prints for each:
#  - harmonic-decomposition: the B-series [Delta,eta] closed form is a
#    misprint (the exact commutator is 1+2n+2D);
#  - mu-zero-classification: the sharp mu=0 classification fails at the
#    special conformal weights (D b=1; B b=1/2 at degree 4; D b=0 quotient).
# Their corrected companions (the true-identity check inside
# harmonic-decomposition's detail and mu-zero-true-classification) must pass.
EXPECTED_FAILURES = {
    "harmonic-decomposition": "stated-form misprint",
    "mu-zero-classification": "classification gap",
}
