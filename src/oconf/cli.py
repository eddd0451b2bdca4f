"""Batch command-line front end.

Exit codes: 0 when every requested check passes (or the scan verdict is
irreducible/critical without a witness), 1 when a mathematical check fails
or reducibility is found, 2 for usage errors, 3 when a size cap is exceeded
(the request is valid but too large to run).  JSON output is deterministic
(no timings, sorted keys); text output includes per-check timing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from . import reducibility, spectral, suite as suite_mod
from .irreps import DEFAULT_DIM_CAP, CapExceeded, build_irrep, validate_irrep
from .mixed import verify_shen_monomorphism
from .ortho import verify_bracket_tables, verify_theta_homomorphism
from .weights import MIN_RANK, WeightVec, natural_dim, parse_weight, pieri_decompose, weyl_dim, zero_weight


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_mu(args) -> WeightVec:
    if args.mu is None:
        raise ValueError("--mu is required for this command")
    return parse_weight(args.mu, args.series)


def _parse_b(args) -> Fraction:
    if args.b is None:
        raise ValueError("--b is required for this command")
    try:
        return Fraction(args.b)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational {args.b!r}")


def _emit(doc: dict, args, text_lines) -> None:
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2)
    else:
        payload = "\n".join(text_lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def cmd_verify_brackets(args) -> int:
    rep = verify_bracket_tables(args.n, args.series)
    fails = [r for r in rep if r["status"] != "pass"]
    doc = {"schema": 1, "command": "verify-brackets", "series": args.series, "n": args.n,
           "identities": len(rep), "report": rep, "failures": len(fails)}
    lines = [f"bracket tables {args.series} n={args.n}: {len(rep)} identities, {len(fails)} failures"]
    lines += [f"  FAIL {r['identity']}: diff = {r['diff']}" for r in fails]
    _emit(doc, args, lines)
    return 0 if not fails else 1


def cmd_verify_theta(args) -> int:
    r = verify_theta_homomorphism(args.n, args.series)
    doc = {"schema": 1, "command": "verify-theta", **{k: v for k, v in r.items() if k != "failures"},
           "failures": r["failures"]}
    lines = [
        f"theta {args.series} n={args.n}: {r['pairs_checked']} pairs, "
        f"{len(r['failures'])} failures, image rank {r['image_rank']}/{r['dimension']}",
        f"result: {'pass' if r['ok'] else 'FAIL'}",
    ]
    _emit(doc, args, lines)
    return 0 if r["ok"] else 1


def cmd_verify_shen(args) -> int:
    r = verify_shen_monomorphism(args.n, args.series)
    doc = {"schema": 1, "command": "verify-shen", "series": args.series, "n": args.n,
           "pairs_checked": r["pairs_checked"],
           "bracket_failures": r["bracket_failures"],
           "closed_form_failures": r["closed_form_failures"],
           "containment_failures": r["containment_failures"],
           "ok": r["ok"]}
    lines = [
        f"mixed-product embedding {args.series} n={args.n}: {r['pairs_checked']} pairs",
        f"bracket failures: {len(r['bracket_failures'])}, closed-form: {len(r['closed_form_failures'])}, "
        f"containment: {len(r['containment_failures'])}",
        f"result: {'pass' if r['ok'] else 'FAIL'}",
    ]
    _emit(doc, args, lines)
    return 0 if r["ok"] else 1


def cmd_build_irrep(args) -> int:
    if args.cap < 1:
        return _fail_usage(f"--cap {args.cap} is below 1: V(mu) has dimension at least 1")
    mu = _parse_mu(args)
    V = build_irrep(mu, args.cap)
    rep = validate_irrep(V)
    doc = V.to_json_dict()
    doc["validation"] = {k: (str(v) if isinstance(v, Fraction) else v)
                         for k, v in rep.items() if not isinstance(v, list)}
    lines = [
        f"V({mu}) {mu.series} n={mu.n}: dim {V.dim}",
        "weights: " + ", ".join(str(w) for w in V.weights),
        f"validation: homomorphism={rep['homomorphism_ok']} cartan-diagonal={rep['cartan_diagonal_ok']} "
        f"highest-weight-annihilated={rep['highest_weight_annihilated']} "
        f"casimir={rep['casimir_value']} irreducible={rep['irreducible']}",
    ]
    _emit(doc, args, lines)
    return 0 if rep["ok"] else 1


def cmd_pieri(args) -> int:
    mu = _parse_mu(args)
    parts = pieri_decompose(mu)
    total = weyl_dim(mu) * natural_dim(mu.series, mu.n)
    dims = [weyl_dim(w) for w in parts]
    doc = {"schema": 1, "command": "pieri", "series": mu.series, "mu": str(mu),
           "summands": [str(w) for w in parts], "dims": dims,
           "total": total, "dims_sum": sum(dims), "ok": total == sum(dims)}
    lines = [f"V(e1) (x) V({mu}) = (+) " + " , ".join(f"V({w})[{d}]" for w, d in zip(parts, dims)),
             f"dimension check: {total} = {'+'.join(map(str, dims))} -> {'ok' if doc['ok'] else 'FAIL'}"]
    _emit(doc, args, lines)
    return 0 if doc["ok"] else 1


def cmd_charpoly(args) -> int:
    mu = _parse_mu(args)
    r = spectral.verify_charpoly_lemma(mu)
    doc = {"schema": 1, "command": "charpoly", **r}
    spec_str = " ".join(
        f"(t-({lam}))^{m}" for lam, m in spectral.omega_tilde_spectrum(mu).entries
    )
    lines = [f"split Casimir on V(e1)(x)V({mu}), dim {r['dim']}",
             f"spectrum: {spec_str}",
             f"charpoly matches closed form: {r['match']}",
             f"half-difference consistency: {r['half_difference_consistency']}",
             f"eigenspace dims match Pieri: {r['eigenspace_dims_match_pieri']}"]
    _emit(doc, args, lines)
    return 0 if r["ok"] else 1


def cmd_t_operator(args) -> int:
    mu = _parse_mu(args)
    b = _parse_b(args)
    r = spectral.verify_t_operator(mu, b, args.k)
    doc = {"schema": 1, "command": "t-operator", **r}
    lines = [f"T on slice {args.k} of V({mu})^, b={b}: scalar {r['scalar']}",
             f"T == scalar * eta: {r['match']}"]
    _emit(doc, args, lines)
    return 0 if r["match"] else 1


def cmd_scan(args) -> int:
    mu = _mu_or_zero(args)
    b = _parse_b(args)
    r = reducibility.surjectivity_scan(mu, b, args.max_degree)
    doc = r.to_json_dict()
    doc["command"] = "scan"
    lines = [f"scan V({mu})^ {mu.series} n={mu.n} b={b} up to degree {args.max_degree}"]
    for rec in r.records:
        lines.append(f"  degree {rec.k}: rank {rec.rank} / {rec.dim} {'full' if rec.full else 'DEFICIENT'}")
    lines.append("phi eigenvalues at degree 1: "
                 + ", ".join(f"{e} (x{m})" for e, m in r.phi_eigenvalues_k1))
    lines.append(f"verdict: {r.verdict}")
    _emit(doc, args, lines)
    return 1 if r.verdict == "proper-submodule-found" else 0


def cmd_classify(args) -> int:
    mu = _mu_or_zero(args)
    b = _parse_b(args)
    c = reducibility.classify_b(mu, b)
    doc = {"schema": 1, "command": "classify", "series": mu.series, "mu": str(mu),
           "b": str(b), "status": c.status,
           "component": c.component.describe() if c.component else None,
           "exact": c.exact}
    lines = [f"b = {b} for V({mu})^ ({mu.series}, n={mu.n}): {c.describe()}"]
    _emit(doc, args, lines)
    return 1 if (c.status == "excluded" and c.exact) else 0


def cmd_harmonic(args) -> int:
    hb = reducibility.harmonic_decompose(args.k, args.n, args.series)
    forms = reducibility.laplacian_eta_commutator(args.n, args.series)
    stated_ok = forms["commutator"] == forms["stated"]
    true_ok = forms["commutator"] == forms["true"]
    doc = {"schema": 1, "command": "harmonic", "series": args.series, "n": args.n, "k": args.k,
           "dim_A_k": len(hb.monomials), "dim_H_k": len(hb.harmonic),
           "layer_dims": hb.layer_dims, "filtration_dims": hb.filtration_dims,
           "decomposition_ok": hb.decomposition_ok, "filtration_ok": hb.filtration_ok,
           "commutator_stated_form_ok": stated_ok, "commutator_true_form_ok": true_ok}
    lines = [f"harmonics {args.series} n={args.n} degree {args.k}: dim A_k={len(hb.monomials)}, "
             f"dim H_k={len(hb.harmonic)}, layers {hb.layer_dims}",
             f"decomposition direct sum: {hb.decomposition_ok}; filtration: {hb.filtration_ok}",
             f"[Delta,eta] stated form: {stated_ok}; exact form: {true_ok}"]
    _emit(doc, args, lines)
    ok = hb.decomposition_ok and hb.filtration_ok and true_ok
    return 0 if ok else 1


def cmd_suite(args) -> int:
    results = []
    lines = []
    all_ok = True
    for name, fn in suite_mod.ALL_CHECKS:
        t0 = time.perf_counter()
        ok, detail = fn()
        dt = time.perf_counter() - t0
        expected = not ok and name in suite_mod.EXPECTED_FAILURES
        results.append({"name": name, "ok": ok, "detail": detail,
                        "known_failure": expected})
        status = "PASS" if ok else (f"FAIL (known: {suite_mod.EXPECTED_FAILURES[name]})" if expected else "FAIL")
        lines.append(f"[{status}] {name} ({dt:.1f}s)")
        if not ok:
            lines.append(f"    {detail}")
        all_ok &= ok or expected
    doc = {"schema": 1, "command": "suite", "checks": results,
           "ok": all_ok}
    lines.append(f"suite result: {'pass (with known failures)' if all_ok else 'FAIL'}")
    _emit(doc, args, lines)
    return 0 if all_ok else 1


_ZERO_MU = ("0", "")  # with --n, --mu 0 is the zero weight of rank n


def _mu_rank(args) -> Optional[int]:
    """The rank (number of entries) of the --mu weight, or None without one."""
    mu = getattr(args, "mu", None)
    if mu is None or (hasattr(args, "n") and mu in _ZERO_MU):
        return None
    return len(mu.split(","))


def _mu_or_zero(args) -> WeightVec:
    if args.mu is None or args.mu in _ZERO_MU:
        n = args.n if args.n is not None else 2
        return zero_weight(args.series, n)
    mu = parse_weight(args.mu, args.series)
    if args.n is not None and args.n != mu.n:
        raise ValueError(f"--mu {args.mu} has {mu.n} entries but --n is {args.n}")
    return mu


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oconf",
        description="exact verification of generalized conformal representations of orthogonal Lie algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mu=False, b=False, n=False, k=False, degree=False):
        sp.add_argument("--series", choices=["D", "B"], default="D")
        if n:
            # with --mu the rank defaults to the weight's length
            sp.add_argument("--n", type=int, default=None if mu else 2)
        if mu:
            sp.add_argument("--mu", type=str, default=None,
                            help="weight as comma-separated rationals, e.g. 1,0 or 1/2,1/2")
        if b:
            sp.add_argument("--b", type=str, default=None, help="central charge, e.g. 1/3")
        if k:
            sp.add_argument("--k", type=int, default=0, help="polynomial degree")
        if degree:
            sp.add_argument("--max-degree", type=int, default=4)
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--output", type=str, default=None)

    common(sub.add_parser("verify-brackets", help="check the generator bracket tables"), n=True)
    common(sub.add_parser("verify-theta", help="check the conformal isomorphism"), n=True)
    common(sub.add_parser("verify-shen", help="check the mixed-product embedding"), n=True)
    sp = sub.add_parser("build-irrep", help="construct and validate V(mu)")
    common(sp, mu=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP)
    common(sub.add_parser("pieri", help="decompose V(e1) (x) V(mu)"), mu=True)
    common(sub.add_parser("charpoly", help="verify the split-Casimir characteristic polynomial"), mu=True)
    common(sub.add_parser("t-operator", help="verify the invariant T against its scalar"), mu=True, b=True, k=True)
    common(sub.add_parser("scan", help="degree-by-degree irreducibility scan"), mu=True, b=True, n=True, degree=True)
    common(sub.add_parser("classify", help="test b against the excluded set"), mu=True, b=True, n=True)
    common(sub.add_parser("harmonic", help="harmonic decomposition of a polynomial degree"), n=True, k=True)
    common(sub.add_parser("suite", help="run the full verification battery"))
    return p


COMMANDS = {
    "verify-brackets": cmd_verify_brackets,
    "verify-theta": cmd_verify_theta,
    "verify-shen": cmd_verify_shen,
    "build-irrep": cmd_build_irrep,
    "pieri": cmd_pieri,
    "charpoly": cmd_charpoly,
    "t-operator": cmd_t_operator,
    "scan": cmd_scan,
    "classify": cmd_classify,
    "harmonic": cmd_harmonic,
    "suite": cmd_suite,
}


def _attach_negative_b(argv: list) -> list:
    """`--b -1/2` as `--b=-1/2`: argparse takes a token such as -1/2 for an
    option, and `--b` would stop with "expected one argument"."""
    out: list = []
    for tok in argv:
        if out and out[-1] == "--b" and re.fullmatch(r"-[0-9./]+", tok):
            out[-1] = f"--b={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_b(sys.argv[1:] if argv is None else argv))
    least = MIN_RANK[args.series]  # every verb has --series
    below = f"is below the least rank {least} of series {args.series}"
    n, rank = getattr(args, "n", None), _mu_rank(args)
    if n is not None and n < least:
        return _fail_usage(f"--n {n} {below}")
    if rank is not None and rank < least:
        return _fail_usage(f"the rank {rank} of --mu {args.mu} {below}")
    try:
        return COMMANDS[args.command](args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        return _fail_usage(str(exc))
    except OSError as exc:  # the verbs read no files: `--output` or standard output failed
        target = "standard output" if exc.filename is None else exc.filename
        return _fail_usage(f"cannot write {target}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
