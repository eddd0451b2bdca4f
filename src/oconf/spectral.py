"""The quadratic Casimir, the split Casimir on tensor modules, and the
degree-two invariant operator on the generalized conformal module.

The split Casimir Omega~ = sum over `casimir_terms` (a, b, c) of
c W(a) (x) V(b), W the natural module, has its exact Hessenberg charpoly
compared against the closed form that the Pieri decomposition predicts, a
route through weight combinatorics only.  The half-difference identity
Omega~ = (Cas(W (x) V) - Cas_W - Cas_V) / 2 needs no tensor-space
representation: X acts by W(X) (x) 1 + 1 (x) V(X), so Cas(W (x) V) =
Cas_W (x) 1 + 1 (x) Cas_V + sum c (W(a) (x) V(b) + W(b) (x) V(a)), the
same matrix, entry for entry, as the Casimir of the diagonal action's
matrices (`tensor_casimir`).  Cas_W and Cas_V come from their matrices, so
a bent factor shows, and the mirror half is summed on its own, not taken
to be Omega~ by the symmetry of `casimir_terms`.

The invariant T = sum_i (J_i x_{n+i} + J_{n+i} x_i) (+ J_0 x_0 for the odd
series) is proved once per (n, series) to be (2b + c + k) eta on slice k of
every A (x) V(mu), c = 2 - 2n (D) or 1 - 2n (B), by `_t_form`: its o(n) part
cancels monomial by monomial (J_i x_{n+i} against J_{n+i} x_i), so V(mu) drops out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from .linalg import SparseMat, charpoly, rank_of_rows
from .irreps import CapExceeded, IrrepData, _natural_rep, build_irrep, casimir_matrix
from .mixed import ConformalModule, _split
from .poly import DiffOp, Poly
from .ortho import build_conformal, casimir_terms
from .weights import (
    Spectrum,
    WeightVec,
    casimir_eigenvalue,
    epsilon,
    omega_tilde_spectrum,
)


# largest V(e1) (x) V(mu) whose split Casimir is assembled
TENSOR_CAP = 4096


def omega_tilde_matrix(mu: WeightVec) -> SparseMat:
    """Split Casimir on V(e1) (x) V(mu), natural factor realized on degree-one
    polynomials (so the matrix matches the degree-one module slice)."""
    V = build_irrep(mu)
    dim = V.basis.m * V.dim
    if dim > TENSOR_CAP:
        raise CapExceeded(f"tensor dimension {dim} exceeds cap {TENSOR_CAP}")
    ob = V.basis
    return SparseMat.from_entries(dim, dim, (
        (key, c * v) for a, b, c in casimir_terms(ob.m) for key, v in ob.matrix(a).kron(V.rep[b]).data.items()))


def tensor_casimir(V: IrrepData, otm: SparseMat) -> SparseMat:
    """Cas(W (x) V), W the natural module, from the factors and otm, the sum
    over W(a) (x) V(b): Cas_W (x) 1 + 1 (x) Cas_V + otm + its mirror."""
    ob, d = V.basis, V.dim
    W = _natural_rep(ob)
    mirror = ((key, c * v) for a, b, c in casimir_terms(ob.m) for key, v in W[b].kron(V.rep[a]).data.items())
    return SparseMat.from_entries(otm.rows, otm.cols, chain(
        casimir_matrix(ob, W, ob.m).kron(SparseMat.identity(d)).data.items(),
        SparseMat.identity(ob.m).kron(casimir_matrix(ob, V.rep, d)).data.items(),
        otm.data.items(), mirror))


def closed_form_charpoly(spec: Spectrum) -> List[Fraction]:
    """prod (t - lambda)^mult as ascending coefficients.

    Multiplied out over the integers, as in `linalg.charpoly`: with den the
    lcm of the lambda denominators, prod (t - den lambda)^mult has the
    coefficients q_i, and the closed form has q_i / den^(N-i) (N = its
    degree)."""
    den = lcm(*(lam.denominator for lam, _ in spec.entries))
    q = [1]
    for lam, mult in spec.entries:
        a = lam.numerator * (den // lam.denominator)
        for _ in range(mult):
            nxt = [0] + q
            for i, c in enumerate(q):
                nxt[i] -= a * c
            q = nxt
    N = len(q) - 1
    return [Fraction(c, den ** (N - i)) for i, c in enumerate(q)]


def verify_charpoly_lemma(mu: WeightVec) -> Dict[str, object]:
    """Exact comparison of the computed split-Casimir charpoly against the
    closed form, plus the half-difference consistency identity and the
    eigenspace-dimension cross-check against the Pieri multiplicities."""
    return charpoly_lemma_report(mu, omega_tilde_matrix(mu))


def charpoly_lemma_report(mu: WeightVec, otm: SparseMat) -> Dict[str, object]:
    """`verify_charpoly_lemma` of mu, given otm = `omega_tilde_matrix(mu)`
    from a caller that reads the matrix too."""
    computed = charpoly(otm)
    spec = omega_tilde_spectrum(mu)
    closed = closed_form_charpoly(spec)
    match = computed == closed

    big = tensor_casimir(build_irrep(mu), otm)  # the diagonal action's Casimir
    c_e1 = casimir_eigenvalue(epsilon(mu.series, mu.n, 1))
    c_mu = casimir_eigenvalue(mu)
    eye = SparseMat.identity(otm.rows)
    half_diff = (big - eye.scale(c_e1) - eye.scale(c_mu)).scale(Fraction(1, 2))
    consistency = half_diff == otm

    eig_dims = {}
    eig_ok = True
    for lam, mult in spec.entries:
        shifted = otm - eye.scale(lam)
        nullity = shifted.cols - rank_of_rows(shifted.row_vectors())
        eig_dims[str(lam)] = nullity
        if nullity != mult:
            eig_ok = False
    return {
        "mu": str(mu),
        "series": mu.series,
        "n": mu.n,
        "dim": otm.rows,
        "charpoly_computed": [str(c) for c in computed],
        "charpoly_closed_form": [str(c) for c in closed],
        "match": match,
        "half_difference_consistency": consistency,
        "eigenspace_dims": eig_dims,
        "eigenspace_dims_match_pieri": eig_ok,
        "ok": match and consistency and eig_ok,
    }


def _t_terms(n: int, series: str) -> List[Tuple[str, int]]:
    """T's terms (J label, position of the variable it multiplies):
    J_i x_{n+i} and J_{n+i} x_i, plus J_0 x_0 for the odd series."""
    terms = [("J_0", 0)] if series == "B" else []
    for i in range(1, n + 1):
        terms += [(f"J_{i}", n + i), (f"J_{n + i}", i)]
    conf = build_conformal(n, series)
    return [(label, conf.var_pos(idx)) for label, idx in terms]


@lru_cache(maxsize=None)
def _t_form(n: int, series: str) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
    """(s_b, s_k, s_0) with T = (s_b b + s_k k + s_0) eta on slice k of every
    A (x) V(mu) at every b, else None.  J_r x_r' is its field part (x) 1
    plus, per monomial, b central + orthogonal parts from `mixed._split`,
    the data the module's action is built from; D is the Euler operator."""
    conf = build_conformal(n, series)
    nv = conf.num_vars
    field, central, ortho = DiffOp.zero(nv), Poly.zero(nv), {}  # ortho: (exponent, o(n) index) -> coefficient
    for label, pos in _t_terms(n, series):
        field = field + conf.op(label) @ DiffOp.mult(Poly.var(nv, pos))
        for e, c, coeffs in _split(n, series, label):
            e = e[:pos] + (e[pos] + 1,) + e[pos + 1:]
            central = central + Poly.monomial(nv, e, c)
            for s, v in coeffs.items():
                ortho[e, s] = ortho.get((e, s), 0) + v
    eta = conf.eta()
    m, c = next(iter(eta.terms.items()))  # the scalars are read at one monomial of eta
    s_b = Fraction(central.terms.get(m, 0), c)
    s_0 = Fraction(field.apply(Poly.const(nv, 1)).terms.get(m, 0), c)  # D 1 = 0
    s_k = Fraction(field.apply(Poly.var(nv, 0)).terms.get((m[0] + 1,) + m[1:], 0), c) - s_0  # D x_0 = x_0
    euler = conf.op("D").scale(s_k) + DiffOp.identity(nv).scale(s_0)
    if any(ortho.values()) or central != eta.scale(s_b) or field != DiffOp.mult(eta) @ euler:
        return None
    return s_b, s_k, s_0


def t_scalar(mod: ConformalModule, k: int) -> Fraction:
    """The predicted scalar: T = scalar * (eta multiplication) on slice k."""
    if mod.series == "D":
        return 2 * mod.b + 2 - 2 * mod.n + k
    return 2 * mod.b - 2 * mod.n + k + 1


def t_identity(n: int, series: str) -> bool:
    """T == t_scalar * eta on every slice at every b: `_t_form` equals
    t_scalar's coefficients, read at (b, k) = (0, 0), (1, 0), (0, 1)."""
    def s(b, k):
        return t_scalar(SimpleNamespace(series=series, n=n, b=Fraction(b)), k)
    return _t_form(n, series) == (s(1, 0) - s(0, 0), s(0, 1) - s(0, 0), s(0, 0))


def verify_t_operator(mu: WeightVec, b, k: int) -> Dict[str, object]:
    """T == t_scalar * eta on slice k of A (x) V(mu) at b, by `_t_form` at
    this b and k.  The module only validates mu and gives t_scalar its b."""
    mod = ConformalModule(mu, b)
    if k < 0:
        raise ValueError(f"slice degree k must be >= 0, got {k}")
    scalar, form = t_scalar(mod, k), _t_form(mod.n, mod.series)
    match = form is not None and scalar == form[0] * mod.b + form[1] * k + form[2]
    return {"mu": str(mu), "series": mu.series, "b": str(mod.b), "k": k, "scalar": str(scalar), "match": match}
