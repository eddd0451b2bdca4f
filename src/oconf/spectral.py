"""The quadratic Casimir, the split Casimir on tensor modules, and the
degree-two invariant operator on the generalized conformal module.

The split Casimir matrix is assembled term by term from its definition (the
tensor factors act independently); its characteristic polynomial is then
compared against the closed-form spectrum predicted by the Pieri
decomposition.  The two routes are independent: one goes through explicit
representation matrices and exact Hessenberg charpoly, the other through
weight combinatorics only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from .linalg import SparseMat, charpoly, rank_of_rows
from .irreps import CapExceeded, build_irrep, casimir_matrix, tensor_with_natural
from .mixed import ConformalModule
from .poly import Poly
from .ortho import casimir_terms
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
    otm = omega_tilde_matrix(mu)
    computed = charpoly(otm)
    spec = omega_tilde_spectrum(mu)
    closed = closed_form_charpoly(spec)
    match = computed == closed

    V = build_irrep(mu)
    tm = tensor_with_natural(V, TENSOR_CAP)
    big = casimir_matrix(V.basis, tm.rep, tm.dim)  # the diagonal action's Casimir
    c_e1 = casimir_eigenvalue(epsilon(mu.series, mu.n, 1))
    c_mu = casimir_eigenvalue(mu)
    eye = SparseMat.identity(tm.dim)
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


def _t_terms(mod: ConformalModule) -> List[Tuple[str, int]]:
    """T's terms (J label, position of the variable it multiplies):
    J_i x_{n+i} and J_{n+i} x_i, plus J_0 x_0 for the odd series."""
    n = mod.n
    terms = [("J_0", 0)] if mod.series == "B" else []
    for i in range(1, n + 1):
        terms += [(f"J_{i}", n + i), (f"J_{n + i}", i)]
    return [(label, mod.conf.var_pos(idx)) for label, idx in terms]


def _check_degree(k: int):
    if k < 0:
        raise ValueError(f"slice degree k must be >= 0, got {k}")


def invariant_t_matrix(mod: ConformalModule, k: int) -> SparseMat:
    """T = sum_i (J_i x_{n+i} + J_{n+i} x_i) (+ J_0 x_0 for the odd series)
    as a map from slice k to slice k+2.

    Multiplying by x_idx only relabels: it sends x^e (x) v in slice k to
    x^(e + u_idx) (x) v.  So column x^e (x) v of M x_idx is column
    x^(e + u_idx) (x) v of J_i's matrix M on slice k+1, and T reads only
    the columns of M at monomials divisible by x_idx.  Just those are built
    (`ConformalModule.action_columns`), each sent back to its slice-k
    column; no whole slice-(k+1) matrix is built or stored.
    """
    _check_degree(k)
    dv = mod.dim_v
    monos_up = mod.monomials_of(k + 1)
    index = mod.mono_index(k)

    def entries():
        for label, pos in _t_terms(mod):
            cols: List[int] = []  # slice-(k+1) columns divisible by x_idx
            dest: List[int] = []  # the slice-k column each is sent back to
            for m1, e in enumerate(monos_up):
                if e[pos]:
                    m0 = index[e[:pos] + (e[pos] - 1,) + e[pos + 1:]]
                    cols.extend(range(m1 * dv, m1 * dv + dv))
                    dest.extend(range(m0 * dv, m0 * dv + dv))
            for col, vec in zip(dest, mod.action_columns(label, k + 1, cols)):
                for row, v in vec.items():
                    yield (row, col), v

    return SparseMat.from_entries(mod.slice_dim(k + 2), mod.slice_dim(k), entries())


def central_t_matrix(mod: ConformalModule, k: int) -> SparseMat:
    """T_C, the b-coefficient of T: T is linear in the action matrices, so
    T at b is T at the module's own charge plus (b - mod.b) T_C.

    The b-coefficient of J_i multiplies by its central polynomial p_i
    (`ConformalModule.central_poly`), so T_C multiplies by the single
    polynomial sum_i p_i x_idx, from slice k to slice k+2."""
    _check_degree(k)
    q = Poly.zero(mod.num_vars)
    for label, pos in _t_terms(mod):
        q = q + mod.central_poly(label) * Poly.var(mod.num_vars, pos)
    return mod.mult_matrix(q, k)  # J_i has central polynomial x_i, so q != 0


def t_scalar(mod: ConformalModule, k: int) -> Fraction:
    """The predicted scalar: T = scalar * (eta multiplication) on slice k."""
    if mod.series == "D":
        return 2 * mod.b + 2 - 2 * mod.n + k
    return 2 * mod.b - 2 * mod.n + k + 1


# T on slice k lands in slice k + 2, so `verify_t_operator` (`oconf
# t-operator`) allows slices twice the module default.
T_SLICE_CAP = 8192


def verify_t_operator(mu: WeightVec, b, k: int) -> Dict[str, object]:
    """T == t_scalar * eta on slice k: the sweep at the module's own b."""
    mod = ConformalModule(mu, b, slice_cap=T_SLICE_CAP)
    match = t_operator_sweep(mod, k, [mod.b])[mod.b]
    return {
        "mu": str(mu),
        "series": mu.series,
        "b": str(mod.b),
        "k": k,
        "scalar": str(t_scalar(mod, k)),
        "match": match,
    }


def t_operator_sweep(base: ConformalModule, k: int, bs) -> Dict[Fraction, bool]:
    """T == t_scalar * eta on slice k at every b in bs, from one module.

    Both sides are affine in b: T(b) = T0 + (b - b0) T_C, and the scalar
    is s(b) = s(b0) + (b - b0) slope, the slope read off `t_scalar` in the
    module at b0 + 1 (which builds no slice for it).  So T(b) - s(b) eta =
    E0 + (b - b0) E_C with the b-free parts E0 = T0 - s(b0) eta and
    E_C = T_C - slope eta, and each b is answered exactly by whether
    E0 + (b - b0) E_C is the zero matrix.  Only these two differences are
    built; no T(b) and no multiple of eta per b.  The slope, T_C and E_C
    are built only when some b differs from b0, so a sweep at b0 alone
    (`verify_t_operator`) builds E0 only.

    The degree and the caps are checked before anything is built: slice
    k + 1, whose J columns T reads, then slice k + 2, where T lands.
    """
    _check_degree(k)
    base.check_cap(k + 1)
    base.check_cap(k + 2)
    b0 = base.b
    bs = [Fraction(b) for b in bs]
    eta_mult = base.mult_matrix(base.conf.eta(), k)
    s0 = t_scalar(base, k)
    E0 = invariant_t_matrix(base, k).add_scaled(eta_mult, -s0)
    if all(b == b0 for b in bs):
        return {b: E0.is_zero() for b in bs}
    slope = t_scalar(ConformalModule(base.mu, b0 + 1, base.slice_cap), k) - s0
    EC = central_t_matrix(base, k).add_scaled(eta_mult, -slope)
    return {b: E0.add_scaled(EC, b - b0).is_zero() for b in bs}
