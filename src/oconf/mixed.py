"""Shen's mixed-product embedding and the generalized conformal module.

A conformal vector field xi = sum f_i d_i extends to an operator on
polynomial-coefficient vector valued functions as

    embed(xi) = xi + sum_{i,j} d_i(f_j) E_{i,j}

with E_{i,j} in gl(#vars).  For the conformal generators the matrix part
decomposes as (orthogonal part) + (scalar) * sum_p E_{p,p}; the scalar
multiplies the hidden central element, which acts on the twisted module by
the central charge b.  The module A (x) V(mu) is materialized degree by
degree: each graded slice A_k (x) V(mu) carries exact action matrices for
every generator, and the comparison map phi sending x^a (x) v to J^a(1 (x) v)
is realized as a matrix per degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SparseMat, canon, exact_scalar
from .ortho import OrthoBasis, _unit, build_conformal, build_ortho
from .poly import DiffOp, Poly, bracket as dbracket, monomial_basis
from .weights import Twice, WeightVec, natural_dim
from .irreps import CapExceeded, IrrepData, build_irrep

Exps = Tuple[int, ...]

DEFAULT_SLICE_CAP = 4096


class ExtendedOp:
    """Vector field plus polynomial-coefficient gl part (and nothing else).

    Immutable by convention, like `DiffOp`: `_images` memoizes the field
    applied to each gl exponent that a bracket has needed."""

    __slots__ = ("num_vars", "field", "gl", "_images")

    def __init__(self, num_vars: int, fld: DiffOp, gl: Optional[Dict[Exps, SparseMat]] = None):
        self.num_vars = num_vars
        self.field = fld
        self._images: Dict[Exps, Poly] = {}
        self.gl = {}
        for e, M in (gl or {}).items():
            if M.rows != num_vars or M.cols != num_vars:
                raise ValueError("gl coefficient has wrong size")
            if not M.is_zero():
                self.gl[e] = M

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedOp):
            return NotImplemented
        return self.num_vars == other.num_vars and self.field == other.field and self.gl == other.gl

    def scale(self, c) -> "ExtendedOp":
        return ExtendedOp(self.num_vars, self.field.scale(c), {e: M.scale(c) for e, M in self.gl.items()})

    def _field_image(self, e: Exps) -> Poly:
        """The vector field applied to x^e, computed once per exponent."""
        hit = self._images.get(e)
        if hit is None:
            hit = self._images[e] = self.field.apply(Poly.monomial(self.num_vars, e))
        return hit

    def bracket(self, other: "ExtendedOp") -> "ExtendedOp":
        """[d1+A1, d2+A2] = [d1,d2] + [A1,A2] + d1(A2) - d2(A1), the gl
        entries listed per exponent and each matrix built once from them.
        The gl matrices hold a few entries each, so [M1, M2] goes into the
        lists entry by entry: M1[i,k] M2[k,j] at (i, j), minus M2 M1."""
        nv = self.num_vars
        fld = dbracket(self.field, other.field)
        gl: Dict[Exps, List[Tuple[Tuple[int, int], Fraction]]] = {}

        def acc(e: Exps, M: SparseMat, c):
            gl.setdefault(e, []).extend((key, c * v) for key, v in M.data.items())

        for e1, M1 in self.gl.items():
            for e2, M2 in other.gl.items():
                entries = gl.setdefault(tuple(map(add, e1, e2)), [])
                for left, right, sign in ((M1.data, M2.data, 1), (M2.data, M1.data, -1)):
                    for (i, k), a in left.items():
                        entries.extend(((i, j), canon(sign * a * b)) for (r, j), b in right.items() if r == k)
        for e2, M2 in other.gl.items():
            for de, c in self._field_image(e2).terms.items():
                acc(de, M2, c)
        for e1, M1 in self.gl.items():
            for de, c in other._field_image(e1).terms.items():
                acc(de, M1, -c)
        return ExtendedOp(nv, fld, {e: SparseMat.from_entries(nv, nv, entries) for e, entries in gl.items()})

    def central_orthogonal_split(self, ob: OrthoBasis) -> List[Tuple[Exps, Fraction, Dict[int, Fraction]]]:
        """Per monomial: (exponent, central coefficient, orthogonal coefficients).

        Raises ValueError if some matrix coefficient is not (orthogonal) +
        (scalar identity), i.e. the operator escapes the twisted algebra.
        """
        nv = self.num_vars
        out = []
        for e, M in sorted(self.gl.items()):
            central = canon(Fraction(M.trace(), nv))
            rest = M - SparseMat.identity(nv).scale(central)
            coeffs = ob.expand(rest)  # raises if not in the orthogonal span
            out.append((e, central, coeffs))
        return out


def shen_embed(xi: DiffOp) -> ExtendedOp:
    """The mixed-product extension of a polynomial vector field.

    Each (exponent, i, j) entry is d_i(f_j) at one monomial, so it is set
    once, and each gl matrix is built once from its entries."""
    if not xi.is_vector_field():
        raise ValueError("mixed-product embedding is defined for vector fields only")
    nv = xi.num_vars
    gl: Dict[Exps, Dict[Tuple[int, int], Fraction]] = {}
    for j in range(nv):
        fj = xi.terms.get(_unit(nv, j))  # the coefficient of d_j, nonzero if present
        if fj is None:
            continue
        for i in range(nv):
            for e, c in fj.terms.items():
                if e[i]:  # x^e has x_i: d_i x^e = e_i x^(e - u_i)
                    gl.setdefault(e[:i] + (e[i] - 1,) + e[i + 1:], {})[(i, j)] = canon(c * e[i])
    # the entries are nonzero canonical Poly coefficients inside nv x nv
    return ExtendedOp(nv, xi, {e: SparseMat._trusted(nv, nv, data) for e, data in gl.items()})


def shen_closed_forms(n: int, series: str) -> Dict[str, ExtendedOp]:
    """The stated closed forms of the embedding on each conformal generator."""
    conf = build_conformal(n, series)
    nv = conf.num_vars
    zero = (0,) * nv
    E = build_ortho(nv).unit
    eye = SparseMat.identity(nv)
    out: Dict[str, ExtendedOp] = {}
    out["D"] = ExtendedOp(nv, conf.op("D"), {zero: eye})
    for r in conf.var_labels:
        out[f"d_{r}"] = ExtendedOp(nv, conf.op(f"d_{r}"), {})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[f"A_{{{i},{j}}}"] = ExtendedOp(nv, conf.op(f"A_{{{i},{j}}}"), {zero: E(i, j) - E(n + j, n + i)})
            if i < j:
                out[f"B_{{{i},{j}}}"] = ExtendedOp(nv, conf.op(f"B_{{{i},{j}}}"), {zero: E(i, n + j) - E(j, n + i)})
                out[f"C_{{{i},{j}}}"] = ExtendedOp(nv, conf.op(f"C_{{{i},{j}}}"), {zero: E(n + i, j) - E(n + j, i)})
    for i in range(1, n + 1):
        glp: Dict[Exps, SparseMat] = {}
        glm: Dict[Exps, SparseMat] = {}
        for p in range(1, n + 1):
            xnp = _unit(nv, conf.var_pos(n + p))
            xp = _unit(nv, conf.var_pos(p))
            glp[xnp] = glp.get(xnp, SparseMat(nv, nv)) + (E(i, n + p) - E(p, n + i))
            glp[xp] = glp.get(xp, SparseMat(nv, nv)) + (E(i, p) - E(n + p, n + i))
            glm[xnp] = glm.get(xnp, SparseMat(nv, nv)) + (E(n + i, n + p) - E(p, i))
            glm[xp] = glm.get(xp, SparseMat(nv, nv)) + (E(n + i, p) - E(n + p, i))
        xi = _unit(nv, conf.var_pos(i))
        xni = _unit(nv, conf.var_pos(n + i))
        glp[xi] = glp.get(xi, SparseMat(nv, nv)) + eye
        glm[xni] = glm.get(xni, SparseMat(nv, nv)) + eye
        if series == "B":
            x0 = _unit(nv, 0)
            glp[x0] = glp.get(x0, SparseMat(nv, nv)) + (E(i, 0) - E(0, n + i))
            glm[x0] = glm.get(x0, SparseMat(nv, nv)) + (E(n + i, 0) - E(0, i))
        out[f"J_{i}"] = ExtendedOp(nv, conf.op(f"J_{i}"), glp)
        out[f"J_{n + i}"] = ExtendedOp(nv, conf.op(f"J_{n + i}"), glm)
    if series == "B":
        for i in range(1, n + 1):
            out[f"K_{i}"] = ExtendedOp(nv, conf.op(f"K_{i}"), {zero: E(0, i) - E(n + i, 0)})
            out[f"K_{n + i}"] = ExtendedOp(nv, conf.op(f"K_{n + i}"), {zero: E(0, n + i) - E(i, 0)})
        gl0: Dict[Exps, SparseMat] = {}
        for s in range(1, n + 1):
            gl0[_unit(nv, conf.var_pos(s))] = E(0, s) - E(n + s, 0)
            gl0[_unit(nv, conf.var_pos(n + s))] = E(0, n + s) - E(s, 0)
        x0 = _unit(nv, 0)
        gl0[x0] = gl0.get(x0, SparseMat(nv, nv)) + eye
        out["J_0"] = ExtendedOp(nv, conf.op("J_0"), gl0)
    return out


def verify_shen_monomorphism(n: int, series: str) -> Dict[str, object]:
    """embed([xi,zeta]) = [embed(xi), embed(zeta)] for all generator pairs,
    closed-form agreement, and containment in the twisted algebra."""
    conf = build_conformal(n, series)
    small = build_ortho(natural_dim(series, n))
    labels = conf.labels()
    embeds = {lbl: _embed(n, series, lbl) for lbl in labels}
    failures: List[Dict[str, str]] = []
    for a in range(len(labels)):
        for bdx in range(a + 1, len(labels)):
            la, lb = labels[a], labels[bdx]
            # the field part of rhs is [conf.op(la), conf.op(lb)], so its
            # embedding is the left side and the gl parts are what is compared
            rhs = embeds[la].bracket(embeds[lb])
            lhs = shen_embed(rhs.field)
            if lhs != rhs:
                failures.append({"identity": f"embed[{la},{lb}]", "status": "fail"})
    closed = shen_closed_forms(n, series)
    closed_fail = [lbl for lbl in labels if embeds[lbl] != closed[lbl]]
    containment_fail = []
    central_parts: Dict[str, List[Tuple[Exps, Fraction]]] = {}
    for lbl in labels:
        try:
            split = embeds[lbl].central_orthogonal_split(small)
            central_parts[lbl] = [(e, c) for e, c, _ in split if c != 0]
        except ValueError:
            containment_fail.append(lbl)
    return {
        "series": series,
        "n": n,
        "pairs_checked": len(labels) * (len(labels) - 1) // 2,
        "bracket_failures": failures,
        "closed_form_failures": closed_fail,
        "containment_failures": containment_fail,
        "central_parts": central_parts,
        "ok": not failures and not closed_fail and not containment_fail,
    }


# ---------------------------------------------------------------------------
# The generalized conformal module, slice by slice


@lru_cache(maxsize=None)
def _embed(n: int, series: str, label: str) -> ExtendedOp:
    """The embedding of one generator, shared by every module of this series
    and rank: b enters only in `ConformalModule._pieces`."""
    return shen_embed(build_conformal(n, series).op(label))


@lru_cache(maxsize=None)
def _split(n: int, series: str, label: str) -> List[Tuple[Exps, Fraction, Dict[int, Fraction]]]:
    return _embed(n, series, label).central_orthogonal_split(build_ortho(natural_dim(series, n)))


@lru_cache(maxsize=None)
def _field_shifts(n: int, series: str, label: str) -> Dict[Exps, Tuple[int, List[Tuple[int, int]]]]:
    """The generator's vector field by exponent shift, shared by every module
    of this series and rank: shift -> (denominator, numerators), the terms
    c x^m of f_i with m - u_i = shift as (i, c * denominator)."""
    field: Dict[Exps, List[Tuple[int, Fraction]]] = {}
    for beta, p in _embed(n, series, label).field.terms.items():
        i = beta.index(1)
        for m, c in p.terms.items():
            field.setdefault(tuple(a - b for a, b in zip(m, beta)), []).append((i, c))
    out = {}
    for sh, terms in field.items():
        den = lcm(*(c.denominator for _, c in terms))
        out[sh] = (den, [(i, int(c * den)) for i, c in terms])
    return out


Columns = Tuple[Tuple[Tuple[int, Fraction], ...], ...]


def _by_column(M: SparseMat) -> Columns:
    """M's entries grouped by column, in M's order: item q holds the
    (r, value) of column q; () for the zero matrix.  Tuples, so every empty
    column is the one empty tuple."""
    if not M.data:
        return ()
    by_col: List[List[Tuple[int, Fraction]]] = [[] for _ in range(M.cols)]
    for (r, q), v in M.data.items():
        by_col[q].append((r, v))
    return tuple(map(tuple, by_col))


def _shifted_columns(by_col: Columns, dim: int, s) -> Columns:
    """`_by_column(block + s I)` from by_col = `_by_column(block)`, block
    being dim x dim: column q keeps its entries in order with s added to
    the diagonal one, drops that entry if it cancels, and ends with (q, s)
    if block has no diagonal entry there."""
    s = canon(s)
    out = []
    for q, col in enumerate(by_col or ((),) * dim):
        shifted = []
        diagonal = False
        for r, v in col:
            if r == q:
                diagonal = True
                v = canon(v + s)
                if not v:
                    continue
            shifted.append((r, v))
        if s and not diagonal:
            shifted.append((q, s))
        out.append(tuple(shifted))
    return tuple(out) if any(out) else ()


class ConformalModule:
    """A (x) V(mu) for one series, rank and central charge, built lazily.

    Slice k has the basis x^e (x) v_r, monomial-major: x^e (x) v_r has index
    mono_index(k)[e] * dim V + r.
    """

    def __init__(self, mu: WeightVec, b):
        self.mu = mu
        self.series = mu.series
        self.n = mu.n
        self.b = exact_scalar(b)
        self.conf = build_conformal(self.n, self.series)
        self.num_vars = self.conf.num_vars
        self.small = build_ortho(natural_dim(self.series, self.n))
        self.irrep: IrrepData = build_irrep(mu)
        self.dim_v = self.irrep.dim
        self.irrep_classes: Dict[Twice, List[int]] = {}  # doubled weight -> ascending r of v_r
        for r, w in enumerate(self.irrep.weights):
            self.irrep_classes.setdefault(w.twice, []).append(r)
        self._monos: Dict[int, List[Exps]] = {}
        self._mono_index: Dict[int, Dict[Exps, int]] = {}
        self._act: Dict[Tuple[str, int], SparseMat] = {}
        self._phi: Dict[int, SparseMat] = {}
        self._classes: Dict[int, Dict[Twice, List[int]]] = {}
        self._piece_memo: Dict[str, list] = {}  # label -> _pieces(label), at this b
        self._small_labels = self.small.labels()
        # ordered by label index, matching the monomial variable order
        self.j_labels = [f"J_{r}" for r in self.conf.var_labels]

    # -- bookkeeping -----------------------------------------------------------

    def monomials_of(self, k: int) -> List[Exps]:
        hit = self._monos.get(k)
        if hit is None:
            hit = monomial_basis(self.num_vars, k) if k >= 0 else []
            self._monos[k] = hit
            self._mono_index[k] = {e: i for i, e in enumerate(hit)}
        return hit

    def slice_dim(self, k: int) -> int:
        """dim A_k (x) V(mu), counted, not built: there are
        C(k + m - 1, m - 1) monomials of degree k in m variables."""
        m = self.num_vars
        return comb(k + m - 1, m - 1) * self.dim_v if k >= 0 else 0

    def mono_index(self, k: int) -> Dict[Exps, int]:
        self.monomials_of(k)
        return self._mono_index[k]

    def var_weights(self) -> List[Tuple[int, ...]]:
        """Doubled o(n)-weight of each variable, in monomial order: x_r has
        weight +e_r for r <= n, -e_{r-n} for r > n, and B's x_0 weight 0.
        J_r, at the same position of `j_labels`, has the weight of x_r."""
        n = self.n
        axes = [(q % n, 2 if q < n else -2) for q in range(2 * n)]
        zero = [(0,) * n] * (self.num_vars - 2 * n)  # x_0 comes first in B
        return zero + [tuple(s if i == a else 0 for i in range(n)) for a, s in axes]

    def weight_classes(self, k: int) -> Dict[Twice, List[int]]:
        """The monomials of degree k grouped by doubled o(n)-weight: the
        weight of x^e maps to the ascending indexes mi of the monomials that
        have it.  x^e has the doubled weight 2 (e_i - e_(n+i)) in coordinate
        i, and x^e (x) v_r (index mi * dim_v + r) the weight of x^e plus
        that of v_r; the Cartan elements A_{i,i} act on the slice basis
        diagonally, with the halved coordinates as eigenvalues."""
        hit = self._classes.get(k)
        if hit is None:
            n = self.n
            off = self.num_vars - 2 * n  # B's x_0 comes first
            monos = self.monomials_of(k)
            axes = list(zip(*monos)) if monos else [()] * self.num_vars  # axes[v]: x_v's exponent in each
            weights = zip(*[[2 * (p - q) for p, q in zip(axes[off + i], axes[off + n + i])] for i in range(n)])
            hit = {}
            for mi, w in enumerate(weights):
                hit.setdefault(w, []).append(mi)
            self._classes[k] = hit
        return hit

    def check_cap(self, k: int):
        """Raise CapExceeded if slice k is larger than DEFAULT_SLICE_CAP; builds nothing."""
        d = self.slice_dim(k)
        if d > DEFAULT_SLICE_CAP:
            raise CapExceeded(f"slice dimension {d} at degree {k} exceeds cap {DEFAULT_SLICE_CAP}")

    def degree_shift(self, label: str) -> int:
        if label.startswith("d_"):
            return -1
        if label.startswith("J_"):
            return 1
        return 0

    # -- action matrices ---------------------------------------------------------

    def _pieces(self, label: str) -> List[Tuple[Exps, int, List[Tuple[int, int]], Columns, dict]]:
        """The generator as (exponent shift, denominator, numerators, block
        by column, memo).

        The vector field sum_i f_i d_i sends x^e to sum_i e_i f_i x^(e - u_i):
        a term c x^m of f_i moves x^e by the shift m - u_i with the scalar
        c e_i.  A gl term x^g M moves x^e by g and acts on V(mu) by the block
        M = (central * b) I + (orthogonal part acting through V(mu)).  Per
        shift, x^e (x) v goes to x^(e + shift) (x) (block + s I) v with
        s = sum(numerator * e_i) / denominator.  The pieces do not depend
        on the degree, so they are computed once per label, each block
        grouped by column (`_by_column`); the memo, filled by `_stencil`,
        maps a numerator to the columns of block + s I (`_shifted_columns`),
        so a caller that wants some columns touches only theirs.
        """
        hit = self._piece_memo.get(label)
        if hit is not None:
            return hit
        field = _field_shifts(self.n, self.series, label)
        blocks: Dict[Exps, SparseMat] = {}
        for ge, central, coeffs in _split(self.n, self.series, label):
            block = SparseMat.identity(self.dim_v).scale(central * self.b)
            for sidx, sc in coeffs.items():
                block = block + self.irrep.rep[self._small_labels[sidx]].scale(sc)
            blocks[ge] = block
        pieces = []
        for sh in sorted(set(field) | set(blocks)):
            den, nums = field.get(sh, (1, []))
            pieces.append((sh, den, nums, _by_column(blocks[sh]) if sh in blocks else (), {}))
        self._piece_memo[label] = pieces
        return pieces

    def action_matrix(self, label: str, k: int) -> SparseMat:
        """Matrix of the generator from slice k to slice k + shift."""
        key = (label, k)
        hit = self._act.get(key)
        if hit is None:
            hit = self._act[key] = self._build_action(label, k)
        return hit

    def action_columns(self, label: str, k: int, cols: Sequence[int]) -> List[Dict[int, Fraction]]:
        """Columns `cols` of `action_matrix(label, k)`, as sparse dicts, in the
        order asked (a repeated column is the same dict), built by the
        stencil loop alone."""
        dv = self.dim_v
        out: Dict[int, Dict[int, Fraction]] = {c: {} for c in cols}
        dests: Dict[int, List[Tuple[int, Dict[int, Fraction]]]] = {}  # mi -> (q, column q's dict)
        for c, vec in out.items():
            dests.setdefault(c // dv, []).append((c % dv, vec))
        for row, mi, by_col in self._stencil(label, k, sorted(dests)):
            for q, vec in dests[mi]:
                for r, v in by_col[q]:
                    vec[row + r] = v
        return [out[c] for c in cols]

    def _build_action(self, label: str, k: int) -> SparseMat:
        kt = k + self.degree_shift(label)
        dv = self.dim_v
        data: Dict[Tuple[int, int], Fraction] = {}
        for row, mi, by_col in self._stencil(label, k):
            col = mi * dv  # column mi * dv + q, q counting up through by_col
            for entries in by_col:
                for r, v in entries:
                    data[(row + r, col)] = v
                col += 1
        # every v is a stored (so nonzero) entry of block + s I; row indexes
        # a monomial of slice kt and col one of slice k, and r, q < dv
        return SparseMat._trusted(self.slice_dim(kt), self.slice_dim(k), data)

    def _stencil(self, label: str, k: int, mis: Optional[Sequence[int]] = None):
        """Yield (row, mi, by_col) for every piece of the generator and every
        monomial index mi of slice k (all, or those in `mis`, ascending)
        whose block + s I is nonzero:
        column mi * dim_v + q of the matrix from slice k holds the (r, v) of
        by_col[q] at rows row + r.  One piece's rows never meet another's
        (their shifts differ)."""
        kt = k + self.degree_shift(label)
        self.check_cap(k)
        self.check_cap(kt)
        monos = self.monomials_of(k)
        tindex = self.mono_index(kt)
        dv = self.dim_v
        if mis is None:
            mis = range(len(monos))
        for sh, den, nums, block_cols, by_num in self._pieces(label):
            for mi in mis:
                e = monos[mi]
                num = 0
                for i, c in nums:
                    num += c * e[i]
                by_col = by_num.get(num)
                if by_col is None:
                    by_col = by_num[num] = _shifted_columns(block_cols, dv, Fraction(num, den))
                if by_col:  # else x^(e + sh) may not even be a monomial
                    yield tindex[tuple(map(add, e, sh))] * dv, mi, by_col

    # -- multiplication by polynomials -------------------------------------------

    def central_poly(self, label: str) -> Poly:
        """The label's central polynomial sum_g central_g x^g (b-free): b
        enters the generator's action only as b times multiplication by it."""
        return Poly(self.num_vars, {ge: central for ge, central, _ in _split(self.n, self.series, label)})

    def mult_matrix(self, p: Poly, k: int) -> SparseMat:
        """Multiplication by a homogeneous polynomial, slice k -> k + deg p."""
        kt = k + p.degree()
        monos = self.monomials_of(k)
        tindex = self.mono_index(kt)
        dv = self.dim_v
        data: Dict[Tuple[int, int], Fraction] = {}
        for mi, e in enumerate(monos):
            for pe, c in p.terms.items():
                row = tindex[tuple(a + g for a, g in zip(e, pe))] * dv
                for r in range(dv):
                    data[(row + r, mi * dv + r)] = c
        # distinct terms of p reach distinct monomials, so each key is set
        # once, and each value is a nonzero coefficient of p
        return SparseMat._trusted(self.slice_dim(kt), len(monos) * dv, data)

    # -- the comparison map phi ---------------------------------------------------

    def phi_matrix(self, k: int) -> SparseMat:
        """Matrix of x^a (x) v  ->  J^a (1 (x) v) on slice k (a square map)."""
        hit = self._phi.get(k)
        if hit is not None:
            return hit
        self.check_cap(k)
        if k == 0:
            out = SparseMat.identity(self.dim_v)
        else:
            prev_cols = self.phi_matrix(k - 1).col_vectors()
            prev_index = self.mono_index(k - 1)
            dv = self.dim_v
            # column x^e (x) v is J_i applied to column x^(e - u_i) (x) v of
            # phi_{k-1}, i the first variable of x^e; batched per J_i
            batches: Dict[int, Tuple[List[int], List[Dict[int, Fraction]]]] = {}
            for mi, e in enumerate(self.monomials_of(k)):
                i = next(t for t, x in enumerate(e) if x > 0)
                pcol = prev_index[e[:i] + (e[i] - 1,) + e[i + 1:]] * dv
                cols, vecs = batches.setdefault(i, ([], []))
                cols.extend(range(mi * dv, mi * dv + dv))
                vecs.extend(prev_cols[pcol:pcol + dv])
            data: Dict[Tuple[int, int], Fraction] = {}
            for i, (cols, vecs) in batches.items():
                images = self.action_matrix(self.j_labels[i], k - 1).apply_all(vecs)
                for col, vec in zip(cols, images):
                    for row, v in vec.items():
                        data[(row, col)] = v
            out = SparseMat(self.slice_dim(k), self.slice_dim(k), data)
        self._phi[k] = out
        return out
