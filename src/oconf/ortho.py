"""Matrix realizations of o(m,C) in split form and the conformal operator
algebras they map onto.

o(2n) is spanned by E_{p,n+q}-E_{q,n+p}, E_{n+p,q}-E_{n+q,p} (p<q) and
E_{i,j}-E_{n+j,n+i}; o(2n+1) adds E_{0,i}-E_{n+i,0} and E_{0,n+i}-E_{i,0}.
The conformal algebra over 2n (or 2n+1) variables is generated by the
translations, the rotations A/B/C (plus K for the odd series), the Euler
operator D and the special conformal operators J; the isomorphism `theta`
identifies it with o(2n+2) (resp. o(2n+3)).

Every identity the construction relies on is re-checked mechanically by
`verify_bracket_tables` / `verify_theta_homomorphism`, which return pass/fail
reports rather than trusting the algebra; `bracket_identities` yields the
bracket identities unformatted, for callers that read only whether they
hold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from .linalg import SparseMat, canon, rank_of_rows
from .poly import DiffOp, Poly, bracket
from .weights import MIN_RANK, _rho_twice, natural_dim

Root = Tuple[int, ...]  # integral, so ints (see `linalg.canon`)


class BasisElement:
    __slots__ = ("label", "eterms", "root", "kind")

    def __init__(self, label: str, eterms: Tuple[Tuple[int, int, int], ...], root: Optional[Root], kind: str):
        self.label = label
        self.eterms = eterms  # (row, col, sign) in label indices
        self.root = root  # None for Cartan elements
        self.kind = kind  # "cartan" | "pos" | "neg"


class OrthoBasis:
    """Ordered basis of o(m,C): Cartan first, then positive root vectors by
    height, then the matching negatives."""

    __slots__ = ("m", "series", "n", "elements", "index", "_lead", "_mats", "_bracket_cache")

    def __init__(self, m: int, series: str, n: int, elements: List[BasisElement]):
        self.m = m
        self.series = series
        self.n = n
        self.elements = elements
        self.index = {e.label: i for i, e in enumerate(self.elements)}
        self._lead: Dict[Tuple[int, int], int] = {}
        for i, e in enumerate(self.elements):
            a, b, _ = e.eterms[0]
            pos = (self._pos(a), self._pos(b))
            if pos in self._lead:
                raise AssertionError("lead entries collide")
            self._lead[pos] = i
        self._mats = [self._matrix_of(e) for e in self.elements]
        self._bracket_cache: Dict[Tuple[int, int], Tuple[Tuple[int, Fraction], ...]] = {}

    def _pos(self, label_idx: int) -> int:
        return label_idx - 1 if self.series == "D" else label_idx

    def _matrix_of(self, e: BasisElement) -> SparseMat:
        data: Dict[Tuple[int, int], Fraction] = {}
        for a, b, s in e.eterms:
            key = (self._pos(a), self._pos(b))
            data[key] = data.get(key, 0) + s
        return SparseMat(self.m, self.m, data)

    def __len__(self) -> int:
        return len(self.elements)

    def matrix(self, i) -> SparseMat:
        if isinstance(i, str):
            i = self.index[i]
        return self._mats[i]

    def labels(self) -> List[str]:
        return [e.label for e in self.elements]

    def unit(self, a: int, b: int) -> SparseMat:
        """The matrix unit E_{a,b}, in label indices."""
        return SparseMat(self.m, self.m, {(self._pos(a), self._pos(b)): 1})

    def cartan_indices(self) -> List[int]:
        return [i for i, e in enumerate(self.elements) if e.kind == "cartan"]

    def expand(self, M: SparseMat) -> Dict[int, Fraction]:
        """Coefficients of M in the basis, by basis index (lead entries are
        disjoint, so each entry of M at a lead position is a coefficient).

        Raises ValueError if M is not in the span.
        """
        found = []
        for key, v in M.data.items():
            idx = self._lead.get(key)
            if idx is not None:
                found.append((idx, v))
        coeffs = dict(sorted(found))
        recon = SparseMat.from_entries(self.m, self.m, (
            (key, c * v) for idx, c in coeffs.items() for key, v in self._mats[idx].data.items()))
        if recon != M:
            raise ValueError("matrix is not in the span of the orthogonal basis")
        return coeffs

    def bracket_coeffs(self, i: int, j: int) -> Tuple[Tuple[int, Fraction], ...]:
        """[X_i, X_j] expanded in the basis; cached."""
        key = (i, j)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        out = tuple(sorted(self.expand(self._mats[i].bracket(self._mats[j])).items()))
        self._bracket_cache[key] = out
        return out

    def split_form_matrix(self) -> SparseMat:
        """The symmetric bilinear form G preserved by the algebra."""
        data = {}
        n = self.n
        if self.series == "B":
            data[(0, 0)] = 1
        off = 0 if self.series == "D" else 1
        for i in range(n):
            data[(off + i, off + n + i)] = 1
            data[(off + n + i, off + i)] = 1
        return SparseMat(self.m, self.m, data)


def _root_height(series: str, n: int, root: Root) -> int:
    """Height of a positive root: its pairing with rho-check, the half-sum
    of the positive coroots.  2 rho-check is 2 rho for D, and 2 rho plus 1
    in each coordinate for B (the short roots e_i have coroots 2 e_i)."""
    shift = 1 if series == "B" else 0
    return sum(c * (r + shift) for c, r in zip(root, _rho_twice(series, n))) // 2


@lru_cache(maxsize=None)
def build_ortho(m: int) -> OrthoBasis:
    """Basis of o(m,C) in the split realization, m >= 3.

    Built once per m: the returned basis is shared by every caller and must
    not be mutated (its bracket memo aside).
    """
    if m < 3:
        raise ValueError("o(m) realization requires m >= 3")
    series = "D" if m % 2 == 0 else "B"
    n = m // 2

    def root(*pairs) -> Root:
        v = [0] * n
        for idx, c in pairs:
            v[idx - 1] += c
        return tuple(v)

    cartan: List[BasisElement] = []
    pos: List[BasisElement] = []
    neg: List[BasisElement] = []
    for i in range(1, n + 1):
        cartan.append(
            BasisElement(f"E_{{{i},{i}}}-E_{{{n + i},{n + i}}}", ((i, i, 1), (n + i, n + i, -1)), None, "cartan")
        )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            el = BasisElement(
                f"E_{{{i},{j}}}-E_{{{n + j},{n + i}}}",
                ((i, j, 1), (n + j, n + i, -1)),
                root((i, 1), (j, -1)),
                "pos" if i < j else "neg",
            )
            (pos if i < j else neg).append(el)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            pos.append(
                BasisElement(
                    f"E_{{{p},{n + q}}}-E_{{{q},{n + p}}}",
                    ((p, n + q, 1), (q, n + p, -1)),
                    root((p, 1), (q, 1)),
                    "pos",
                )
            )
            neg.append(
                BasisElement(
                    f"E_{{{n + p},{q}}}-E_{{{n + q},{p}}}",
                    ((n + p, q, 1), (n + q, p, -1)),
                    root((p, -1), (q, -1)),
                    "neg",
                )
            )
    if series == "B":
        for i in range(1, n + 1):
            pos.append(
                BasisElement(
                    f"E_{{0,{n + i}}}-E_{{{i},0}}",
                    ((0, n + i, 1), (i, 0, -1)),
                    root((i, 1)),
                    "pos",
                )
            )
            neg.append(
                BasisElement(
                    f"E_{{0,{i}}}-E_{{{n + i},0}}",
                    ((0, i, 1), (n + i, 0, -1)),
                    root((i, -1)),
                    "neg",
                )
            )

    def sort_key(e: BasisElement):
        r = e.root
        if e.kind == "neg":
            r = tuple(-c for c in r)
        return (_root_height(series, n, r), r)

    pos.sort(key=sort_key)
    neg.sort(key=sort_key)
    return OrthoBasis(m, series, n, cartan + pos + neg)


# ---------------------------------------------------------------------------
# Conformal differential-operator algebras


class ConformalBasis:
    """Generators of the conformal algebra over 2n (D) or 2n+1 (B) variables.

    Variable numbering follows the matrix realization: x_1..x_2n for D,
    x_0..x_2n for B (x_0 at position 0).
    """

    __slots__ = ("series", "n", "num_vars", "elements", "table")

    def __init__(self, series: str, n: int, num_vars: int, elements: List[Tuple[str, DiffOp]]):
        self.series = series
        self.n = n
        self.num_vars = num_vars
        self.elements = elements
        self.table = dict(elements)

    def __len__(self):
        return len(self.elements)

    def op(self, label: str) -> DiffOp:
        return self.table[label]

    def labels(self) -> List[str]:
        return [lbl for lbl, _ in self.elements]

    @property
    def var_labels(self) -> range:
        """The variables' label indices, in position order: 1..2n (D),
        0..2n (B)."""
        return range(1 if self.series == "D" else 0, 2 * self.n + 1)

    def var_pos(self, label_idx: int) -> int:
        return label_idx - 1 if self.series == "D" else label_idx

    def x(self, label_idx: int) -> Poly:
        return Poly.var(self.num_vars, self.var_pos(label_idx))

    def partial(self, label_idx: int) -> DiffOp:
        return DiffOp.partial(self.num_vars, self.var_pos(label_idx))

    def eta(self) -> Poly:
        nv, n = self.num_vars, self.n
        out = Poly.zero(nv)
        if self.series == "B":
            out = out + Poly.monomial(nv, _unit(nv, 0, 2), Fraction(1, 2))
        for i in range(1, n + 1):
            e = [0] * nv
            e[self.var_pos(i)] = 1
            e[self.var_pos(n + i)] = 1
            out = out + Poly.monomial(nv, tuple(e))
        return out

    def laplacian(self) -> DiffOp:
        nv, n = self.num_vars, self.n
        out = DiffOp.zero(nv)
        if self.series == "B":
            out = out + DiffOp(nv, {_unit(nv, 0, 2): Poly.const(nv, 1)})
        for i in range(1, n + 1):
            beta = [0] * nv
            beta[self.var_pos(i)] = 1
            beta[self.var_pos(n + i)] = 1
            c = 1 if self.series == "D" else 2
            out = out + DiffOp(nv, {tuple(beta): Poly.const(nv, c)})
        return out

    def euler(self) -> DiffOp:
        nv = self.num_vars
        out = DiffOp.zero(nv)
        for v in range(nv):
            out = out + DiffOp.mult(Poly.var(nv, v)) @ DiffOp.partial(nv, v)
        return out

    def rotation(self, family: str, i: int, j: int) -> DiffOp:
        """A/B/C/K operators from their defining formulas, any indices."""
        n = self.n
        x, d = self.x, self.partial

        def md(p: Poly, op: DiffOp) -> DiffOp:
            return DiffOp.mult(p) @ op

        if family == "A":
            return md(x(i), d(j)) - md(x(n + j), d(n + i))
        if family == "B":
            return md(x(i), d(n + j)) - md(x(j), d(n + i))
        if family == "C":
            return md(x(n + i), d(j)) - md(x(n + j), d(i))
        if family == "K":
            # K_i = x_0 d_i - x_{n+i} d_0 ; K_{n+i} = x_0 d_{n+i} - x_i d_0
            if i <= n:
                return md(x(0), d(i)) - md(x(n + i), d(0))
            return md(x(0), d(i)) - md(x(i - n), d(0))
        raise ValueError(family)

    def special_conformal(self, r: int) -> DiffOp:
        """J_r = x_r D - eta d_{r'} with r' the index paired by the metric,
        D the basis's own Euler operator `op("D")`."""
        n = self.n
        if self.series == "B" and r == 0:
            partner = 0
        elif r <= n:
            partner = n + r
        else:
            partner = r - n
        return (DiffOp.mult(self.x(r)) @ self.op("D")) - (DiffOp.mult(self.eta()) @ self.partial(partner))


def _unit(nv: int, pos: int, k: int = 1) -> Tuple[int, ...]:
    e = [0] * nv
    e[pos] = k
    return tuple(e)


@lru_cache(maxsize=None)
def build_conformal(n: int, series: str) -> ConformalBasis:
    """The conformal generators over natural_dim(series, n) variables.

    Built once per (n, series): the returned basis is shared by every caller
    and must not be mutated.
    """
    if series in MIN_RANK and n < MIN_RANK[series]:
        raise ValueError(f"{series} series needs n >= {MIN_RANK[series]}")
    num_vars = natural_dim(series, n)
    cb = ConformalBasis(series, n, num_vars, [])
    elements: List[Tuple[str, DiffOp]] = [("D", cb.euler())]
    cb.table.update(elements)  # D is built once: every J_r reads it
    for r in cb.var_labels:
        elements.append((f"d_{r}", cb.partial(r)))
    for r in cb.var_labels:
        elements.append((f"J_{r}", cb.special_conformal(r)))
    if series == "B":
        for s in range(1, 2 * n + 1):
            elements.append((f"K_{s}", cb.rotation("K", s, 0)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            elements.append((f"A_{{{i},{j}}}", cb.rotation("A", i, j)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            elements.append((f"B_{{{i},{j}}}", cb.rotation("B", i, j)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            elements.append((f"C_{{{i},{j}}}", cb.rotation("C", i, j)))
    cb.elements = elements
    cb.table = dict(elements)
    return cb


# ---------------------------------------------------------------------------
# The isomorphism theta : o(2n+2) -> C_2n  (resp. o(2n+3) -> C_{2n+1})


def theta_images(n: int, series: str) -> Tuple[OrthoBasis, ConformalBasis, Dict[str, DiffOp]]:
    """The big orthogonal basis, the conformal basis, and the image table.

    Every image is a generator of the conformal basis, read from its table,
    or its negative."""
    conf = build_conformal(n, series)
    gen = conf.op
    ob = build_ortho(natural_dim(series, n) + 2)
    N = n + 1
    images: Dict[str, DiffOp] = {}

    def img(label: str, op: DiffOp):
        images[label] = op

    for i in range(1, N + 1):
        lbl = f"E_{{{i},{i}}}-E_{{{N + i},{N + i}}}"
        if i <= n:
            img(lbl, gen(f"A_{{{i},{i}}}"))
        else:
            img(lbl, -gen("D"))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            lbl = f"E_{{{i},{j}}}-E_{{{N + j},{N + i}}}"
            if i <= n and j <= n:
                img(lbl, gen(f"A_{{{i},{j}}}"))
            elif i == N and j <= n:
                img(lbl, gen(f"d_{j}"))
            elif i <= n and j == N:
                img(lbl, -gen(f"J_{i}"))
    for p in range(1, N + 1):
        for q in range(p + 1, N + 1):
            plus = f"E_{{{p},{N + q}}}-E_{{{q},{N + p}}}"
            minus = f"E_{{{N + p},{q}}}-E_{{{N + q},{p}}}"
            if q <= n:
                img(plus, gen(f"B_{{{p},{q}}}"))
                img(minus, gen(f"C_{{{p},{q}}}"))
            else:  # q == N
                img(plus, -gen(f"d_{n + p}"))
                img(minus, -gen(f"J_{n + p}"))
    if series == "B":
        for i in range(1, N + 1):
            down = f"E_{{0,{i}}}-E_{{{N + i},0}}"
            up = f"E_{{0,{N + i}}}-E_{{{i},0}}"
            if i <= n:
                img(down, gen(f"K_{i}"))
                img(up, gen(f"K_{n + i}"))
            else:
                # the homomorphism property forces -J_0 here: pairing against
                # E_{0,2n+2}-E_{n+1,0} -> -d_0 gives [.,.] = -(E_{n+1,n+1}-E_{2n+2,2n+2})
                # whose image is +D = [-d_0, -J_0]
                img(down, -gen("J_0"))
                img(up, -gen("d_0"))
    missing = [e.label for e in ob.elements if e.label not in images]
    if missing:
        raise AssertionError(f"theta images missing for {missing}")
    return ob, conf, images


def theta(ob: OrthoBasis, images: Dict[str, DiffOp], M: SparseMat) -> DiffOp:
    """Image of an o(2n+2)/o(2n+3) matrix under the conformal isomorphism:
    sum_idx c_idx theta(X_idx), summed per (beta, monomial) into one dict."""
    nv = next(iter(images.values())).num_vars
    acc: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
    for idx, c in ob.expand(M).items():
        for beta, p in images[ob.elements[idx].label].terms.items():
            out = acc.get(beta)
            if out is None:
                out = acc[beta] = {}
            for e, v in p.terms.items():
                # each partial sum canonical, as in `SparseMat.from_entries`
                w = out.get(e)
                out[e] = canon(c * v) if w is None else canon(w + c * v)
    return DiffOp(nv, {beta: Poly(nv, terms) for beta, terms in acc.items()})


# ---------------------------------------------------------------------------
# Mechanical verification reports


def _report_entry(identity: str, lhs: DiffOp, rhs: DiffOp) -> Dict[str, str]:
    # operators are stored in canonical normal order, so lhs == rhs iff
    # lhs - rhs is zero; the difference is built for a failing identity only
    ok = lhs == rhs
    return {
        "identity": identity,
        "status": "pass" if ok else "fail",
        "lhs": repr(lhs),
        "rhs": repr(rhs),
        "diff": "0" if ok else repr(lhs - rhs),
    }


def bracket_identities(n: int, series: str) -> Iterator[Tuple[str, DiffOp, DiffOp]]:
    """Every stated identity among the generators, as (name, lhs, rhs): the
    exact commutator and its stated value.  The identity holds iff lhs ==
    rhs; each operator is read from the table or built once."""
    conf = build_conformal(n, series)
    Dop = conf.op("D")
    nv = conf.num_vars
    zero = DiffOp.zero(nv)
    var_range = conf.var_labels
    J = {r: conf.op(f"J_{r}") for r in var_range}
    P = {r: conf.op(f"d_{r}") for r in var_range}
    build = lru_cache(maxsize=None)(conf.rotation)

    def rotation(family: str, i: int, j: int) -> DiffOp:
        """A_{i,j}, and B/C_{i,j} for i < j, from the table; others built once."""
        if family == "A" or i < j:
            return conf.op(f"{family}_{{{i},{j}}}")
        return build(family, i, j)

    def delta(a: int, b: int) -> Fraction:
        return Fraction(1 if a == b else 0)

    for a in var_range:
        for c in var_range:
            if a <= c:
                yield (f"[J_{a},J_{c}]=0", bracket(J[a], J[c]), zero)
                yield (f"[d_{a},d_{c}]=0", bracket(P[a], P[c]), zero)
    rng = range(1, n + 1)
    for k in rng:
        for i in rng:
            yield (f"[d_{k},J_{n + i}]=C_{{{i},{k}}}", bracket(P[k], J[n + i]), rotation("C", i, k))
            yield (f"[d_{n + k},J_{i}]=B_{{{i},{k}}}", bracket(P[n + k], J[i]), rotation("B", i, k))
            yield (
                f"[d_{k},J_{i}]=delta*D+A_{{{i},{k}}}",
                bracket(P[k], J[i]),
                Dop.scale(delta(k, i)) + rotation("A", i, k),
            )
            yield (
                f"[d_{n + k},J_{n + i}]=delta*D-A_{{{k},{i}}}",
                bracket(P[n + k], J[n + i]),
                Dop.scale(delta(k, i)) - rotation("A", k, i),
            )
    for k in rng:
        for i in rng:
            for j in rng:
                Aij = rotation("A", i, j)
                yield (f"[d_{k},A_{{{i},{j}}}]=delta*d_{j}", bracket(P[k], Aij), P[j].scale(delta(k, i)))
                yield (
                    f"[d_{n + k},A_{{{i},{j}}}]=-delta*d_{n + i}",
                    bracket(P[n + k], Aij),
                    P[n + i].scale(-delta(k, j)),
                )
                yield (f"[J_{k},A_{{{i},{j}}}]=-delta*J_{i}", bracket(J[k], Aij), J[i].scale(-delta(k, j)))
                yield (f"[J_{n + k},A_{{{i},{j}}}]=delta*J_{n + j}", bracket(J[n + k], Aij), J[n + j].scale(delta(k, i)))
                if i < j:
                    Bij = rotation("B", i, j)
                    Cij = rotation("C", i, j)
                    yield (
                        f"[d_{k},B_{{{i},{j}}}]",
                        bracket(P[k], Bij),
                        P[n + j].scale(delta(k, i)) - P[n + i].scale(delta(k, j)),
                    )
                    yield (f"[d_{k},C_{{{i},{j}}}]=0", bracket(P[k], Cij), zero)
                    yield (f"[d_{n + k},B_{{{i},{j}}}]=0", bracket(P[n + k], Bij), zero)
                    yield (
                        f"[d_{n + k},C_{{{i},{j}}}]",
                        bracket(P[n + k], Cij),
                        P[j].scale(delta(k, i)) - P[i].scale(delta(k, j)),
                    )
                    yield (f"[J_{k},B_{{{i},{j}}}]=0", bracket(J[k], Bij), zero)
                    yield (
                        f"[J_{k},C_{{{i},{j}}}]",
                        bracket(J[k], Cij),
                        J[n + j].scale(delta(k, i)) - J[n + i].scale(delta(k, j)),
                    )
                    yield (
                        f"[J_{n + k},B_{{{i},{j}}}]",
                        bracket(J[n + k], Bij),
                        J[j].scale(delta(k, i)) - J[i].scale(delta(k, j)),
                    )
                    yield (f"[J_{n + k},C_{{{i},{j}}}]=0", bracket(J[n + k], Cij), zero)
    for k in var_range:
        yield (f"[D,J_{k}]=J_{k}", bracket(Dop, J[k]), J[k])
        yield (f"[d_{k},D]=d_{k}", bracket(P[k], Dop), P[k])

    if series == "B":
        K = {s: conf.op(f"K_{s}") for s in range(1, 2 * n + 1)}
        yield ("[d_0,J_0]=D", bracket(P[0], J[0]), Dop)
        for i in rng:
            yield (f"[d_0,J_{n + i}]=-K_{i}", bracket(P[0], J[n + i]), -K[i])
            yield (f"[d_0,J_{i}]=-K_{n + i}", bracket(P[0], J[i]), -K[n + i])
            yield (f"[d_0,K_{i}]=d_{i}", bracket(P[0], K[i]), P[i])
            yield (f"[d_0,K_{n + i}]=d_{n + i}", bracket(P[0], K[n + i]), P[n + i])
            yield (f"[d_{i},J_0]=K_{i}", bracket(P[i], J[0]), K[i])
            yield (f"[d_{n + i},J_0]=K_{n + i}", bracket(P[n + i], J[0]), K[n + i])
            yield (f"[J_0,K_{i}]=J_{n + i}", bracket(J[0], K[i]), J[n + i])
            yield (f"[J_0,K_{n + i}]=J_{i}", bracket(J[0], K[n + i]), J[i])
            for j in rng:
                yield (f"[d_{i},K_{j}]=0", bracket(P[i], K[j]), zero)
                yield (f"[d_{n + i},K_{n + j}]=0", bracket(P[n + i], K[n + j]), zero)
                yield (f"[d_{i},K_{n + j}]=-delta*d_0", bracket(P[i], K[n + j]), P[0].scale(-delta(i, j)))
                yield (f"[d_{n + i},K_{j}]=-delta*d_0", bracket(P[n + i], K[j]), P[0].scale(-delta(i, j)))
                yield (f"[J_{i},K_{j}]=-delta*J_0", bracket(J[i], K[j]), J[0].scale(-delta(i, j)))
                yield (f"[J_{n + i},K_{n + j}]=-delta*J_0", bracket(J[n + i], K[n + j]), J[0].scale(-delta(i, j)))
                yield (f"[J_{i},K_{n + j}]=0", bracket(J[i], K[n + j]), zero)
                yield (f"[J_{n + i},K_{j}]=0", bracket(J[n + i], K[j]), zero)
        # [d_0, o(2n)|_A] = [J_0, o(2n)|_A] = 0
        small_rots: List[Tuple[str, DiffOp]] = []
        for i in rng:
            for j in rng:
                small_rots.append((f"A_{{{i},{j}}}", rotation("A", i, j)))
                if i < j:
                    small_rots.append((f"B_{{{i},{j}}}", rotation("B", i, j)))
                    small_rots.append((f"C_{{{i},{j}}}", rotation("C", i, j)))
        for lbl, op in small_rots:
            yield (f"[d_0,{lbl}]=0", bracket(P[0], op), zero)
            yield (f"[J_0,{lbl}]=0", bracket(J[0], op), zero)


def verify_bracket_tables(n: int, series: str) -> List[Dict[str, str]]:
    """Exact commutator check of every stated identity among the generators."""
    return [_report_entry(*identity) for identity in bracket_identities(n, series)]


def casimir_pairs(ob: OrthoBasis) -> List[Tuple[SparseMat, SparseMat]]:
    """Ordered factor pairs of the quadratic Casimir, exactly as written.

    omega = sum over these pairs (M1, M2) of M1*M2 in U(o(m)); both orderings
    of each product appear as separate pairs.
    """
    n, E = ob.n, ob.unit
    pairs: List[Tuple[SparseMat, SparseMat]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            up = E(i, n + j) - E(j, n + i)
            dn = E(n + j, i) - E(n + i, j)
            pairs.append((up, dn))
            pairs.append((dn, up))
    if ob.series == "B":
        for i in range(1, n + 1):
            dn = E(0, i) - E(n + i, 0)
            up = E(i, 0) - E(0, n + i)
            pairs.append((dn, up))
            pairs.append((up, dn))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pairs.append((E(i, j) - E(n + j, n + i), E(j, i) - E(n + i, n + j)))
    return pairs


@lru_cache(maxsize=None)
def casimir_terms(m: int) -> Tuple[Tuple[str, str, int], ...]:
    """`casimir_pairs` of o(m) as (label a, label b, c): each factor is +-1
    times one basis element, so the pair (M1, M2) is c X_a X_b.  Expanded
    once per m, so a Casimir is a sum of products of two module matrices."""
    ob = build_ortho(m)
    labels = ob.labels()
    terms = []
    for M1, M2 in casimir_pairs(ob):
        ((a, c1),), ((b, c2),) = ob.expand(M1).items(), ob.expand(M2).items()
        terms.append((labels[a], labels[b], c1 * c2))
    return tuple(terms)


def diffop_coeff_vector(op: DiffOp) -> Dict[Tuple, Fraction]:
    """Flatten a DiffOp to a coefficient vector keyed by (deriv, monomial)."""
    vec = {}
    for beta, p in op.terms.items():
        for e, c in p.terms.items():
            vec[(beta, e)] = c
    return vec


def verify_theta_homomorphism(n: int, series: str) -> Dict[str, object]:
    """Check theta([X,Y]) = [theta(X), theta(Y)] on all basis pairs, plus
    injectivity (linear independence of the images)."""
    ob, conf, images = theta_images(n, series)
    entries: List[Dict[str, str]] = []
    img_list = [images[e.label] for e in ob.elements]
    for i, ei in enumerate(ob.elements):
        for j, ej in enumerate(ob.elements):
            if i >= j:
                continue
            lhs = theta(ob, images, ob.matrix(i).bracket(ob.matrix(j)))
            rhs = bracket(img_list[i], img_list[j])
            # equal iff lhs - rhs is zero (normal order); built only to report
            if lhs != rhs:
                entries.append(
                    {
                        "identity": f"theta[{ei.label},{ej.label}]",
                        "status": "fail",
                        "diff": repr(lhs - rhs),
                    }
                )
    # injectivity: flatten images to coefficient vectors and take the rank
    keys: Dict[Tuple, int] = {}
    rows = []
    for op in img_list:
        row = {}
        for key, c in diffop_coeff_vector(op).items():
            row[keys.setdefault(key, len(keys))] = c
        rows.append(row)
    rank = rank_of_rows(rows)
    return {
        "series": series,
        "n": n,
        "pairs_checked": len(ob.elements) * (len(ob.elements) - 1) // 2,
        "failures": entries,
        "independent_images": rank == len(ob.elements),
        "image_rank": rank,
        "dimension": len(ob.elements),
        "ok": not entries and rank == len(ob.elements),
    }
