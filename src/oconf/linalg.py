"""Exact sparse linear algebra over the rationals.

Matrices are dictionaries mapping (row, col) to nonzero Fraction entries; the
zero matrix is the empty dict.  Everything here is exact.  All elimination
goes through one incremental engine, `EchelonBasis`, which keeps primitive
integer rows keyed by their leading column: ranks, span membership, kernels
(by back-substitution) and linear solves all come from it.  Characteristic
polynomials come from an exact Hessenberg reduction.  No thresholds, no
floating point.

One shortcut is a certificate, not an approximation: when `rank_of_rows` is
told the largest rank possible (`stop_at`), it first eliminates modulo the
prime MODULUS.  Rank mod p never exceeds rank over Q, so reaching `stop_at`
there proves the rank over Q; any other outcome (a deficient span, an
unlucky prime, a denominator divisible by p) goes to `EchelonBasis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Entry = Tuple[int, int]

MODULUS = 2**61 - 1  # prime of rank_of_rows' full-rank certificate


class SparseMat:
    """Immutable-by-convention sparse matrix with Fraction entries.

    Stored zeros are never kept: `data` only holds nonzero values, so two
    matrices are equal iff their dicts are equal.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Dict[Entry, Fraction]] = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = {}
        self.data = {k: v for k, v in data.items() if v != 0}
        for (i, j) in self.data:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry {(i, j)} outside {rows}x{cols} matrix")

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def get(self, i: int, j: int) -> Fraction:
        return self.data.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        raise TypeError("SparseMat is not hashable")

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, Fraction(0)) + v
        return SparseMat(self.rows, self.cols, data)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "SparseMat":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "SparseMat":
        c = Fraction(c)
        if c == 0:
            return SparseMat(self.rows, self.cols)
        return SparseMat(self.rows, self.cols, {k: c * v for k, v in self.data.items()})

    def __mul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # index other by row for the sparse product
        by_row: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        data: Dict[Entry, Fraction] = {}
        for (i, k), a in self.data.items():
            for (j, b) in by_row.get(k, ()):
                key = (i, j)
                data[key] = data.get(key, Fraction(0)) + a * b
        return SparseMat(self.rows, other.cols, data)

    def transpose(self) -> "SparseMat":
        return SparseMat(self.cols, self.rows, {(j, i): v for (i, j), v in self.data.items()})

    def trace(self) -> Fraction:
        return sum((v for (i, j), v in self.data.items() if i == j), Fraction(0))

    def kron(self, other: "SparseMat") -> "SparseMat":
        data = {}
        for (i, j), a in self.data.items():
            for (r, s), b in other.data.items():
                data[(i * other.rows + r, j * other.cols + s)] = a * b
        return SparseMat(self.rows * other.rows, self.cols * other.cols, data)

    def bracket(self, other: "SparseMat") -> "SparseMat":
        return self * other - other * self

    def row_vectors(self) -> List[Dict[int, Fraction]]:
        rows: List[Dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            rows[i][j] = v
        return rows

    def col_vectors(self) -> List[Dict[int, Fraction]]:
        cols: List[Dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def apply(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Matrix times sparse column vector."""
        out: Dict[int, Fraction] = {}
        for (i, j), v in self.data.items():
            c = vec.get(j)
            if c is not None:
                out[i] = out.get(i, Fraction(0)) + v * c
        return {k: v for k, v in out.items() if v != 0}

    def to_dense(self) -> List[List[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    def rank(self) -> int:
        return rank_of_rows(self.row_vectors())

    def nullspace(self) -> List[Dict[int, Fraction]]:
        return nullspace_of_rows(self.row_vectors(), self.cols)

    def charpoly(self) -> List[Fraction]:
        return charpoly(self)

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, {len(self.data)} entries)"


def _clear_row(row: Dict[int, Fraction]) -> Dict[int, int]:
    """Scale a rational row to primitive integers (span-preserving)."""
    row = {j: v for j, v in row.items() if v != 0}
    if not row:
        return {}
    den = lcm(*(v.denominator for v in row.values()))
    ints = {j: int(v * den) for j, v in row.items()}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


class EchelonBasis:
    """Incremental row echelon basis of a growing span over Q.

    Rows are kept as primitive integer vectors keyed by their leading
    (smallest) column, and no two rows share a leading column.  The set of
    leading columns (the pivots) depends only on the span, so every question
    answered here -- rank, membership, kernel vectors -- is independent of
    the order in which vectors arrive.  `rows` maps each pivot to its row.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors: Iterable[Dict[int, Fraction]] = ()):
        self.rows: Dict[int, Dict[int, int]] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Dict[int, Fraction]) -> Dict[int, int]:
        """Primitive integer residual of vec whose leading column is no
        pivot; {} iff vec lies in the span."""
        # eliminate leading columns until the lead is no pivot (or row is 0);
        # row is always a private copy, so it may be updated in place
        row = _clear_row(vec)
        rows = self.rows
        while row:
            p = min(row)
            prow = rows.get(p)
            if prow is None:
                return row
            a, c = prow[p], row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            new = row if a == 1 else {j: a * v for j, v in row.items()}
            del new[p]
            for j, pv in prow.items():
                if j != p:
                    w = new.get(j, 0) - c * pv
                    if w:
                        new[j] = w
                    else:
                        del new[j]
            g = gcd(*new.values())
            row = {j: v // g for j, v in new.items()} if g > 1 else new
        return row

    def contains(self, vec: Dict[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Dict[int, Fraction]) -> bool:
        """Extend the span by vec; True iff vec was independent of it."""
        row = self.reduce(vec)
        if not row:
            return False
        self.rows[min(row)] = row
        return True

    def kernel_vector(self, free: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """The x with R x = 0 (R the stored rows) that takes the given values
        on non-pivot columns, 0 on every other non-pivot column."""
        x = {j: Fraction(v) for j, v in free.items() if v}
        for p in sorted(self.rows, reverse=True):
            prow = self.rows[p]
            s = sum((pv * x[j] for j, pv in prow.items() if j != p and j in x), Fraction(0))
            if s:
                x[p] = -s / prow[p]
        return x


def _full_rank_mod_p(rows: Sequence[Dict[int, Fraction]], stop_at: int) -> bool:
    """True if the rows reach rank stop_at modulo MODULUS (hence over Q).

    False is no verdict: the rank may be lower, the prime unlucky, or some
    denominator divisible by the prime.  The verdict does not depend on the
    row order, so the shortest rows go first, which keeps the fill-in low.
    """
    p = MODULUS
    pivots: Dict[int, Dict[int, int]] = {}  # leading column -> row with lead 1
    for vec in sorted(rows, key=len):
        row = {}
        for j, v in vec.items():
            if v.denominator % p == 0:
                return False
            w = v.numerator * pow(v.denominator, -1, p) % p
            if w:
                row[j] = w
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: w * inv % p for j, w in row.items()}
                if len(pivots) == stop_at:
                    return True
                break
            c = row[lead]
            for j, pw in prow.items():
                w = (row.get(j, 0) - c * pw) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return False


def rank_of_rows(rows: Iterable[Dict[int, Fraction]], stop_at: Optional[int] = None) -> int:
    """Rank of the rational row span; `stop_at` allows early exit once the
    rank reaches a known maximum, and then min(rank, stop_at) is returned.

    With `stop_at`, rank stop_at modulo MODULUS is certificate enough, since
    rank mod p <= rank over Q; only otherwise do the rows go through exact
    elimination.
    """
    if stop_at is not None:
        rows = list(rows)
        if _full_rank_mod_p(rows, stop_at):
            return stop_at
    eb = EchelonBasis()
    for r in rows:
        if eb.add(r) and eb.rank == stop_at:
            break
    return eb.rank


def nullspace_of_rows(rows: Sequence[Dict[int, Fraction]], ncols: int) -> List[Dict[int, Fraction]]:
    """Basis of {x : R x = 0} for the row list R, as sparse column vectors:
    one vector per free column f, with x_f = 1 and 0 on the other free columns."""
    eb = EchelonBasis(rows)
    return [eb.kernel_vector({f: Fraction(1)}) for f in range(ncols) if f not in eb.rows]


def solve_row_combination(rows: Sequence[Dict[int, Fraction]], target: Dict[int, Fraction]) -> Optional[List[Fraction]]:
    """Express `target` as a linear combination of `rows`; None if inconsistent.

    The rows need not be independent; the solution with every free
    coefficient 0 is returned.
    """
    # Unknowns are the coefficients c_0..c_{n-1} plus column n for the
    # right-hand side: coordinate j gives sum_i c_i rows[i][j] - target[j] x_n = 0.
    n = len(rows)
    eqs: Dict[int, Dict[int, Fraction]] = {}
    for i, r in enumerate(rows):
        for j, v in r.items():
            eqs.setdefault(j, {})[i] = v
    for j, t in target.items():
        if t:
            eqs.setdefault(j, {})[n] = t
    eb = EchelonBasis(eqs.values())
    if n in eb.rows:
        return None  # inconsistent
    x = eb.kernel_vector({n: Fraction(-1)})
    return [x.get(i, Fraction(0)) for i in range(n)]


def _hessenberg(dense: List[List[Fraction]]) -> List[List[Fraction]]:
    """In-place similarity reduction to upper Hessenberg form."""
    n = len(dense)
    H = dense
    for k in range(n - 2):
        piv = None
        for r in range(k + 1, n):
            if H[r][k] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != k + 1:
            H[piv], H[k + 1] = H[k + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][k + 1] = H[r][k + 1], H[r][piv]
        p = H[k + 1][k]
        for r in range(k + 2, n):
            if H[r][k] == 0:
                continue
            f = H[r][k] / p
            hr = H[r]
            h1 = H[k + 1]
            for c in range(k, n):
                if h1[c]:
                    hr[c] -= f * h1[c]
            for rr in range(n):
                if H[rr][r]:
                    H[rr][k + 1] += f * H[rr][r]
    return H


def charpoly(M: SparseMat) -> List[Fraction]:
    """Monic characteristic polynomial det(t I - M), coefficients ascending.

    Exact: Hessenberg similarity reduction over Q, then the leading-minor
    recurrence.  Returns [c0, c1, ..., 1] with len = n + 1.
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = M.rows
    if n == 0:
        return [Fraction(1)]
    H = _hessenberg(M.to_dense())
    # p[k] = charpoly of leading k x k block, ascending coefficients
    p: List[List[Fraction]] = [[Fraction(1)]]
    for k in range(1, n + 1):
        hkk = H[k - 1][k - 1]
        prev = p[k - 1]
        # (t - hkk) * prev
        cur = [Fraction(0)] * (k + 1)
        for i, c in enumerate(prev):
            cur[i + 1] += c
            cur[i] -= hkk * c
        # - sum over products of subdiagonals
        prod = Fraction(1)
        for m in range(1, k):
            prod *= H[k - m][k - m - 1]
            if prod == 0:
                break
            a = H[k - m - 1][k - 1]
            if a == 0:
                continue
            coef = a * prod
            for i, c in enumerate(p[k - m - 1]):
                cur[i] -= coef * c
        p.append(cur)
    return p[n]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n: int, bound: int = 10**6) -> List[int]:
    """Positive divisors of |n| via trial division up to `bound`.

    If an unfactored cofactor remains it is treated as prime (its proper
    divisors beyond the bound are not enumerated).
    """
    n = abs(n)
    if n == 0:
        return []
    factors: Dict[int, int] = {}
    d = 2
    while d * d <= n and d <= bound:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for pr, e in factors.items():
        divs = [dd * pr**i for dd in divs for i in range(e + 1)]
    return sorted(set(divs))


def rational_roots(coeffs: Sequence[Fraction]) -> Tuple[List[Tuple[Fraction, int]], List[Fraction]]:
    """All rational roots (with multiplicity) of a polynomial, plus remainder.

    Roots are found by the rational-root theorem over a denominator-cleared
    copy and removed by synthetic division; the returned remainder has no
    rational roots (or none findable within the divisor bound).
    """
    work = list(coeffs)
    while work and work[-1] == 0:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    roots: List[Tuple[Fraction, int]] = []
    # strip t = 0 roots
    zmult = 0
    while work[0] == 0:
        work.pop(0)
        zmult += 1
    if zmult:
        roots.append((Fraction(0), zmult))

    def deflate(poly: List[Fraction], r: Fraction) -> Optional[List[Fraction]]:
        # synthetic division by (t - r); None if r is not a root
        out = [Fraction(0)] * (len(poly) - 1)
        acc = Fraction(0)
        for i in range(len(poly) - 1, 0, -1):
            acc = acc * r + poly[i]
            out[i - 1] = acc
        if acc * r + poly[0] != 0:
            return None
        return out

    while len(work) > 1:
        den = 1
        for c in work:
            den = lcm(den, c.denominator)
        ints = [int(c * den) for c in work]
        cands: List[Fraction] = []
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                cands.append(Fraction(p, q))
                cands.append(Fraction(-p, q))
        found = None
        for cand in sorted(set(cands), key=lambda f: (abs(f), f < 0)):
            nxt = deflate(work, cand)
            if nxt is not None:
                found = cand
                mult = 1
                work = nxt
                while len(work) > 1:
                    nxt = deflate(work, cand)
                    if nxt is None:
                        break
                    work = nxt
                    mult += 1
                roots.append((cand, mult))
                break
        if found is None:
            break
    roots.sort(key=lambda t: t[0])
    return roots, work


def vectors_contained_in_span(vectors: Sequence[Dict[int, Fraction]], span: Sequence[Dict[int, Fraction]]) -> bool:
    """True iff every vector lies in the rational span of `span`."""
    eb = EchelonBasis(span)
    return all(eb.contains(v) for v in vectors)
