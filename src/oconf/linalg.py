"""Exact sparse linear algebra over the rationals.

Matrices are dictionaries mapping (row, col) to nonzero entries; the zero
matrix is the empty dict.  Everything here is exact.  All elimination
goes through one incremental engine, `EchelonBasis`, which keeps primitive
integer rows keyed by their leading column: ranks, span membership, kernels
(by back-substitution) and coordinates in a basis all come from it.
Characteristic polynomials come from an exact Hessenberg reduction over Q,
then an integer recurrence over one common denominator.  No thresholds, no
floating point.

Every stored scalar -- a matrix entry, a sparse vector entry, a kernel
vector or coordinate -- is canonical (`canon`): an int when it is
integral, else a Fraction with denominator > 1.  So integral arithmetic
runs on ints, at no cost to exactness or to output (an int equals, hashes
and prints like the integral Fraction).  A float has no `denominator`, so
`canon` rejects it, and `exact_scalar` refuses one from a caller.  Since
int / int is a float, a true division that may see two ints builds its
Fraction explicitly: Fraction(a, b), never a / b.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Entry = Tuple[int, int]


def canon(x):
    """The canonical form of an exact scalar: an int when x is integral,
    else x itself (a Fraction with denominator > 1)."""
    return x.numerator if x.denominator == 1 else x


def exact_scalar(x):
    """A caller's int, Fraction or string such as "1/3" in canonical form;
    a float, whose binary value is not the number written, is a TypeError."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; give an int, a Fraction or a string such as '1/3'")
    return canon(Fraction(x))


class SparseMat:
    """Immutable-by-convention sparse matrix with exact entries.

    Stored zeros are never kept: `data` only holds nonzero canonical values
    (see `canon`), so two matrices are equal iff their dicts are equal.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Dict[Entry, Fraction]] = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            data = {}
        self.data = {k: canon(v) for k, v in data.items() if v != 0}
        for (i, j) in self.data:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry {(i, j)} outside {rows}x{cols} matrix")

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: Dict[Entry, Fraction]) -> "SparseMat":
        """Wrap data whose values are known nonzero and canonical, and keys
        in bounds."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[Tuple[Entry, Fraction]]) -> "SparseMat":
        """The matrix whose (i, j) entry is the sum of the values given for
        (i, j): one accumulator, not a chain of whole-matrix additions.  Each
        value and partial sum is canonical, so no integral Fraction is added."""
        data: Dict[Entry, Fraction] = {}
        for key, v in entries:
            w = data.get(key)
            data[key] = canon(v) if w is None else canon(w + v)
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        # n ones on the diagonal of an n x n matrix
        return cls._trusted(n, n, {(i, i): 1 for i in range(n)})

    def get(self, i: int, j: int) -> Fraction:
        return self.data.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __hash__(self):
        raise TypeError("SparseMat is not hashable")

    def __add__(self, other: "SparseMat") -> "SparseMat":
        return self.add_scaled(other, 1)

    def add_scaled(self, other: "SparseMat", c) -> "SparseMat":
        """self + c * other, touching only the entries of other.

        The sum of a large matrix and a sparse correction costs a dict copy
        plus a product and a sum per entry of the correction (neither for a
        new entry at c = 1); entries that cancel are dropped.
        """
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        c = canon(c)
        if c == 0 or not other.data:
            return self
        data = dict(self.data)
        for key, v in other.data.items():
            w = data.get(key)
            w = (v if c == 1 else canon(c * v)) if w is None else canon(w + c * v)
            if w:
                data[key] = w
            else:
                del data[key]
        # keys are self's or other's, and every zero sum was removed
        return SparseMat._trusted(self.rows, self.cols, data)

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self.add_scaled(other, -1)

    def __neg__(self) -> "SparseMat":
        return self.scale(-1)

    def scale(self, c) -> "SparseMat":
        c = canon(c)
        if c == 0:
            return SparseMat(self.rows, self.cols)
        # c * v != 0 for c, v != 0, and the keys are self's
        return SparseMat._trusted(self.rows, self.cols, {k: canon(c * v) for k, v in self.data.items()})

    def __mul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # index other by row for the sparse product
        by_row: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        # each product and partial sum is canonical, as in `from_entries`
        data: Dict[Entry, Fraction] = {}
        for (i, k), a in self.data.items():
            for (j, b) in by_row.get(k, ()):
                key = (i, j)
                p = canon(a * b)
                w = data.get(key)
                data[key] = p if w is None else canon(w + p)
        return SparseMat(self.rows, other.cols, data)

    def trace(self) -> Fraction:
        return canon(sum((v for (i, j), v in self.data.items() if i == j), 0))

    def kron(self, other: "SparseMat") -> "SparseMat":
        rows, cols, entries = other.rows, other.cols, other.data.items()
        data = {}
        for (i, j), a in self.data.items():
            i, j = i * rows, j * cols
            data.update({(i + r, j + s): b if a == 1 else canon(a * b) for (r, s), b in entries})
        # each key is set once, to a product of two nonzeros (b itself, canonical,
        # where a = 1); i * rows + r < self.rows * rows, and likewise for columns
        return SparseMat._trusted(self.rows * other.rows, self.cols * other.cols, data)

    def bracket(self, other: "SparseMat") -> "SparseMat":
        """self * other - other * self, both products in one accumulator."""
        if (self.rows, self.cols) != (other.rows, other.cols) or self.rows != self.cols:
            raise ValueError("shape mismatch")
        data: Dict[Entry, Fraction] = {}
        for left, right, negate in ((self, other, False), (other, self, True)):
            by_row: Dict[int, List[Tuple[int, Fraction]]] = {}
            for (r, c), v in right.data.items():
                by_row.setdefault(r, []).append((c, -v if negate else v))
            for (i, k), a in left.data.items():
                for j, b in by_row.get(k, ()):
                    p = canon(a * b)
                    w = data.get((i, j))
                    data[(i, j)] = p if w is None else canon(w + p)
        return SparseMat(self.rows, self.cols, data)

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

    def apply_all(self, vecs: Iterable[Dict[int, Fraction]]) -> List[Dict[int, Fraction]]:
        """Matrix times each sparse column vector.

        The matrix is indexed by column once per batch, so each product then
        costs only the entries in the vector's columns, not nnz(M).  Each
        product and partial sum is canonical, as in `from_entries`.
        """
        by_col: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (i, j), v in self.data.items():
            by_col.setdefault(j, []).append((i, v))
        out = []
        for vec in vecs:
            acc: Dict[int, Fraction] = {}
            for j, c in vec.items():
                for i, v in by_col.get(j, ()):
                    p = canon(v * c)
                    w = acc.get(i)
                    acc[i] = p if w is None else canon(w + p)
            out.append({i: v for i, v in acc.items() if v})
        return out

    def apply(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Matrix times one sparse column vector."""
        return self.apply_all([vec])[0]

    def to_dense(self) -> List[List[Fraction]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, {len(self.data)} entries)"


def _clear_row(row: Dict[int, Fraction]) -> Dict[int, int]:
    """Scale a rational row to primitive integers (span-preserving), dropping
    its zeros; an empty row gives {} (lcm() is 1 and gcd() is 0)."""
    den = lcm(*(v.denominator for v in row.values()))
    ints = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


class EchelonBasis:
    """Incremental row echelon basis of a growing span over Q.

    Rows are kept as primitive integer vectors keyed by their leading
    (smallest) column, and no two rows share a leading column.  The set of
    leading columns (the pivots) depends only on the span, so every question
    answered here -- rank, membership, kernel vectors -- is independent of
    the order in which vectors arrive.  `rows` maps each pivot to its row,
    in the order the rows were added; a stored row never changes.
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

    def coordinates(self, vec: Dict[int, Fraction], width: int) -> Optional[Dict[int, Fraction]]:
        """Coordinates of vec in independent vectors v_0, ..., v_(r-1), all
        supported below column `width`, whose rows were added as v_k plus a
        1 in column width + k (r = rank).  Returns {k: c_k}, the nonzero c_k
        of vec = sum c_k v_k, or None if vec lies outside their span.

        One reduction of vec plus a marker 1 in column width + r: every
        pivot lies below `width`, so vec is in the span iff the residual
        keeps no column below it, and then the residual is a multiple of
        e_(width+r) - sum c_k e_(width+k)."""
        marker = width + self.rank
        res = self.reduce({**vec, marker: 1})
        if min(res) < width:
            return None
        m = res.pop(marker)
        return {k - width: canon(Fraction(-v, m)) for k, v in sorted(res.items())}

    def kernel_vector(self, free: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """The x with R x = 0 (R the stored rows) that takes the given values
        on non-pivot columns, 0 on every other non-pivot column."""
        x = {j: canon(v) for j, v in free.items() if v}
        for p in sorted(self.rows, reverse=True):
            prow = self.rows[p]
            s = sum((pv * x[j] for j, pv in prow.items() if j != p and j in x), 0)
            if s:
                x[p] = canon(Fraction(-s, prow[p]))
        return x


def rank_of_rows(rows: Iterable[Dict[int, Fraction]]) -> int:
    """Rank of the rational row span."""
    return EchelonBasis(rows).rank


def nullspace_of_rows(rows: Sequence[Dict[int, Fraction]], ncols: int) -> List[Dict[int, Fraction]]:
    """Basis of {x : R x = 0} for the row list R, as sparse column vectors:
    one vector per free column f, with x_f = 1 and 0 on the other free columns."""
    eb = EchelonBasis(rows)
    return [eb.kernel_vector({f: 1}) for f in range(ncols) if f not in eb.rows]


def _hessenberg(dense: List[List[Fraction]]) -> List[List[Fraction]]:
    """In-place similarity reduction to upper Hessenberg form, with
    canonical entries."""
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
            f = canon(Fraction(H[r][k], p))
            hr = H[r]
            h1 = H[k + 1]
            for c in range(k, n):
                if h1[c]:
                    hr[c] = canon(hr[c] - f * h1[c])
            for rr in range(n):
                if H[rr][r]:
                    H[rr][k + 1] = canon(H[rr][k + 1] + f * H[rr][r])
    return H


def charpoly(M: SparseMat) -> List[Fraction]:
    """Monic characteristic polynomial det(t I - M), coefficients ascending.

    Exact: Hessenberg over Q, then an integer recurrence over one common
    denominator.  With den the lcm of the denominators of the Hessenberg
    form H, the leading-minor recurrence runs on the integer matrix den H,
    and det(t I - den H) = sum_i p_i den^(n-i) t^i gives the coefficients
    p_i of det(t I - H) back.  Returns [c0, c1, ..., 1] with len = n + 1.
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = M.rows
    if n == 0:
        return [Fraction(1)]
    H = _hessenberg(M.to_dense())
    den = lcm(*(x.denominator for row in H for x in row))
    G = [[x.numerator * (den // x.denominator) for x in row] for row in H]
    # p[k] = charpoly of the leading k x k block of G, ascending coefficients
    p: List[List[int]] = [[1]]
    for k in range(1, n + 1):
        gkk = G[k - 1][k - 1]
        prev = p[k - 1]
        # (t - gkk) * prev
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] -= gkk * c
        # - sum over products of subdiagonals
        prod = 1
        for m in range(1, k):
            prod *= G[k - m][k - m - 1]
            if prod == 0:
                break
            a = G[k - m - 1][k - 1]
            if a == 0:
                continue
            coef = a * prod
            for i, c in enumerate(p[k - m - 1]):
                cur[i] -= coef * c
        p.append(cur)
    return [Fraction(q, den ** (n - i)) for i, q in enumerate(p[n])]


def vectors_contained_in_span(vectors: Sequence[Dict[int, Fraction]], span: Sequence[Dict[int, Fraction]]) -> bool:
    """True iff every vector lies in the rational span of `span`."""
    eb = EchelonBasis(span)
    return all(eb.contains(v) for v in vectors)
