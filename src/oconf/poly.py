"""Exact multivariate polynomials and normal-ordered differential operators.

A Poly maps exponent tuples to nonzero exact coefficients.  A DiffOp is a
finite sum  sum_beta  p_beta(x) * d^beta  stored in normal order (polynomial
coefficients to the left of all derivatives); composition re-normal-orders via
the generalized Leibniz rule, so two operators are equal as operators iff
their stored dictionaries are equal.

Composition and the commutator share one integer kernel.  Each operand is
scaled to integers by the lcm of its coefficient denominators; the Leibniz
rule d^b1 x^e2 = sum_gamma prod_i C(b1_i, g_i) (e2_i)_(g_i) x^(e2 - gamma)
d^(b1 - gamma) is applied once per (b1, b2, e2), its expansion memoized per
(b1, e2), accumulating integers into one {beta: {monomial: int}} dict.
`bracket` runs the kernel for a.b and, with sign -1, for b.a into the same
dict, both without their gamma = 0 terms: those are p1 p2 d^(b1 + b2) in
either order, so they cancel exactly, whatever the operators' orders.  Each
nonzero sum v becomes one v / (den_a * den_b) at the end, so the result is
exact and in normal order.

Inside the kernel every exponent tuple, of a monomial or of a derivative,
is one packed int: entry i sits in bits [i * _BITS, (i + 1) * _BITS).
Adding or subtracting two packed ints then adds or subtracts the tuples
entry by entry, provided no field carries or borrows.  The kernel only ever
adds two exponents of its operands (e1 + e2 - gamma, b1 + b2 - gamma) and
only subtracts a gamma <= b1, e2 entry by entry, so a borrow cannot happen,
and a carry cannot happen while every operand exponent is at most
_EXP_LIMIT = 2^(_BITS - 1) - 1: each sum is then below 2^_BITS.  An operand
with a larger (or a negative) exponent is refused with a ValueError before
anything is packed.  The result is unpacked to tuples once per term.

Every coefficient is canonical, as in `linalg` (`canon`): an int when it is
integral, else a Fraction with denominator > 1; a float is rejected.  So
v / den above is v // den when den divides v and Fraction(v, den)
otherwise, never the float v / den.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, perm
from typing import Dict, List, Optional, Tuple

from .linalg import canon

Exps = Tuple[int, ...]


def monomial_basis(num_vars: int, k: int) -> List[Exps]:
    """All exponent tuples of total degree k, in graded-lex order.

    Graded-lex here means lexicographically descending within the fixed
    degree, e.g. (2,0) > (1,1) > (0,2); length is C(k+v-1, v-1).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if num_vars == 0:
        return [()] if k == 0 else []
    # the last entry holds the degree still to place; splitting it into
    # (a, rest) with a descending keeps each round in lex-descending order
    out: List[Exps] = [(k,)]
    for _ in range(num_vars - 1):
        out = [e[:-1] + (a, e[-1] - a) for e in out for a in range(e[-1], -1, -1)]
    return out


class Poly:
    """Polynomial with nonzero canonical coefficients (int or Fraction with
    denominator > 1, see the module docstring)."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Optional[Dict[Exps, Fraction]] = None):
        self.num_vars = num_vars
        if terms is None:
            terms = {}
        clean = {}
        for e, c in terms.items():
            if c == 0:
                continue
            if len(e) != num_vars:
                raise ValueError(f"exponent {e} has wrong arity for {num_vars} variables")
            clean[e] = canon(c)
        self.terms = clean

    @classmethod
    def _trusted(cls, num_vars: int, terms: Dict[Exps, Fraction]) -> "Poly":
        """Wrap terms already known to be nonzero, canonical and of the right
        arity."""
        p = object.__new__(cls)
        p.num_vars, p.terms = num_vars, terms
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "Poly":
        return cls(num_vars)

    @classmethod
    def const(cls, num_vars: int, c) -> "Poly":
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def var(cls, num_vars: int, i: int) -> "Poly":
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, num_vars: int, exps: Exps, c=1) -> "Poly":
        return cls(num_vars, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.num_vars, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def scale(self, c) -> "Poly":
        c = canon(c)
        return Poly(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms: Dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.num_vars, terms)

    def diff(self, i: int) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = terms.get(tuple(ne), 0) + c * e[i]
        return Poly(self.num_vars, terms)

    def diff_multi(self, beta: Exps) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            coeff = c
            ne = list(e)
            ok = True
            for i, b in enumerate(beta):
                if b == 0:
                    continue
                if e[i] < b:
                    ok = False
                    break
                # falling factorial e_i (e_i - 1) ... (e_i - b + 1)
                for t in range(b):
                    coeff *= e[i] - t
                ne[i] -= b
            if ok and coeff != 0:
                key = tuple(ne)
                terms[key] = terms.get(key, 0) + coeff
        return Poly(self.num_vars, terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other: "Poly"):
        if self.num_vars != other.num_vars:
            raise ValueError("variable-count mismatch")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t))):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p)
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


class DiffOp:
    """Normal-ordered polynomial-coefficient differential operator.

    Immutable by convention: no caller changes `terms` (or a Poly in it)
    after construction.  The operator memoizes its integer-scaled terms
    (`_scaled_terms`) on first use in a composition or commutator, which
    relies on that.
    """

    __slots__ = ("num_vars", "terms", "_scaled")

    def __init__(self, num_vars: int, terms: Optional[Dict[Exps, Poly]] = None):
        self.num_vars = num_vars
        if terms is None:
            terms = {}
        clean = {}
        for beta, p in terms.items():
            if len(beta) != num_vars or p.num_vars != num_vars:
                raise ValueError("arity mismatch in DiffOp term")
            if not p.is_zero():
                clean[beta] = p
        self.terms = clean
        self._scaled = None

    @classmethod
    def _trusted(cls, num_vars: int, terms: Dict[Exps, Poly]) -> "DiffOp":
        """Wrap terms already known to be nonzero Polys of the right arity."""
        op = object.__new__(cls)
        op.num_vars, op.terms, op._scaled = num_vars, terms, None
        return op

    @classmethod
    def zero(cls, num_vars: int) -> "DiffOp":
        return cls(num_vars)

    @classmethod
    def mult(cls, p: Poly) -> "DiffOp":
        """Multiplication operator f -> p*f."""
        return cls(p.num_vars, {(0,) * p.num_vars: p})

    @classmethod
    def identity(cls, num_vars: int) -> "DiffOp":
        return cls.mult(Poly.const(num_vars, 1))

    @classmethod
    def partial(cls, num_vars: int, i: int) -> "DiffOp":
        beta = [0] * num_vars
        beta[i] = 1
        return cls(num_vars, {tuple(beta): Poly.const(num_vars, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("DiffOp is not hashable")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        terms = dict(self.terms)
        for beta, p in other.terms.items():
            terms[beta] = terms.get(beta, Poly.zero(self.num_vars)) + p
        return DiffOp(self.num_vars, terms)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return self.scale(-1)

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.num_vars, {b: p.scale(c) for b, p in self.terms.items()})

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Operator composition self . other, re-normal-ordered."""
        self._check(other)
        den_a, sa = _scaled_terms(self)
        den_b, sb = _scaled_terms(other)
        acc: _Acc = {}
        _compose_into(acc, sa, sb, 1)
        return _finish(self.num_vars, acc, den_a * den_b)

    def apply(self, f: Poly) -> Poly:
        """Apply the operator to a polynomial, exactly."""
        if self.num_vars != f.num_vars:
            raise ValueError("variable-count mismatch")
        out = Poly.zero(self.num_vars)
        for beta, p in self.terms.items():
            df = f.diff_multi(beta)
            if not df.is_zero():
                out = out + p * df
        return out

    def _check(self, other: "DiffOp"):
        if self.num_vars != other.num_vars:
            raise ValueError("variable-count mismatch")

    def is_vector_field(self) -> bool:
        """True iff the operator is sum f_i d_i with no zeroth-order part."""
        return all(sum(b) == 1 for b in self.terms)

    def coefficient_of_partial(self, i: int) -> Poly:
        beta = [0] * self.num_vars
        beta[i] = 1
        return self.terms.get(tuple(beta), Poly.zero(self.num_vars))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for beta in sorted(self.terms, key=lambda b: (sum(b), tuple(-x for x in b))):
            p = self.terms[beta]
            ds = "*".join(f"d{i}^{b}" if b > 1 else f"d{i}" for i, b in enumerate(beta) if b)
            if ds:
                bits.append(f"({p!r})*{ds}")
            else:
                bits.append(f"({p!r})")
        return " + ".join(bits)


_ScaledTerms = List[Tuple[int, List[Tuple[int, int]]]]
_Acc = Dict[int, Dict[int, int]]

_BITS = 16  # field width of one packed exponent (module docstring)
_EXP_LIMIT = (1 << (_BITS - 1)) - 1
_MASK = (1 << _BITS) - 1


def _pack(e: Exps) -> int:
    """The exponent tuple e as one int, entry i in field i; raises
    ValueError for an entry outside 0 .. _EXP_LIMIT, which could carry."""
    v = 0
    for i, a in enumerate(e):
        if not 0 <= a <= _EXP_LIMIT:
            raise ValueError(f"exponent {e} has an entry outside 0..{_EXP_LIMIT}, "
                             f"which the composition kernel cannot pack")
        v |= a << (i * _BITS)
    return v


def _unpack(v: int, shifts: range) -> Exps:
    """The exponent tuple packed in v, one entry per shift in `shifts`."""
    return tuple([(v >> s) & _MASK for s in shifts])


def _scaled_terms(op: DiffOp) -> Tuple[int, _ScaledTerms]:
    """(den, terms): den is the lcm of the coefficient denominators and terms
    lists (beta, [(exponent, den * coefficient)]) with integer values and
    packed exponents.  Computed once per operator and kept in its `_scaled`
    slot."""
    hit = op._scaled
    if hit is None:
        den = lcm(*(c.denominator for p in op.terms.values() for c in p.terms.values()))
        hit = op._scaled = den, [(_pack(beta), [(_pack(e), c.numerator * (den // c.denominator))
                                                for e, c in p.terms.items()])
                                 for beta, p in op.terms.items()]
    return hit


@lru_cache(maxsize=4096)
def _leibniz(b1: int, e2: int) -> Tuple[Tuple[int, int, int], ...]:
    """d^b1 x^e2 = sum_gamma k x^(e2 - gamma) d^(b1 - gamma) over gamma <= b1, e2,
    with k = prod_i C(b1_i, g_i) (e2_i)_(g_i), (e)_(g) the falling factorial;
    as packed (gamma, e2 - gamma, k) triples, gamma = 0 first and in the
    lexicographic order of the gamma tuples."""
    # per field: the (packed g, factor) choices; a field where b1 or e2 is
    # 0 allows only g = 0, so the choices stop at the last field both reach
    fields = []
    shift = 0
    while b1 >> shift and e2 >> shift:
        b, e = (b1 >> shift) & _MASK, (e2 >> shift) & _MASK
        fields.append([(g << shift, comb(b, g) * perm(e, g)) for g in range(min(b, e) + 1)])
        shift += _BITS
    out = []
    for choice in product(*fields):
        gamma, k = 0, 1
        for g, f in choice:
            gamma += g
            k *= f
        out.append((gamma, e2 - gamma, k))
    return tuple(out)


def _compose_into(acc: _Acc, left: _ScaledTerms, right: _ScaledTerms, sign: int, first: int = 0):
    """Add sign * (left . right) into acc, by one Leibniz pass per
    (b1, b2, e2): p1 d^b1 . c2 x^e2 d^b2 = sum_gamma k c2 p1 x^(e2 - gamma)
    d^(b1 + b2 - gamma), all exponents packed.  first = 1 leaves out the
    gamma = 0 term, which `_leibniz` lists first."""
    for b1, p1 in left:
        for b2, p2 in right:
            b12 = b1 + b2
            for e2, c2 in p2:
                c2 *= sign
                for gamma, de, k in _leibniz(b1, e2)[first:]:
                    k *= c2
                    beta = b12 - gamma
                    out = acc.get(beta)
                    if out is None:
                        out = acc[beta] = {}
                    for e1, c1 in p1:
                        m = e1 + de
                        out[m] = out.get(m, 0) + c1 * k


def _finish(num_vars: int, acc: _Acc, den: int) -> DiffOp:
    """The DiffOp with coefficients acc / den, zero terms dropped."""
    shifts = range(0, num_vars * _BITS, _BITS)
    terms = {}
    for beta, ints in acc.items():
        coeffs = {_unpack(m, shifts): v // den if v % den == 0 else Fraction(v, den)
                  for m, v in ints.items() if v}
        if coeffs:
            terms[_unpack(beta, shifts)] = Poly._trusted(num_vars, coeffs)
    return DiffOp._trusted(num_vars, terms)


def bracket(a: DiffOp, b: DiffOp) -> DiffOp:
    """Commutator a.b - b.a of differential operators, by two Leibniz passes
    into one accumulator (both products have denominator den_a * den_b).
    Neither pass adds its gamma = 0 terms: they cancel (module docstring)."""
    a._check(b)
    den_a, sa = _scaled_terms(a)
    den_b, sb = _scaled_terms(b)
    acc: _Acc = {}
    _compose_into(acc, sa, sb, 1, first=1)
    _compose_into(acc, sb, sa, -1, first=1)
    return _finish(a.num_vars, acc, den_a * den_b)
