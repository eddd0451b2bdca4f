"""Weight-lattice combinatorics for the o(2n) and o(2n+1) series.

Covers dominance, the jump sequence of a dominant weight, the half-sum of
positive roots, Pieri decompositions of V(e1) (x) V(mu), Weyl dimensions,
Casimir eigenvalues, the closed-form spectrum of the split Casimir on the
tensor with the natural module, and the excluded central-charge sets that
obstruct irreducibility of the generalized conformal module.

Series tags: "D" for o(2n), "B" for o(2n+1).  Weight coordinates are
half-integers; weights serialize as comma-separated rationals like "3/2,1/2".

Inside the engine a weight is its doubled coordinates 2 mu, a tuple of ints
(`WeightVec.twice`), and a root is a tuple of ints: dominance, Weyl orbits,
Weyl dimensions and Casimir eigenvalues are integer arithmetic on those, and
dicts keyed by weights hash ints.  `WeightVec.coords` holds the same weight as
Fractions, the public view that prints, parses and serializes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import exact_scalar

SERIES = ("D", "B")
MIN_RANK = {"D": 2, "B": 1}  # the least rank n of D_n = o(2n) and B_n = o(2n+1)

Twice = Tuple[int, ...]  # doubled weight coordinates 2 mu


def doubled(c) -> int:
    """2c for a half-integer c, an int or a Fraction, by integer arithmetic."""
    return 2 * c.numerator // c.denominator


class WeightVec:
    """A weight sum mu_i e_i of o(2n) (series D) or o(2n+1) (series B).

    Immutable, since weights key dicts and caches.  `twice` is 2 mu as
    ints, derived from `coords`; it takes no part in equality or hashing."""

    __slots__ = ("series", "coords", "twice")

    def __init__(self, series: str, coords: Sequence):
        if series not in SERIES:
            raise ValueError(f"unknown series {series!r}")
        coords = tuple(Fraction(c) for c in coords)
        for c in coords:
            if c.denominator not in (1, 2):
                raise ValueError(f"coordinate {c} is not a half-integer")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "twice", tuple(map(doubled, coords)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable WeightVec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable WeightVec")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.series == other.series and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.series, self.coords))

    def __repr__(self) -> str:
        return f"WeightVec(series={self.series!r}, coords={self.coords!r})"

    @classmethod
    def from_twice(cls, series: str, twice: Sequence[int]) -> "WeightVec":
        """The weight whose doubled coordinates are `twice`."""
        return cls(series, tuple(Fraction(t, 2) for t in twice))

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def add_unit(self, i: int, delta: int) -> "WeightVec":
        """mu +- e_i (1-based index i)."""
        t = list(self.twice)
        t[i - 1] += 2 * delta
        return WeightVec.from_twice(self.series, t)


def parse_weight(text: str, series: str) -> WeightVec:
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse weight {text!r}: {exc}") from None
    return WeightVec(series, coords)


def natural_dim(series: str, n: int) -> int:
    """Dimension m of the natural module of o(m): 2n for D_n, 2n+1 for B_n."""
    return 2 * n if series == "D" else 2 * n + 1


def zero_weight(series: str, n: int) -> WeightVec:
    return WeightVec(series, (Fraction(0),) * n)


def epsilon(series: str, n: int, i: int) -> WeightVec:
    """The i-th coordinate weight e_i (1-based)."""
    coords = [Fraction(0)] * n
    coords[i - 1] = Fraction(1)
    return WeightVec(series, tuple(coords))


def is_dominant(mu: WeightVec) -> bool:
    """Membership in the dominant integral cone of the series."""
    return is_dominant_twice(mu.series, mu.twice)


def is_dominant_twice(series: str, t: Twice) -> bool:
    """`is_dominant` of the weight with doubled coordinates t: the descents
    c_i - c_(i+1) are integers >= 0, and so is c_(n-1) + c_n for D; for B,
    c_n >= 0.  Even descents leave every t_i of one parity, so
    t_(n-1) + t_n is even and only its sign is left to check."""
    n = len(t)
    if n < MIN_RANK[series]:
        return False
    for i in range(n - 1):
        d = t[i] - t[i + 1]
        if d < 0 or d & 1:
            return False
    return (t[n - 2] + t[n - 1] if series == "D" else t[n - 1]) >= 0


def minimal_dominant_twice(series: str, t: Twice) -> Twice:
    """The least dominant weight congruent to the doubled weight t modulo
    the root lattice, doubled.

    The root lattice is Z^n for B and the integer vectors of even sum for
    D.  So B has two classes, integral and spin, with least dominant
    weights 0 and (1/2, ..., 1/2); D has four: integral of even or odd sum
    (0 or e_1) and spin of sum n/2 or n/2 - 1 modulo 2 ((1/2, ..., 1/2) or
    (1/2, ..., 1/2, -1/2)).  Every dominant weight of the class lies above
    it (Humphreys, GTM 9, 13.4 Lemma B), so it is a weight of every V(lambda)
    with lambda in the class (21.3)."""
    n = len(t)
    if t[0] & 1:  # spin
        return (1,) * (n - 1) + (-1 if series == "D" and (sum(t) - n) % 4 else 1,)
    if series == "D" and sum(t) % 4:
        return (2,) + (0,) * (n - 1)
    return (0,) * n


def weyl_orbit_size(nu: WeightVec) -> int:
    """|W nu| for the Weyl group W of the series."""
    return weyl_orbit_size_twice(nu.series, nu.twice)


def weyl_orbit_size_twice(series: str, t: Twice) -> int:
    """`weyl_orbit_size` of the weight with doubled coordinates t.

    W permutes the coordinates and changes their signs (an even number of
    sign changes for D), so |W nu| = n! / prod m_a! * 2^(#nonzero), the m_a
    the multiplicities of the distinct |c_i|.  For D this is halved when no
    coordinate is 0; a zero coordinate lets an even number of sign changes
    reach every sign pattern.  The closed chamber of `is_dominant`'s
    inequalities (D: c_1 >= ... >= c_{n-1} >= |c_n|; B: c_1 >= ... >= c_n
    >= 0) meets each orbit exactly once.
    """
    mags = [abs(c) for c in t]
    size = factorial(len(t))
    for m in Counter(mags).values():
        size //= factorial(m)
    nonzero = sum(1 for c in mags if c)
    size <<= nonzero
    if series == "D" and nonzero == len(t):
        size //= 2
    return size


def _require_dominant(mu: WeightVec):
    if not is_dominant(mu):
        raise ValueError(f"weight {mu} is not dominant for series {mu.series}")


class JumpSeq:
    """Block boundaries n_0=0 < n_1 < ... < n_s = n of equal coordinates."""

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Tuple[int, ...]):
        self.boundaries = boundaries

    @property
    def s(self) -> int:
        return len(self.boundaries) - 1


def jump_sequence(mu: WeightVec) -> JumpSeq:
    _require_dominant(mu)
    c = mu.coords
    bounds = [0]
    for i in range(1, mu.n):
        if c[i] != c[i - 1]:
            bounds.append(i)
    bounds.append(mu.n)
    return JumpSeq(tuple(bounds))


def _rho_twice(series: str, n: int) -> Twice:
    """2 rho: 2(n - i) for D, 2(n - i) + 1 for B."""
    if series not in SERIES:
        raise ValueError(series)
    odd = 1 if series == "B" else 0
    return tuple(2 * (n - i) + odd for i in range(1, n + 1))


def rho(series: str, n: int) -> WeightVec:
    """Half-sum of positive roots; B-series runs through i = n."""
    return WeightVec.from_twice(series, _rho_twice(series, n))


def positive_roots(series: str, n: int) -> List[Tuple[int, ...]]:
    roots: List[Tuple[int, ...]] = []

    def vec(i: int, j: int, sj: int) -> Tuple[int, ...]:
        v = [0] * n
        v[i - 1] += 1
        v[j - 1] += sj
        return tuple(v)

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(vec(i, j, -1))
            roots.append(vec(i, j, +1))
    if series == "B":
        for r in range(1, n + 1):
            v = [0] * n
            v[r - 1] = 1
            roots.append(tuple(v))
    return roots


def _inner(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def weyl_dim(mu: WeightVec) -> int:
    """Weyl dimension formula: prod over positive roots of (mu+rho,a)/(rho,a),
    each ratio taken on doubled weights as (2mu+2rho,a)/(2rho,a)."""
    _require_dominant(mu)
    r = _rho_twice(mu.series, mu.n)
    shifted = tuple(map(add, mu.twice, r))
    num = den = 1
    for alpha in positive_roots(mu.series, mu.n):
        num *= _inner(shifted, alpha)
        den *= _inner(r, alpha)
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise ArithmeticError(f"non-integral Weyl dimension {Fraction(num, den)} for {mu}")
    return dim


def casimir_eigenvalue(mu: WeightVec) -> Fraction:
    """(mu + 2 rho, mu): scalar action of the quadratic Casimir on V(mu),
    as (2mu + 4 rho, 2mu) / 4."""
    t = mu.twice
    r = _rho_twice(mu.series, mu.n)
    return Fraction(_inner(tuple(m + 2 * x for m, x in zip(t, r)), t), 4)


# ---------------------------------------------------------------------------
# Pieri decomposition of V(e1) (x) V(mu)


class PieriTerm:
    """One summand of V(e1) (x) V(mu): kind 'raise'/'lower' at coordinate
    `index` (1-based), or kind 'same' (B series only)."""

    __slots__ = ("kind", "index", "weight")

    def __init__(self, kind: str, index: int, weight: WeightVec):
        self.kind = kind
        self.index = index
        self.weight = weight


def pieri_terms(mu: WeightVec) -> List[PieriTerm]:
    _require_dominant(mu)
    t = mu.twice
    n = mu.n
    js = jump_sequence(mu)
    s = js.s
    nb = js.boundaries
    terms: List[PieriTerm] = []
    if mu.series == "D":
        lower_count = s if t[n - 2] + t[n - 1] > 0 else s - 2 + (1 if t[n - 1] == 0 else 0)
    else:
        if t[n - 1] != 0:
            terms.append(PieriTerm("same", 0, mu))
        lower_count = s - (1 if t[n - 1] == 0 else 0) - (1 if t[n - 1] == 1 else 0)
    for i in range(1, max(lower_count, 0) + 1):
        terms.append(PieriTerm("lower", nb[i], mu.add_unit(nb[i], -1)))
    for i in range(1, s + 1):
        terms.append(PieriTerm("raise", 1 + nb[i - 1], mu.add_unit(1 + nb[i - 1], +1)))
    for t in terms:
        if not is_dominant(t.weight):
            raise AssertionError(f"Pieri produced non-dominant {t.weight} from {mu}")
    return terms


def pieri_decompose(mu: WeightVec) -> List[WeightVec]:
    """Summand highest weights of V(e1) (x) V(mu), canonically ordered."""
    ws = [t.weight for t in pieri_terms(mu)]
    ws.sort(key=lambda w: w.coords, reverse=True)
    return ws


# ---------------------------------------------------------------------------
# Spectrum of the split Casimir on V(e1) (x) V(mu)


class Spectrum:
    """Eigenvalues (distinct, descending) with multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Fraction, int], ...]):
        self.entries = entries


def split_casimir_eigenvalue(mu: WeightVec, term: PieriTerm) -> Fraction:
    """Closed-form eigenvalue of the split Casimir on one Pieri summand.

    These are the integral shifts: mu_i+1-i for a raise at i, -(mu_i+2n-i-1)
    (D) or -(mu_i+2n-i) (B) for a lower at i, and -n on the V(mu) block.
    """
    n = mu.n
    if term.kind == "raise":
        i = term.index
        return mu.coords[i - 1] + 1 - i
    if term.kind == "lower":
        i = term.index
        if mu.series == "D":
            return Fraction(1 + i - 2 * n) - mu.coords[i - 1]
        return Fraction(i - 2 * n) - mu.coords[i - 1]
    if term.kind == "same":
        return Fraction(-n)
    raise ValueError(term.kind)


def omega_tilde_spectrum(mu: WeightVec) -> Spectrum:
    """Spectrum of the split Casimir on V(e1) (x) V(mu), multiplicities from
    the Weyl dimensions of the matching Pieri summands."""
    _require_dominant(mu)
    acc: Dict[Fraction, int] = {}
    for term in pieri_terms(mu):
        lam = split_casimir_eigenvalue(mu, term)
        acc[lam] = acc.get(lam, 0) + weyl_dim(term.weight)
    entries = tuple(sorted(acc.items(), key=lambda t: t[0], reverse=True))
    return Spectrum(entries)


# ---------------------------------------------------------------------------
# Excluded central-charge sets


class LadderSet:
    """The set {base - k*step : k in N} of downward-shifted values."""

    __slots__ = ("name", "base", "step")

    def __init__(self, name: str, base: Fraction, step: Fraction):
        self.name = name
        self.base = base
        self.step = step

    def contains(self, b: Fraction) -> bool:
        d = (self.base - exact_scalar(b)) / self.step
        return d.denominator == 1 and d >= 0

    def describe(self) -> str:
        lattice = "N/2" if self.step == Fraction(1, 2) else "N"
        return f"{self.name} = {self.base}-{lattice}"


class CriticalSet:
    """Union of ladders excluded by the irreducibility theorems.

    For mu = 0 the set is exactly -N (membership is equivalent to
    reducibility); for mu != 0 it is only known to be sufficient to avoid.
    """

    __slots__ = ("components", "exact")

    def __init__(self, components: Tuple[LadderSet, ...], exact: bool):
        self.components = components
        self.exact = exact

    def violated(self, b: Fraction) -> Optional[LadderSet]:
        for comp in self.components:
            if comp.contains(b):
                return comp
        return None

    def contains(self, b: Fraction) -> bool:
        return self.violated(b) is not None


def critical_b_set(mu: WeightVec) -> CriticalSet:
    n = mu.n
    _require_dominant(mu)
    if mu.is_zero():
        return CriticalSet((LadderSet("-N", Fraction(0), Fraction(1)),), exact=True)
    c = mu.coords
    js = jump_sequence(mu)
    comps: List[LadderSet] = []
    if mu.series == "D":
        comps.append(LadderSet("n-1-N/2", Fraction(n - 1), Fraction(1, 2)))
        if c[n - 2] == -c[n - 1] > 0 and js.s == 2:
            comps.append(LadderSet("Theta(mu)", c[0] + n - 1, Fraction(1)))
        else:
            comps.append(LadderSet("Theta(mu)", c[0] + 2 * n - js.boundaries[1] - 1, Fraction(1)))
    else:
        comps.append(LadderSet("n-N/2", Fraction(n), Fraction(1, 2)))
        if all(x == Fraction(1, 2) for x in c):
            pass  # Theta(mu) is empty for the spin weight
        else:
            comps.append(LadderSet("Theta(mu)", c[0] + 2 * n - js.boundaries[1], Fraction(1)))
    return CriticalSet(tuple(comps), exact=False)
