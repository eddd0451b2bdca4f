"""Finite-dimensional irreducible modules V(mu) as explicit matrices.

Construction: V(mu) is the quotient of the Verma module by the radical of its
contravariant form (transpose antiautomorphism tau).  Each weight space of the
Verma module is spanned by ordered words in the lowering operators; the words
of a weight drop are the nonnegative integer partitions of that drop into
lowering roots, enumerated with a per-call (root index, remainder)
reachability memo so only branches that end in a partition are visited.  The
form is the recursion on the first letter

    form(a.w1, w2) = sign_a * sum_w act(tau(f_a), w2)[w] * form(w1, w),
    form((), w2) = [w2 == ()],

memoized on word pairs.  The radical is quotiented away by picking words with
independent form rows, and the generator matrices are extracted by solving
against the surviving pairings.  This is uniform over integer and spin
(half-integer) weights and fully exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .linalg import EchelonBasis, SparseMat, rank_of_rows, solve_row_combination
from .ortho import OrthoBasis, build_ortho, casimir_pairs
from .weights import WeightVec, casimir_eigenvalue, is_dominant, weyl_dim

Word = Tuple[int, ...]  # indices into the negative-root list, ascending
Coords = Tuple[Fraction, ...]

DEFAULT_DIM_CAP = 512

_ZERO = Fraction(0)  # shared by the (mostly zero) form memo entries
_ONE = Fraction(1)


@dataclass
class IrrepData:
    """V(mu) with its weight basis and one matrix per algebra basis element."""

    mu: WeightVec
    dim: int
    weights: List[WeightVec]  # weight of each basis vector
    rep: Dict[str, SparseMat]  # basis label -> dim x dim matrix
    highest: int  # index of the highest-weight vector
    basis: OrthoBasis

    def matrix_of(self, M: SparseMat) -> SparseMat:
        """Representation matrix of an arbitrary algebra element."""
        out = SparseMat(self.dim, self.dim)
        for idx, c in self.basis.expand(M).items():
            out = out + self.rep[self.basis.elements[idx].label].scale(c)
        return out

    def to_json_dict(self) -> dict:
        mats = {}
        for label, M in self.rep.items():
            mats[label] = [[i, j, str(v)] for (i, j), v in sorted(M.data.items())]
        return {
            "schema": 1,
            "series": self.mu.series,
            "n": self.mu.n,
            "mu": str(self.mu),
            "dim": self.dim,
            "weights": [str(w) for w in self.weights],
            "highest": self.highest,
            "matrices": mats,
        }

    def save_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)


def load_irrep_json(doc: dict) -> IrrepData:
    from .weights import parse_weight

    series = doc["series"]
    mu = parse_weight(doc["mu"], series)
    ob = build_ortho(2 * mu.n if series == "D" else 2 * mu.n + 1)
    dim = doc["dim"]
    rep = {}
    for label, triplets in doc["matrices"].items():
        data = {(int(i), int(j)): Fraction(v) for i, j, v in triplets}
        rep[label] = SparseMat(dim, dim, data)
    weights = [parse_weight(w, series) for w in doc["weights"]]
    return IrrepData(mu, dim, weights, rep, doc["highest"], ob)


class _VermaBuilder:
    """Shared straightening/bracket machinery for one algebra o(m)."""

    def __init__(self, ob: OrthoBasis):
        self.ob = ob
        self.neg: List[int] = [i for i, e in enumerate(ob.elements) if e.kind == "neg"]
        self.neg_pos = {b: p for p, b in enumerate(self.neg)}
        # positive direction of each lowering root (as plain Fractions)
        self.droot: List[Coords] = [tuple(-c for c in ob.elements[b].root) for b in self.neg]
        self.kind = [e.kind for e in ob.elements]
        # lowering roots are integral; phi is a linear functional positive on
        # every one of them, so phi(rem) bounds each multiplicity in a partition
        if any(c.denominator != 1 for d in self.droot for c in d):
            raise AssertionError("lowering root with a non-integral coordinate")
        self._iroot: List[Tuple[int, ...]] = [tuple(int(c) for c in d) for d in self.droot]
        n = ob.m // 2
        self._phi_w = tuple(n - i + 1 for i in range(n))
        self._root_phi = [self._phi(d) for d in self._iroot]
        self._straighten_memo: Dict[Word, Dict[Word, Fraction]] = {}
        self._tau: List[Tuple[int, Fraction]] = []
        for b in self.neg:
            exp = ob.expand(ob.matrix(b).transpose())
            if len(exp) != 1:
                raise AssertionError("transpose of a root vector is not a single basis element")
            ((idx, c),) = exp.items()
            self._tau.append((idx, c))

    def straighten(self, word: Word) -> Dict[Word, Fraction]:
        if all(word[t] <= word[t + 1] for t in range(len(word) - 1)):
            return {word: Fraction(1)}
        memo = self._straighten_memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        t = next(t for t in range(len(word) - 1) if word[t] > word[t + 1])
        a, b = word[t], word[t + 1]
        swapped = word[:t] + (b, a) + word[t + 2 :]
        out: Dict[Word, Fraction] = {}

        def acc(d: Dict[Word, Fraction], c: Fraction):
            for w, v in d.items():
                nv = out.get(w, Fraction(0)) + c * v
                if nv:
                    out[w] = nv
                elif w in out:
                    del out[w]

        acc(self.straighten(swapped), Fraction(1))
        for k, c in self.ob.bracket_coeffs(self.neg[a], self.neg[b]):
            if self.kind[k] != "neg":
                raise AssertionError("straightening left the lowering subalgebra")
            acc(self.straighten(word[:t] + (self.neg_pos[k],) + word[t + 2 :]), c)
        memo[word] = out
        return out

    # -- weight-space words ------------------------------------------------

    def _phi(self, v: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(v, self._phi_w))

    def _reachable(self, p: int, rem: Tuple[int, ...], memo: Dict[Tuple[int, Tuple[int, ...]], bool]) -> bool:
        """Is rem a nonnegative integer combination of the roots from p on?"""
        if p == len(self._iroot):
            return not any(rem)
        key = (p, rem)
        hit = memo.get(key)
        if hit is None:
            d = self._iroot[p]
            hit = any(
                self._reachable(p + 1, tuple(r - c * x for r, x in zip(rem, d)), memo)
                for c in range(self._phi(rem) // self._root_phi[p] + 1)
            )
            memo[key] = hit
        return hit

    def _partitions(self, p: int, rem: Tuple[int, ...], counts: Tuple[int, ...], memo, out: List[Tuple[int, ...]]):
        if p == len(self._iroot):
            out.append(counts)
            return
        d = self._iroot[p]
        for c in range(self._phi(rem) // self._root_phi[p] + 1):
            nrem = tuple(r - c * x for r, x in zip(rem, d))
            if self._reachable(p + 1, nrem, memo):
                self._partitions(p + 1, nrem, counts + (c,), memo, out)

    def words_for(self, delta: Coords) -> List[Word]:
        """Canonical lowering words of the integral weight drop delta, ordered
        by length, then by descending root multiplicities."""
        rem = tuple(int(c) for c in delta)
        memo: Dict[Tuple[int, Tuple[int, ...]], bool] = {}
        found: List[Tuple[int, ...]] = []
        if self._reachable(0, rem, memo):
            self._partitions(0, rem, (), memo, found)
        found.sort(key=lambda counts: (sum(counts), tuple(-c for c in counts)))
        return [tuple(p for p, c in enumerate(counts) for _ in range(c)) for counts in found]


_BUILDERS: Dict[Tuple[str, int], _VermaBuilder] = {}


def _builder_for(series: str, n: int) -> _VermaBuilder:
    key = (series, n)
    if key not in _BUILDERS:
        _BUILDERS[key] = _VermaBuilder(build_ortho(2 * n if series == "D" else 2 * n + 1))
    return _BUILDERS[key]


class _IrrepBuild:
    def __init__(self, mu: WeightVec):
        self.mu = mu
        self.vb = _builder_for(mu.series, mu.n)
        self.ob = self.vb.ob
        self._cartan_coord = {idx: mu.coords[t] for t, idx in enumerate(self.ob.cartan_indices())}
        self._act_memo: Dict[Tuple[int, Word], Dict[Word, Fraction]] = {}
        self._form_memo: Dict[Tuple[Word, Word], Fraction] = {}
        self._space: Dict[Coords, dict] = {}
        self._words: Dict[Coords, List[Word]] = {}

    # -- Verma module actions ------------------------------------------------

    def act(self, idx: int, word: Word) -> Dict[Word, Fraction]:
        key = (idx, word)
        hit = self._act_memo.get(key)
        if hit is not None:
            return hit
        kind = self.vb.kind[idx]
        if not word:
            if kind == "pos":
                out: Dict[Word, Fraction] = {}
            elif kind == "cartan":
                c = self._cartan_coord[idx]
                out = {(): c} if c else {}
            else:
                out = {(self.vb.neg_pos[idx],): Fraction(1)}
        else:
            a, rest = word[0], word[1:]
            out = {}

            def acc(d: Dict[Word, Fraction], c: Fraction):
                for w, v in d.items():
                    nv = out.get(w, Fraction(0)) + c * v
                    if nv:
                        out[w] = nv
                    elif w in out:
                        del out[w]

            # f_a * (X . rest)
            inner = self.act(idx, rest)
            for w, v in inner.items():
                acc(self.vb.straighten((a,) + w), v)
            # [X, f_a] . rest
            for k, c in self.ob.bracket_coeffs(idx, self.vb.neg[a]):
                acc(self.act(k, rest), c)
        self._act_memo[key] = out
        return out

    def form_words(self, w1: Word, w2: Word) -> Fraction:
        """Contravariant pairing of the word vectors f_{w1} v+ and f_{w2} v+."""
        if not w1:
            return _ONE if not w2 else _ZERO
        key = (w1, w2)
        hit = self._form_memo.get(key)
        if hit is not None:
            return hit
        idx, sign = self.vb._tau[w1[0]]
        rest = w1[1:]
        val = _ZERO
        for w, c in self.act(idx, w2).items():
            f = self.form_words(rest, w)
            if f:
                val += c * f
        val = sign * val if val else _ZERO
        self._form_memo[key] = val
        return val

    # -- weight spaces ---------------------------------------------------------

    def space(self, nu: Coords) -> dict:
        """Weight space data: words, chosen basis words, pairing rows."""
        hit = self._space.get(nu)
        if hit is not None:
            return hit
        words = self.words_at(nu)
        basis: List[int] = []
        kept_rows: List[Dict[int, Fraction]] = []
        span = EchelonBasis()
        for wi, w in enumerate(words):
            row = {}
            for wj, w2 in enumerate(words):
                v = self.form_words(w, w2)
                if v:
                    row[wj] = v
            if span.add(row):
                basis.append(wi)
                kept_rows.append(row)
        sp = {"words": words, "basis": basis, "rows": kept_rows}
        self._space[nu] = sp
        return sp

    def words_at(self, nu: Coords) -> List[Word]:
        """The Verma words of weight nu ([] if nu is not an integral drop)."""
        hit = self._words.get(nu)
        if hit is None:
            delta = tuple(m - x for m, x in zip(self.mu.coords, nu))
            hit = [] if any(d.denominator != 1 for d in delta) else self.vb.words_for(delta)
            self._words[nu] = hit
        return hit

    def pairings(self, words: List[Word], vec: Dict[Word, Fraction]) -> Dict[int, Fraction]:
        """Nonzero form values of vec against each word, by word position;
        {} iff vec lies in the radical, i.e. is zero in V(mu)."""
        target = {}
        for wj, w2 in enumerate(words):
            v = Fraction(0)
            for w, c in vec.items():
                if c:
                    v += c * self.form_words(w2, w)
            if v:
                target[wj] = v
        return target

    def express(self, nu: Coords, vec: Dict[Word, Fraction]) -> List[Fraction]:
        """Coordinates of vec's image in the chosen basis of V(mu)_nu."""
        sp = self.space(nu)
        coeffs = solve_row_combination(sp["rows"], self.pairings(sp["words"], vec))
        if coeffs is None:
            raise AssertionError("inconsistent pairing solve")
        return coeffs


def _candidate_weights(mu: WeightVec) -> List[Coords]:
    """All lattice points mu - N.(simple roots) within the weight cube."""
    n = mu.n
    bound = max([abs(c) for c in mu.coords], default=Fraction(0))
    simples: List[Coords] = []
    for i in range(n - 1):
        v = [Fraction(0)] * n
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        simples.append(tuple(v))
    v = [Fraction(0)] * n
    if mu.series == "D":
        v[n - 2], v[n - 1] = Fraction(1), Fraction(1)
    else:
        v[n - 1] = Fraction(1)
    simples.append(tuple(v))
    slack = bound + 1
    seen = {mu.coords}
    frontier = [mu.coords]
    while frontier:
        nxt = []
        for w in frontier:
            for sr in simples:
                cand = tuple(a - b for a, b in zip(w, sr))
                if cand in seen or any(abs(c) > slack for c in cand):
                    continue
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
    return sorted((w for w in seen if all(abs(c) <= bound for c in w)), reverse=True)


@lru_cache(maxsize=None)
def build_irrep(mu: WeightVec, cap: int = DEFAULT_DIM_CAP) -> IrrepData:
    """Construct V(mu) with explicit matrices for every basis element."""
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    dim = weyl_dim(mu)
    if dim > cap:
        raise ValueError(f"dim V(mu) = {dim} exceeds cap {cap}")
    bld = _IrrepBuild(mu)
    ob = bld.ob

    weight_list = _candidate_weights(mu)
    offsets: Dict[Coords, int] = {}
    basis_weights: List[WeightVec] = []
    total = 0
    for nu in weight_list:
        sp = bld.space(nu)
        if sp["basis"]:
            offsets[nu] = total
            total += len(sp["basis"])
            basis_weights.extend(WeightVec(mu.series, nu) for _ in sp["basis"])
    if total != dim:
        raise AssertionError(f"constructed dimension {total} != Weyl dimension {dim}")

    rep: Dict[str, SparseMat] = {}
    for idx, el in enumerate(ob.elements):
        data: Dict[Tuple[int, int], Fraction] = {}
        shift = el.root if el.root is not None else tuple(Fraction(0) for _ in range(mu.n))
        for nu, off in offsets.items():
            sp = bld.space(nu)
            target_nu = tuple(a + b for a, b in zip(nu, shift))
            toff = offsets.get(target_nu)
            for col, wi in enumerate(sp["basis"]):
                vec = bld.act(idx, sp["words"][wi])
                if not vec:
                    continue
                if toff is None:
                    # V(mu) is zero at target_nu: pair the image against that
                    # weight's words only, never building its Gram matrix
                    if bld.pairings(bld.words_at(target_nu), vec):
                        raise AssertionError("nonzero quotient image in a zero weight space")
                    continue
                coords = bld.express(target_nu, vec)
                for row, c in enumerate(coords):
                    if c:
                        data[(toff + row, off + col)] = c
        rep[el.label] = SparseMat(total, total, data)

    highest = offsets[mu.coords]  # the empty word is the first basis word at mu
    return IrrepData(mu, total, basis_weights, rep, highest, ob)


def omega_matrix(V: IrrepData) -> SparseMat:
    """Quadratic Casimir assembled from the representation matrices."""
    out = SparseMat(V.dim, V.dim)
    for M1, M2 in casimir_pairs(V.basis):
        out = out + V.matrix_of(M1) * V.matrix_of(M2)
    return out


def _commutant_dimension(mats: Sequence[SparseMat], dim: int) -> int:
    """Dimension of {C : [M, C] = 0 for all M}, by exact elimination."""
    rows: List[Dict[int, Fraction]] = []
    for M in mats:
        # equation rows of M C - C M = 0, unknowns C[(a,b)] flattened as a*dim+b
        eq: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, k), v in M.data.items():
            for b in range(dim):
                row = eq.setdefault((i, b), {})
                row[k * dim + b] = row.get(k * dim + b, Fraction(0)) + v
        for (k, j), v in M.data.items():
            for a in range(dim):
                row = eq.setdefault((a, j), {})
                row[a * dim + k] = row.get(a * dim + k, Fraction(0)) - v
        rows.extend(r for r in eq.values() if r)
    nullity = dim * dim - rank_of_rows(rows)
    return nullity


def validate_irrep(V: IrrepData) -> Dict[str, object]:
    """Independent checks: homomorphism, weight diagonality, highest-weight
    annihilation, Casimir scalar, and irreducibility via the commutant."""
    ob = V.basis
    report: Dict[str, object] = {}
    hom_fail = []
    labels = ob.labels()
    for i in range(len(ob)):
        for j in range(i + 1, len(ob)):
            lhs = SparseMat(V.dim, V.dim)
            for k, c in ob.bracket_coeffs(i, j):
                lhs = lhs + V.rep[labels[k]].scale(c)
            rhs = V.rep[labels[i]].bracket(V.rep[labels[j]])
            if lhs != rhs:
                hom_fail.append((labels[i], labels[j]))
    report["homomorphism_ok"] = not hom_fail
    report["homomorphism_failures"] = hom_fail

    diag_ok = True
    for ci, idx in enumerate(ob.cartan_indices()):
        M = V.rep[labels[idx]]
        for (r, c), v in M.data.items():
            if r != c or v != V.weights[r].coords[ci]:
                diag_ok = False
    report["cartan_diagonal_ok"] = diag_ok

    hw_ok = True
    for i, el in enumerate(ob.elements):
        if el.kind != "pos":
            continue
        col = {r for (r, c) in V.rep[el.label].data if c == V.highest}
        if col:
            hw_ok = False
    report["highest_weight_annihilated"] = hw_ok

    omega = omega_matrix(V)
    expected = casimir_eigenvalue(V.mu)
    report["casimir_value"] = expected
    report["casimir_scalar_ok"] = omega == SparseMat.identity(V.dim).scale(expected)

    comm = _commutant_dimension([V.rep[l] for l in labels], V.dim)
    report["commutant_dimension"] = comm
    report["irreducible"] = comm == 1
    report["ok"] = bool(
        report["homomorphism_ok"]
        and diag_ok
        and hw_ok
        and report["casimir_scalar_ok"]
        and report["irreducible"]
    )
    return report


@dataclass
class TensorModule:
    """V(e1) (x) V(mu) with the diagonal action, natural factor first."""

    mu: WeightVec
    dim: int
    rep: Dict[str, SparseMat]
    factor_dims: Tuple[int, int]


def tensor_with_natural(V: IrrepData, cap: int = DEFAULT_DIM_CAP) -> TensorModule:
    ob = V.basis
    m = ob.m
    dim = m * V.dim
    if dim > cap:
        raise ValueError(f"tensor dimension {dim} exceeds cap {cap}")
    eye_nat = SparseMat.identity(m)
    eye_v = SparseMat.identity(V.dim)
    rep = {}
    for i, el in enumerate(ob.elements):
        nat = ob.matrix(i)  # the natural module is the defining representation
        rep[el.label] = nat.kron(eye_v) + eye_nat.kron(V.rep[el.label])
    return TensorModule(V.mu, dim, rep, (m, V.dim))
