"""Finite-dimensional irreducible modules V(mu) as explicit matrices.

Construction, by recursion on mu: V(0) is the trivial module; otherwise V(mu)
is the cyclic submodule of V(lambda) (x) W generated by its highest-weight
vector, for a dominant lambda smaller than mu:

- integral mu: W is the natural module and lambda = mu - sign(m_j) e_j, with
  j the first coordinate for which lambda is dominant (the last nonzero one
  always qualifies; the first keeps V(lambda) small, where the last would
  take D(a,a) down through D(a,0), of dim (a+1)^2);
- half-integral mu: W is the Clifford spin module and
  lambda = mu - (1/2, ..., 1/2, +-1/2), with the sign of m_n.

V(mu) occurs once in V(lambda) (x) W, so the raising operators have a
one-dimensional common kernel on the tensor's weight-mu space.  Its vector
generates V(mu) under the lowering operators, applied breadth-first with one
incremental echelon basis per weight keeping the independent images.  Each
generator's matrix comes from solving its images against the vectors of the
target weight.  The cost follows dim V(lambda) (x) W, not the size of a
Verma module.  Everything is exact, and the kernel dimension, the Weyl
dimension and every solve are checked.  This is uniform over integer and
spin (half-integer) weights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .linalg import EchelonBasis, SparseMat, nullspace_of_rows, rank_of_rows, solve_row_combination
from .ortho import OrthoBasis, build_ortho, casimir_pairs
from .weights import WeightVec, casimir_eigenvalue, is_dominant, natural_dim, weyl_dim

Coords = Tuple[Fraction, ...]

DEFAULT_DIM_CAP = 512


class CapExceeded(ValueError):
    """A requested module or slice is larger than its configured cap."""


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
        return SparseMat.from_entries(self.dim, self.dim, (
            (key, c * v) for idx, c in self.basis.expand(M).items()
            for key, v in self.rep[self.basis.elements[idx].label].data.items()))

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


def load_irrep_json(doc: dict) -> IrrepData:
    from .weights import parse_weight

    series = doc["series"]
    mu = parse_weight(doc["mu"], series)
    ob = build_ortho(natural_dim(series, mu.n))
    dim = doc["dim"]
    rep = {}
    for label, triplets in doc["matrices"].items():
        data = {(int(i), int(j)): Fraction(v) for i, j, v in triplets}
        rep[label] = SparseMat(dim, dim, data)
    weights = [parse_weight(w, series) for w in doc["weights"]]
    return IrrepData(mu, dim, weights, rep, doc["highest"], ob)


def _natural_rep(ob: OrthoBasis) -> Dict[str, SparseMat]:
    """The defining representation of o(m)."""
    return {el.label: ob.matrix(i) for i, el in enumerate(ob.elements)}


def _spin_rep(ob: OrthoBasis) -> Dict[str, SparseMat]:
    """The Clifford spin module of o(m), of dimension 2^n.

    Rational gammas with {g_a, g_b} = 2 G_ab, G the split form: 2 a_i^+ and
    a_i for the paired positions i and n+i, and for B the parity operator at
    position 0.  Then rho(X) = 1/4 sum_ab (X G)_ab g_a g_b.  State s has bit
    i set iff mode i is occupied; its weight has coordinate i equal to
    bit_i - 1/2.
    """
    n, dim = ob.n, 2**ob.n
    off = ob.m - 2 * n  # 1 for B: position 0 is the parity gamma

    def ladder(i: int, create: bool) -> SparseMat:
        # a_i^+ or a_i, with the sign (-1)^(occupied modes below i) that
        # makes different modes anticommute
        return SparseMat(dim, dim, {
            (s ^ (1 << i), s): Fraction(-1 if bin(s % (1 << i)).count("1") % 2 else 1)
            for s in range(dim) if bool(s >> i & 1) != create
        })

    gam: Dict[int, SparseMat] = {}  # matrix position -> gamma
    for i in range(n):
        gam[off + i] = ladder(i, True).scale(2)
        gam[off + n + i] = ladder(i, False)
    if off:
        gam[0] = SparseMat(dim, dim, {(s, s): Fraction((-1) ** bin(s).count("1")) for s in range(dim)})
    G = ob.split_form_matrix()
    rep = {}
    for i, el in enumerate(ob.elements):
        rho = SparseMat(dim, dim)
        for (a, b), c in (ob.matrix(i) * G).data.items():
            rho = rho + (gam[a] * gam[b]).scale(c / 4)
        rep[el.label] = rho
    return rep


def _kron_sum(left: Dict[str, SparseMat], right: Dict[str, SparseMat]) -> Dict[str, SparseMat]:
    """The diagonal action rho_l(X) (x) 1 + 1 (x) rho_r(X), left factor first."""
    eye_l = SparseMat.identity(next(iter(left.values())).rows)
    eye_r = SparseMat.identity(next(iter(right.values())).rows)
    return {label: M.kron(eye_r) + eye_l.kron(right[label]) for label, M in left.items()}


def _build(mu: WeightVec) -> IrrepData:
    """V(mu) for dominant mu, as the cyclic submodule described above."""
    ob = build_ortho(natural_dim(mu.series, mu.n))
    top = mu.coords
    if mu.is_zero():
        return IrrepData(mu, 1, [mu], {el.label: SparseMat(1, 1) for el in ob.elements}, 0, ob)
    if top[-1].denominator == 1:
        factor = _natural_rep(ob)
        for j, c in enumerate(top):
            lam = mu.add_unit(j + 1, -1 if c > 0 else 1)
            if c and is_dominant(lam):
                break
    else:
        factor = _spin_rep(ob)
        step = [Fraction(1, 2)] * (mu.n - 1) + [Fraction(1 if top[-1] > 0 else -1, 2)]
        lam = WeightVec(mu.series, tuple(c - s for c, s in zip(top, step)))
    tensor = _kron_sum(factor, _build(lam).rep)
    ambient = [tensor[el.label] for el in ob.elements]
    cols = [M.col_vectors() for M in ambient]
    cartan = ob.cartan_indices()
    at_top = [k for k in range(ambient[0].rows) if tuple(ambient[t].get(k, k) for t in cartan) == top]

    def act(i: int, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for k, x in vec.items():
            for r, v in cols[i][k].items():
                out[r] = out.get(r, 0) + x * v
        return {r: v for r, v in out.items() if v}

    # highest-weight vectors of weight mu: the raising operators' common kernel
    eqs: List[Dict[int, Fraction]] = []
    for i, el in enumerate(ob.elements):
        if el.kind == "pos":
            rows: Dict[int, Dict[int, Fraction]] = {}
            for p, k in enumerate(at_top):
                for r, v in cols[i][k].items():
                    rows.setdefault(r, {})[p] = v
            eqs.extend(rows.values())
    kernel = nullspace_of_rows(eqs, len(at_top))
    if len(kernel) != 1:
        raise AssertionError(f"{len(kernel)} highest-weight vectors of weight {mu} in the tensor, expected 1")
    v0 = {at_top[p]: x for p, x in kernel[0].items()}

    # breadth-first lowering; each weight keeps its independent images
    vecs: Dict[Coords, List[Dict[int, Fraction]]] = {top: [v0]}
    spans: Dict[Coords, EchelonBasis] = {top: EchelonBasis([v0])}
    queue = deque([(top, v0)])
    lowering = [(i, el.root) for i, el in enumerate(ob.elements) if el.kind == "neg"]
    while queue:
        nu, vec = queue.popleft()
        for i, root in lowering:
            image = act(i, vec)
            target = tuple(a + b for a, b in zip(nu, root))
            if spans.setdefault(target, EchelonBasis()).add(image):
                vecs.setdefault(target, []).append(image)
                queue.append((target, image))
    dim = weyl_dim(mu)
    offsets: Dict[Coords, int] = {}
    weights: List[WeightVec] = []
    for nu in sorted(vecs, reverse=True):
        offsets[nu] = len(weights)
        weights.extend(WeightVec(mu.series, nu) for _ in vecs[nu])
    if len(weights) != dim:
        raise AssertionError(f"constructed dimension {len(weights)} != Weyl dimension {dim}")

    rep: Dict[str, SparseMat] = {}
    zero = tuple(Fraction(0) for _ in top)
    for i, el in enumerate(ob.elements):
        shift = el.root if el.root is not None else zero
        data: Dict[Tuple[int, int], Fraction] = {}
        for nu, off in offsets.items():
            target = tuple(a + b for a, b in zip(nu, shift))
            for col, vec in enumerate(vecs[nu]):
                image = act(i, vec)
                if not image:
                    continue
                coeffs = solve_row_combination(vecs.get(target, []), image)
                if coeffs is None:
                    raise AssertionError(f"{el.label} maps a vector of weight {nu} outside the cyclic submodule")
                for row, x in enumerate(coeffs):
                    if x:
                        data[(offsets[target] + row, off + col)] = x
        rep[el.label] = SparseMat(dim, dim, data)
    return IrrepData(mu, dim, weights, rep, offsets[top], ob)


@lru_cache(maxsize=None)
def build_irrep(mu: WeightVec, cap: int = DEFAULT_DIM_CAP) -> IrrepData:
    """Construct V(mu) with explicit matrices for every basis element.

    `cap` bounds dim V(mu) only; the smaller weights of the recursion are
    built whatever their dimension, and are not cached.
    """
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    dim = weyl_dim(mu)
    if dim > cap:
        raise CapExceeded(f"dim V(mu) = {dim} exceeds cap {cap}")
    return _build(mu)


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
        raise CapExceeded(f"tensor dimension {dim} exceeds cap {cap}")
    rep = _kron_sum(_natural_rep(ob), V.rep)
    return TensorModule(V.mu, dim, rep, (m, V.dim))
