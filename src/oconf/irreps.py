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
v0 generates V(mu) under the lowering operators alone (U(g) v0 =
U(n^-) v0 by PBW; Humphreys, GTM 9, 20.2), applied breadth-first.  Each
weight keeps one echelon form of its vectors so far, every row augmented
by a 1 in a column of its own, so one reduction of an image F_i u either
shows it new (the weight's next vector, with parent u) or gives its
coordinates: the lowering matrices' columns.  The other matrices need no
tensor arithmetic.  A Cartan matrix holds the weights on its diagonal.  A
simple E_s kills v0, and E_s F_i u = F_i (E_s u) + [E_s, F_i] u, where
[E_s, F_i] has Cartan and lowering terms only (s is simple), so E_s's
columns follow down the generation tree.  Each other raising matrix is one
bracket, rho(E_a) = [rho(E_s), rho(E_b)] / c for [E_s, E_b] = c E_a, in
order of height.  A generator acts on the tensor factor by factor,
X (w (x) v) = (X w) (x) v + w (x) (X v), from the columns of its two
factors' matrices: no tensor-space matrix is ever formed.  The cost
follows dim V(lambda) (x) W, not the size of a Verma module.  Everything
is exact, and the kernel and Weyl dimensions are checked (`validate_irrep`
checks the matrices apart), uniformly over integer and spin
(half-integer) weights.

Weights are doubled ints inside (`WeightVec.twice`, and twice each root):
the per-weight dicts are keyed by them and shifted by integer sums.  Only
`IrrepData.weights` holds `WeightVec`s, whose coordinates are Fractions; it
lists them in decreasing order, which is the order of the doubled keys.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .linalg import EchelonBasis, SparseMat, canon, nullspace_of_rows
from .ortho import OrthoBasis, _root_height, build_ortho, casimir_terms
from .weights import Twice, WeightVec, casimir_eigenvalue, doubled, is_dominant, natural_dim, weyl_dim

DEFAULT_DIM_CAP = 512


class CapExceeded(ValueError):
    """A requested module or slice is larger than its configured cap."""


class IrrepData:
    """V(mu) with its weight basis and one matrix per algebra basis element."""

    __slots__ = ("mu", "dim", "weights", "rep", "highest", "basis")

    def __init__(self, mu: WeightVec, dim: int, weights: List[WeightVec], rep: Dict[str, SparseMat],
                 highest: int, basis: OrthoBasis):
        self.mu = mu
        self.dim = dim
        self.weights = weights  # weight of each basis vector
        self.rep = rep  # basis label -> dim x dim matrix
        self.highest = highest  # index of the highest-weight vector
        self.basis = basis

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
            (s ^ (1 << i), s): -1 if bin(s % (1 << i)).count("1") % 2 else 1
            for s in range(dim) if bool(s >> i & 1) != create
        })

    gam: Dict[int, SparseMat] = {}  # matrix position -> gamma
    for i in range(n):
        gam[off + i] = ladder(i, True).scale(2)
        gam[off + n + i] = ladder(i, False)
    if off:
        gam[0] = SparseMat(dim, dim, {(s, s): (-1) ** bin(s).count("1") for s in range(dim)})
    G = ob.split_form_matrix()
    rep = {}
    for i, el in enumerate(ob.elements):
        rho = SparseMat(dim, dim)
        for (a, b), c in (ob.matrix(i) * G).data.items():
            rho = rho + (gam[a] * gam[b]).scale(Fraction(c, 4))
        rep[el.label] = rho
    return rep


class _CyclicModule:
    """The cyclic submodule of V(lambda) (x) W generated by its highest-weight
    vector of weight mu (mu nonzero and dominant; see the module docstring).

    `cols[i]` is generator i as its factors' columns, W's then V(lambda)'s;
    `act` applies it factor by factor, so the tensor's matrices are never
    formed.  `vecs[nu]` lists its basis vectors of doubled weight nu in the
    order found (generator i moves a vector's weight by `shifts[i]`).  While
    generating, one echelon form per weight, each row augmented by a 1 in a
    column of its own past the tensor's, solves any image for its
    coordinates by a single reduction; the forms are dropped at the end.
    `lowered` keeps, per vector, the coordinates of its lowering images, and
    `parents` the (weight, index, generator) of the vector it was found as
    an image of (None for v0); `irrep` builds every matrix from these.
    """

    def __init__(self, mu: WeightVec):
        ob = self.ob = build_ortho(natural_dim(mu.series, mu.n))
        self.mu = mu
        top = mu.twice
        if top[-1] % 2 == 0:
            factor = _natural_rep(ob)
            for j, c in enumerate(top):
                if c:
                    lam = mu.add_unit(j + 1, -1 if c > 0 else 1)
                    if is_dominant(lam):
                        break
        else:
            factor = _spin_rep(ob)
            step = [1] * (mu.n - 1) + [1 if top[-1] > 0 else -1]
            lam = WeightVec.from_twice(mu.series, tuple(map(sub, top, step)))
        inner = _build(lam)
        # index a*d + s is w_a (x) v_s, of weight wt(w_a) + wt(v_s)
        self.cols = [(factor[el.label].col_vectors(), inner.rep[el.label].col_vectors()) for el in ob.elements]
        m, d = len(self.cols[0][0]), inner.dim
        cartan = [factor[ob.elements[t].label] for t in ob.cartan_indices()]
        at_top = [a * d + s for a in range(m) for s, w in enumerate(inner.weights)
                  if tuple(doubled(h.get(a, a)) + c for h, c in zip(cartan, w.twice)) == top]
        width = m * d

        # highest-weight vectors of weight mu: the raising operators' common kernel
        eqs: List[Dict[int, Fraction]] = []
        for i, el in enumerate(ob.elements):
            if el.kind == "pos":
                rows: Dict[int, Dict[int, Fraction]] = {}
                for p, k in enumerate(at_top):
                    for r, v in self.act(i, {k: 1}).items():
                        rows.setdefault(r, {})[p] = v
                eqs.extend(rows.values())
        kernel = nullspace_of_rows(eqs, len(at_top))
        if len(kernel) != 1:
            raise AssertionError(f"{len(kernel)} highest-weight vectors of weight {mu} in the tensor, expected 1")
        v0 = {at_top[p]: x for p, x in kernel[0].items()}

        # breadth-first lowering; an image that is no combination of its
        # weight's vectors so far becomes the next vector of that weight
        self.vecs: Dict[Twice, List[Dict[int, Fraction]]] = {top: [v0]}
        spans: Dict[Twice, EchelonBasis] = {top: EchelonBasis([{**v0, width: 1}])}
        self.lowered: Dict[Twice, List[Dict[int, Dict[int, Fraction]]]] = {top: [{}]}
        self.parents: Dict[Twice, List[Optional[Tuple[Twice, int, int]]]] = {top: [None]}
        queue = deque([(top, 0)])
        # the doubled weight shift of each generator: twice its root
        self.shifts = [(0,) * mu.n if el.root is None else tuple(2 * c for c in el.root) for el in ob.elements]
        lowering = [(i, self.shifts[i]) for i, el in enumerate(ob.elements) if el.kind == "neg"]
        while queue:
            nu, c = queue.popleft()
            vec, known = self.vecs[nu][c], self.lowered[nu][c]
            for i, root in lowering:
                image = self.act(i, vec)
                target = tuple(map(add, nu, root))
                span = spans.setdefault(target, EchelonBasis())
                coeffs = span.coordinates(image, width)
                if coeffs is None:
                    k = span.rank
                    span.add({**image, width + k: 1})
                    self.vecs.setdefault(target, []).append(image)
                    self.lowered.setdefault(target, []).append({})
                    self.parents.setdefault(target, []).append((nu, c, i))
                    queue.append((target, k))
                    coeffs = {k: 1}
                known[i] = coeffs

    def act(self, i: int, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Generator i of the tensor action applied to vec, factor by factor:
        X (w_a (x) v_s) = (X w_a) (x) v_s + w_a (x) (X v_s).  Every product
        and partial sum is canonical, so no integral Fraction is added."""
        out: Dict[int, Fraction] = {}
        left, right = self.cols[i]
        d = len(right)
        for k, x in vec.items():
            a, s = divmod(k, d)
            base = k - s
            for r, v in left[a].items():
                key, p = r * d + s, canon(x * v)
                w = out.get(key)
                out[key] = p if w is None else canon(w + p)
            for r, v in right[s].items():
                key, p = base + r, canon(x * v)
                w = out.get(key)
                out[key] = p if w is None else canon(w + p)
        return {r: v for r, v in out.items() if v}

    def irrep(self) -> IrrepData:
        """V(mu) in the basis of `vecs`, by weight in decreasing order, from
        the generation's data alone (see the module docstring): no image is
        computed and no vector reduced."""
        mu, ob = self.mu, self.ob
        dim = weyl_dim(mu)
        offsets: Dict[Twice, int] = {}
        weights: List[WeightVec] = []
        for nu in sorted(self.vecs, reverse=True):
            offsets[nu] = len(weights)
            weights.extend([WeightVec.from_twice(mu.series, nu)] * len(self.vecs[nu]))
        if len(weights) != dim:
            raise AssertionError(f"constructed dimension {len(weights)} != Weyl dimension {dim}")

        def matrix(shift: Twice, images: Dict[Twice, List[Dict[int, Fraction]]]) -> SparseMat:
            # images[nu][c]: vector c of weight nu's image, in the vectors of weight nu + shift
            data: Dict[Tuple[int, int], Fraction] = {}
            for nu, off in offsets.items():
                base = offsets.get(tuple(map(add, nu, shift)))
                for col, coeffs in enumerate(images[nu], off):
                    for row, x in coeffs.items():
                        data[(base + row, col)] = x
            return SparseMat(dim, dim, data)

        rep: Dict[int, SparseMat] = {}
        cartan = ob.cartan_indices()
        for ci, t in enumerate(cartan):
            rep[t] = SparseMat(dim, dim, {(k, k): w.coords[ci] for k, w in enumerate(weights)})
        lowering = [i for i, el in enumerate(ob.elements) if el.kind == "neg"]
        for i in lowering:
            rep[i] = matrix(self.shifts[i], {nu: [known[i] for known in found] for nu, found in self.lowered.items()})

        # a simple E_s down the generation tree: E_s v0 = 0, and for v = F_i u
        # E_s v = F_i (E_s u) + [E_s, F_i] u
        simple = [s for s, el in enumerate(ob.elements)
                  if el.kind == "pos" and _root_height(ob.series, ob.n, el.root) == 1]
        for s in simple:
            up, images = self.shifts[s], {}
            for nu in offsets:  # decreasing, so every parent comes first
                found = images[nu] = []
                for parent in self.parents[nu]:
                    out: Dict[int, Fraction] = {}
                    if parent is not None:
                        pnu, pc, i = parent
                        above = self.lowered.get(tuple(map(add, pnu, up)))
                        parts = [(x, above[r][i]) for r, x in images[pnu][pc].items()]
                        for k, a in ob.bracket_coeffs(s, i):  # Cartan and lowering terms, as s is simple
                            kind = ob.elements[k].kind
                            if kind == "pos":
                                raise AssertionError(f"[{ob.elements[s].label}, {ob.elements[i].label}] has a raising term")
                            parts.append((canon(Fraction(a * pnu[cartan.index(k)], 2)), {pc: 1}) if kind == "cartan"
                                         else (a, self.lowered[pnu][pc][k]))
                        for x, col in parts:
                            for r, y in col.items():
                                p = canon(x * y)
                                w = out.get(r)
                                out[r] = p if w is None else canon(w + p)
                    found.append({r: x for r, x in sorted(out.items()) if x})
            rep[s] = matrix(up, images)

        # every other E_a as [rho(E_s), rho(E_b)] / c for [E_s, E_b] = c E_a,
        # in order of height, so rho(E_b) is known
        roots = {el.root: i for i, el in enumerate(ob.elements)}
        for a, el in enumerate(ob.elements):
            if el.kind == "pos" and a not in rep:
                for s in simple:
                    b = roots.get(tuple(map(sub, el.root, ob.elements[s].root)))
                    if b is not None:
                        break
                (k, c), = ob.bracket_coeffs(s, b)
                if k != a:
                    raise AssertionError(f"[{ob.elements[s].label}, {ob.elements[b].label}] is no multiple of {el.label}")
                M = rep[s].bracket(rep[b]).scale(Fraction(1, c))
                # stored column by column, rows ascending, as every other matrix
                rep[a] = SparseMat._trusted(dim, dim, dict(sorted(M.data.items(), key=lambda e: e[0][::-1])))
        return IrrepData(mu, dim, weights, {el.label: rep[i] for i, el in enumerate(ob.elements)},
                         offsets[mu.twice], ob)


@lru_cache(maxsize=None)
def _build(mu: WeightVec) -> IrrepData:
    """V(mu) for dominant mu: trivial for mu = 0, else the cyclic submodule.

    Cached, with no cap: a weight the recursion passes through several
    times, such as D(1,0) below D(1,1), D(2,0) and D(2,1), is built once
    per process."""
    if mu.is_zero():
        ob = build_ortho(natural_dim(mu.series, mu.n))
        return IrrepData(mu, 1, [mu], {el.label: SparseMat(1, 1) for el in ob.elements}, 0, ob)
    return _CyclicModule(mu).irrep()


@lru_cache(maxsize=None)
def build_irrep(mu: WeightVec, cap: int = DEFAULT_DIM_CAP) -> IrrepData:
    """Construct V(mu) with explicit matrices for every basis element.

    `cap` bounds dim V(mu) only; the smaller weights of the recursion are
    built whatever their dimension.  Every weight built, requested or
    passed through by the recursion, is cached by `_build`, so each is
    built once per process; this cache keeps only the requested weights
    that passed the cap.  A weight that is not dominant is rejected by
    `weyl_dim`.
    """
    dim = weyl_dim(mu)
    if dim > cap:
        raise CapExceeded(f"dim V(mu) = {dim} exceeds cap {cap}")
    return _build(mu)


def casimir_matrix(ob: OrthoBasis, rep: Dict[str, SparseMat], dim: int) -> SparseMat:
    """Quadratic Casimir of a module where each element of ob acts by
    rep[label]: the sum of c rep[a] rep[b] over `casimir_terms`."""
    return SparseMat.from_entries(dim, dim, (
        (key, c * v) for a, b, c in casimir_terms(ob.m) for key, v in (rep[a] * rep[b]).data.items()))


def omega_matrix(V: IrrepData) -> SparseMat:
    """Quadratic Casimir assembled from the representation matrices."""
    return casimir_matrix(V.basis, V.rep, V.dim)


def _commutant_dimension(ob: OrthoBasis, rep: Dict[str, SparseMat], dim: int) -> int:
    """dim End(V) for a representation V in a weight basis, where each
    element of ob acts by rep[label], from its highest-weight vectors.

    V is the sum of m_nu copies of V(nu) (Weyl), so dim End(V) is the sum
    of the m_nu^2 (Schur), and m_nu is the dimension of the weight-nu
    vectors that every positive root vector kills (Humphreys, GTM 9, 6.3
    and 20).  A positive root vector maps weight nu to nu + alpha, so each
    of its rows lies in one weight space, and in each weight space the
    non-pivot columns of all those rows number m_nu.  The weight classes
    are read from the diagonal matrices, not from the builder;
    `validate_irrep` checks apart that V is a representation and that its
    Cartan matrices are diagonal.  In a basis with no diagonal matrix
    there is one class, and the result is (sum of the m_nu)^2: at least
    dim End(V), and 1 exactly when V is irreducible.
    """
    diagonal = [M for M in rep.values() if all(i == j for i, j in M.data)]
    span = EchelonBasis(r for el in ob.elements if el.kind == "pos" for r in rep[el.label].row_vectors() if r)
    free = Counter(tuple(M.get(a, a) for M in diagonal) for a in range(dim) if a not in span.rows)
    return sum(m * m for m in free.values())


def _subalgebra_dimension(ob: OrthoBasis, gens: List[int]) -> int:
    """dim of the subalgebra of o(m) that the basis elements `gens` generate.

    It is spanned by the brackets [s_1, [s_2, ..., s_k]] of generators, so
    it is the span of `gens` closed under ad(s), s in `gens`: one echelon
    form, fed each new vector's brackets with the generators.  Each bracket
    [s, X_k] is read from `bracket_coeffs(i, j)`, i < j, the key the
    homomorphism check uses, so no other basis pair is expanded.
    """
    closure = EchelonBasis()
    queue = deque({s: 1} for s in gens)
    while queue:
        x = queue.popleft()
        if not closure.add(x):
            continue
        for s in gens:
            out: Dict[int, Fraction] = {}  # [s, x]; its zeros are dropped by `add`
            for k, a in x.items():
                if k != s:
                    i, j, sign = (s, k, 1) if s < k else (k, s, -1)
                    for idx, c in ob.bracket_coeffs(i, j):
                        out[idx] = out.get(idx, 0) + sign * a * c
            queue.append(out)
    return closure.rank


@lru_cache(maxsize=None)
def _generator_pairs(m: int) -> Tuple[Tuple[int, int], ...]:
    """The basis pairs (i, j), i < j, of o(m) with i or j a simple root
    vector: a root vector of height +-1.  That these generate o(m) is
    proved once per m by `_subalgebra_dimension`, not assumed."""
    ob = build_ortho(m)
    gens = [i for i, el in enumerate(ob.elements)
            if el.root is not None and abs(_root_height(ob.series, ob.n, el.root)) == 1]
    dim = _subalgebra_dimension(ob, gens)
    if dim != len(ob):
        raise AssertionError(f"the simple root vectors generate {dim} of the {len(ob)} dimensions of o({m})")
    return tuple((i, j) for i in range(len(ob)) for j in range(i + 1, len(ob)) if i in gens or j in gens)


def validate_irrep(V: IrrepData) -> Dict[str, object]:
    """Independent checks: homomorphism, weight diagonality, highest-weight
    annihilation, Casimir scalar, and irreducibility by the dimension of
    the commutant, counted from the highest-weight vectors.

    The homomorphism rho [x, y] = [rho x, rho y] is checked only on the
    pairs that contain a simple root vector s (`_generator_pairs`), and
    that is exact: the x for which it holds for every y form a subspace
    that, by Jacobi, is closed under brackets, so once it holds the s it
    holds the algebra they generate, which is all of o(m).  For o(8) that is
    188 of the 378 pairs.  `homomorphism_failures` lists the failing pairs
    among those checked, so each of them contains a generator."""
    ob = V.basis
    report: Dict[str, object] = {}
    hom_fail = []
    labels = ob.labels()
    for i, j in _generator_pairs(ob.m):
        lhs = SparseMat.from_entries(V.dim, V.dim, (
            (key, c * v) for k, c in ob.bracket_coeffs(i, j) for key, v in V.rep[labels[k]].data.items()))
        if lhs != V.rep[labels[i]].bracket(V.rep[labels[j]]):
            hom_fail.append((labels[i], labels[j]))
    report["homomorphism_ok"] = not hom_fail
    report["homomorphism_failures"] = hom_fail

    report["cartan_diagonal_ok"] = diag_ok = all(
        V.rep[labels[t]] == SparseMat(V.dim, V.dim, {(k, k): w.coords[ci] for k, w in enumerate(V.weights)})
        for ci, t in enumerate(ob.cartan_indices()))
    # every positive root vector kills the highest-weight vector: no entry in its column
    report["highest_weight_annihilated"] = hw_ok = not any(
        c == V.highest for el in ob.elements if el.kind == "pos" for _, c in V.rep[el.label].data)

    omega = omega_matrix(V)
    expected = casimir_eigenvalue(V.mu)
    report["casimir_value"] = expected
    report["casimir_scalar_ok"] = omega == SparseMat.identity(V.dim).scale(expected)

    comm = _commutant_dimension(ob, V.rep, V.dim)
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
