"""Reference algorithms that the tests hold the engine against."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from oconf import irreps, spectral
from oconf.irreps import IrrepData
from oconf.linalg import EchelonBasis, SparseMat, vectors_contained_in_span
from oconf.mixed import ConformalModule, ExtendedOp, _embed
from oconf.ortho import OrthoBasis
from oconf.poly import DiffOp, Poly, bracket
from oconf.reducibility import SubmoduleWitness
from oconf.weights import Spectrum, WeightVec, weyl_dim


def transpose(M: SparseMat) -> SparseMat:
    """The transpose: each entry's key swapped along with the shape."""
    return SparseMat(M.cols, M.rows, {(j, i): v for (i, j), v in M.data.items()})


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """sum_i coeffs[i] x^i, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def embed_of(mod: ConformalModule, label: str) -> ExtendedOp:
    """The embedding of one of the module's generators, the one object that
    every module of its series and rank shares, whatever its b."""
    return _embed(mod.n, mod.series, label)


def chained_shen_embed(xi: DiffOp) -> ExtendedOp:
    """The mixed-product extension xi + sum_{i,j} d_i(f_j) E_{i,j}, one
    single-entry matrix added at a time."""
    if not xi.is_vector_field():
        raise ValueError("mixed-product embedding is defined for vector fields only")
    nv = xi.num_vars
    gl: Dict[Tuple[int, ...], SparseMat] = {}
    for j in range(nv):
        fj = xi.coefficient_of_partial(j)
        if fj.is_zero():
            continue
        for i in range(nv):
            for e, c in fj.diff(i).terms.items():
                M = gl.setdefault(e, SparseMat(nv, nv))
                gl[e] = M + SparseMat(nv, nv, {(i, j): c})
    return ExtendedOp(nv, xi, gl)


def chained_extended_bracket(a: ExtendedOp, b: ExtendedOp) -> ExtendedOp:
    """[d1+A1, d2+A2] = [d1,d2] + [A1,A2] + d1(A2) - d2(A1), one whole-matrix
    addition per term, each field image applied afresh."""
    nv = a.num_vars
    gl: Dict[Tuple[int, ...], SparseMat] = {}

    def acc(e, M):
        cur = gl.get(e)
        gl[e] = M if cur is None else cur + M

    for e1, M1 in a.gl.items():
        for e2, M2 in b.gl.items():
            acc(tuple(x + y for x, y in zip(e1, e2)), M1.bracket(M2))
    for e2, M2 in b.gl.items():
        for de, c in a.field.apply(Poly.monomial(nv, e2)).terms.items():
            acc(de, M2.scale(c))
    for e1, M1 in a.gl.items():
        for de, c in b.field.apply(Poly.monomial(nv, e1)).terms.items():
            acc(de, M1.scale(-c))
    return ExtendedOp(nv, bracket(a.field, b.field), gl)


def lead_scan_expand(ob: OrthoBasis, M: SparseMat) -> Dict[int, Fraction]:
    """Coefficients of M in the basis, read at every lead position in basis
    order; raises ValueError if M is not in the span."""
    coeffs = {}
    for pos, idx in ob._lead.items():
        v = M.get(*pos)
        if v != 0:
            coeffs[idx] = v
    recon = SparseMat(ob.m, ob.m)
    for idx, c in coeffs.items():
        recon = recon + ob.matrix(idx).scale(c)
    if recon != M:
        raise ValueError("matrix is not in the span of the orthogonal basis")
    return coeffs


def chained_theta(ob: OrthoBasis, images: Dict[str, DiffOp], M: SparseMat) -> DiffOp:
    """theta(M) = sum_idx c_idx theta(X_idx), one whole-operator addition per
    coefficient of M."""
    nv = next(iter(images.values())).num_vars
    out = DiffOp.zero(nv)
    for idx, c in lead_scan_expand(ob, M).items():
        out = out + images[ob.elements[idx].label].scale(c)
    return out


def is_canonical(v) -> bool:
    """The stored form of an exact scalar: an int, or a Fraction that is
    not integral (no float, no Fraction(n, 1))."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def solve_row_combination(rows: Sequence[Dict[int, Fraction]], target: Dict[int, Fraction]) -> Optional[List[Fraction]]:
    """Express `target` as a linear combination of `rows`; None if inconsistent.

    A fresh transposed elimination per call, independent of the augmented
    rows behind `EchelonBasis.coordinates`.  The rows need not be
    independent; the solution with every free coefficient 0 is returned.
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


def solved_irrep(mu: WeightVec) -> dict:
    """`build_irrep(mu).to_json_dict()` with every matrix column solved in
    the tensor: each basis vector of the cyclic module is acted on by each
    generator, and its image reduced against the target weight's vectors,
    kept as one echelon form per weight whose rows are augmented by a 1 in a
    column of their own (the builder's column solve before its matrices were
    derived from the lowering pass).  mu is nonzero: V(0) is no cyclic
    module."""
    cyc = irreps._CyclicModule(mu)
    (left, right), ob, dim = cyc.cols[0], cyc.ob, weyl_dim(mu)
    width = len(left) * len(right)  # dim W (x) V(lambda)
    offsets: Dict[Tuple[int, ...], int] = {}
    weights: List[WeightVec] = []
    spans: Dict[Tuple[int, ...], EchelonBasis] = {}
    for nu in sorted(cyc.vecs, reverse=True):
        offsets[nu] = len(weights)
        weights.extend([WeightVec.from_twice(mu.series, nu)] * len(cyc.vecs[nu]))
        spans[nu] = EchelonBasis({**vec, width + k: 1} for k, vec in enumerate(cyc.vecs[nu]))
    assert len(weights) == dim
    rep = {}
    for i, (el, shift) in enumerate(zip(ob.elements, cyc.shifts)):
        data: Dict[Tuple[int, int], Fraction] = {}
        for nu, off in offsets.items():
            target = tuple(a + b for a, b in zip(nu, shift))
            span, base = spans.get(target, EchelonBasis()), offsets.get(target)
            for col, vec in enumerate(cyc.vecs[nu]):
                coeffs = span.coordinates(cyc.act(i, vec), width)
                assert coeffs is not None, f"{el.label} maps a vector of weight {nu} outside the cyclic submodule"
                for row, x in coeffs.items():
                    data[(base + row, off + col)] = x
        rep[el.label] = SparseMat(dim, dim, data)
    return irreps.IrrepData(mu, dim, weights, rep, offsets[mu.twice], ob).to_json_dict()


def fraction_is_dominant(series: str, c: Sequence[Fraction]) -> bool:
    """Dominance on Fraction coordinates: every descent c_i - c_(i+1) a
    nonnegative integer; for D (n >= 2) also c_(n-1) + c_n, for B (n >= 1)
    c_n >= 0."""
    def nonneg_integer(x: Fraction) -> bool:
        return x.denominator == 1 and x >= 0

    n = len(c)
    if n < (2 if series == "D" else 1):
        return False
    if not all(nonneg_integer(c[i] - c[i + 1]) for i in range(n - 1)):
        return False
    return nonneg_integer(c[n - 2] + c[n - 1]) if series == "D" else c[n - 1] >= 0


def fraction_weyl_orbit(series: str, c: Sequence[Fraction]) -> FrozenSet[Tuple[Fraction, ...]]:
    """The orbit of c under the Weyl group, by enumeration: every signed
    permutation, with an even number of sign changes for D."""
    n = len(c)
    signed = [(x, -x) for x in c]
    return frozenset(
        tuple(signed[p][s] for p, s in zip(perm, flips))
        for perm in permutations(range(n))
        for flips in product((0, 1), repeat=n)
        if series == "B" or sum(flips) % 2 == 0
    )


def fraction_weyl_dim(series: str, c: Sequence[Fraction]) -> int:
    """prod over the positive roots a of (c + rho, a) / (rho, a), in
    Fractions, for dominant c."""
    n = len(c)
    rho = [Fraction(2 * (n - i) + (series == "B"), 2) for i in range(1, n + 1)]
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                roots.append({i: 1, j: s})
    if series == "B":
        roots += [{i: 1} for i in range(n)]
    num = Fraction(1)
    for root in roots:
        num *= sum(a * (c[i] + rho[i]) for i, a in root.items()) / sum(a * rho[i] for i, a in root.items())
    assert num.denominator == 1 and num > 0, (series, c, num)
    return int(num)


def closed_form_charpoly(spec: Spectrum) -> List[Fraction]:
    """prod (t - lambda)^mult as ascending coefficients, one linear factor
    at a time in Fractions."""
    coeffs = [Fraction(1)]
    for lam, mult in spec.entries:
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= lam * c
            coeffs = nxt
    return coeffs


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


def kron_sum(left: Dict[str, SparseMat], right: Dict[str, SparseMat]) -> Dict[str, SparseMat]:
    """The diagonal action rho_l(X) (x) 1 + 1 (x) rho_r(X), left factor first."""
    eye_l = SparseMat.identity(next(iter(left.values())).rows)
    eye_r = SparseMat.identity(next(iter(right.values())).rows)
    return {label: M.kron(eye_r) + eye_l.kron(right[label]) for label, M in left.items()}


class TensorModule:
    """V(e1) (x) V(mu) with the diagonal action, natural factor first."""

    __slots__ = ("dim", "rep")

    def __init__(self, dim: int, rep: Dict[str, SparseMat]):
        self.dim = dim
        self.rep = rep


def tensor_with_natural(V: IrrepData) -> TensorModule:
    """V(e1) (x) V(mu) as one tensor-space matrix per generator."""
    return TensorModule(V.basis.m * V.dim, kron_sum(irreps._natural_rep(V.basis), V.rep))


# degrees above max_degree that the full passes also close: room for a
# vector to climb by J and come back down by d
SLACK = 2
# the slice that `generation_closure_scan` seeds: the lowest slice of the
# quotient by the constants line
SEED_DEGREE = 1


def generation_closure_scan(mod: ConformalModule, max_degree: int) -> Dict[int, Tuple[int, int]]:
    """{k: (generated dim, slice dim)} for k <= max_degree of the submodule
    that the whole slice SEED_DEGREE generates, by full passes: every pass
    sends every echelon row of every slice up to max_degree + SLACK through
    every generator, until a pass adds nothing."""
    top = max_degree + SLACK
    spans = {k: EchelonBasis() for k in range(top + 1)}
    dims = {k: mod.slice_dim(k) for k in range(top + 1)}

    def add(k: int, vec: Dict[int, Fraction]) -> bool:
        return spans[k].rank < dims[k] and spans[k].add(vec)

    for i in range(dims[SEED_DEGREE]):
        add(SEED_DEGREE, {i: Fraction(1)})
    changed = True
    while changed:
        changed = False
        for lbl in mod.conf.labels():
            shift = mod.degree_shift(lbl)
            for k in range(top + 1):
                kt = k + shift
                if kt < 0 or kt > top or not spans[k].rank or spans[kt].rank == dims[kt]:
                    continue
                images = mod.action_matrix(lbl, k).apply_all(list(spans[k].rows.values()))
                for v in images:
                    if add(kt, v):
                        changed = True
    return {k: (spans[k].rank, dims[k]) for k in range(max_degree + 1)}


def phi_column_submodule(mod: ConformalModule, max_degree: int) -> Dict[int, List[Dict[int, Fraction]]]:
    """U(J)(1 (x) V(mu)) by the comparison map: the independent columns of
    `phi_matrix(k)`, the J^a (1 (x) v), picked in column order, per degree
    0 .. max_degree."""
    basis = {}
    for k in range(max_degree + 1):
        span = EchelonBasis()
        basis[k] = [c for c in mod.phi_matrix(k).col_vectors() if c and span.add(c)]
    return basis


def slice_weights(mod: ConformalModule, k: int) -> List[Tuple[int, ...]]:
    """Doubled o(n)-weight of each basis index mi * dim_v + r of slice k, one
    per index: sum_v e_v wt(x_v) + wt(v_r), from `var_weights`."""
    out = []
    for e in mod.monomials_of(k):
        m = [0] * mod.n
        for ev, wv in zip(e, mod.var_weights()):
            m = [a + ev * c for a, c in zip(m, wv)]
        out.extend(tuple(a + c for a, c in zip(m, w.twice)) for w in mod.irrep.weights)
    return out


def t_matrix(mod: ConformalModule, k: int) -> SparseMat:
    """T as the sum of products J (slice k+1) * (x multiplication on slice k),
    every factor a whole matrix."""
    n = mod.n
    terms = [("J_0", 0)] if mod.series == "B" else []
    for i in range(1, n + 1):
        terms += [(f"J_{i}", n + i), (f"J_{n + i}", i)]
    out = SparseMat(mod.slice_dim(k + 2), mod.slice_dim(k))
    for label, idx in terms:
        out = out + mod.action_matrix(label, k + 1) * mod.mult_matrix(mod.conf.x(idx), k)
    return out


def t_operator_sweep(mu: WeightVec, k: int, bs: Sequence) -> Dict[Fraction, bool]:
    """T == t_scalar * eta on slice k for each b, in a fresh module at that
    b: T(b) by `t_matrix` and the whole multiple of eta, compared."""
    out = {}
    for b in bs:
        mod = ConformalModule(mu, b)
        eta = mod.mult_matrix(mod.conf.eta(), k)
        out[Fraction(b)] = t_matrix(mod, k) == eta.scale(spectral.t_scalar(mod, k))
    return out


def commutant_dimension(mats: Sequence[SparseMat], dim: int) -> int:
    """dim {C : [M, C] = 0 for all M} from the whole dim^2 system: every M,
    an equation (i, j) of M C - C M for every entry, unknowns C[a, b] at
    column a * dim + b, and every row eliminated."""
    span = EchelonBasis()
    for M in mats:
        for i in range(dim):
            for j in range(dim):
                row: Dict[int, Fraction] = {}
                for k in range(dim):
                    for col, v in ((k * dim + j, M.get(i, k)), (i * dim + k, -M.get(k, j))):
                        row[col] = row.get(col, 0) + v
                span.add({col: v for col, v in row.items() if v})
    return dim * dim - span.rank


def submodule_closure_failures(witness: SubmoduleWitness) -> Set[str]:
    """Labels whose generator takes some basis vector of the witness out of
    its span, one fresh span per (label, degree)."""
    mod = witness.module
    failing = set()
    for lbl in mod.conf.labels():
        shift = mod.degree_shift(lbl)
        for k, vecs in witness.basis.items():
            kt = k + shift
            if kt < 0 or kt > witness.max_degree or not vecs:
                continue
            images = [v for v in mod.action_matrix(lbl, k).apply_all(vecs) if v]
            if images and not vectors_contained_in_span(images, witness.basis[kt]):
                failing.add(lbl)
    return failing


_COUNTED_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


@contextmanager
def integral_fraction_ops() -> Iterator[Callable[[], int]]:
    """Count the Fraction arithmetic calls whose two operands are both
    integral, inside the block; yields a function returning the count.

    Integral scalars are stored as ints, so such a call means a
    `Fraction(n, 1)` got in somewhere.  The Fraction operators are wrapped
    for the duration of the block and restored on exit."""
    count = [0]

    def counted(op):
        def wrapper(a, b):
            if a.denominator == 1 and getattr(b, "denominator", None) == 1:
                count[0] += 1
            return op(a, b)
        return wrapper

    saved = {name: Fraction.__dict__[name] for name in _COUNTED_OPS}
    try:
        for name, op in saved.items():
            setattr(Fraction, name, counted(op))
        yield lambda: count[0]
    finally:
        for name, op in saved.items():
            setattr(Fraction, name, op)
