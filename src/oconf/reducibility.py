"""Degree-by-degree irreducibility verification for the generalized
conformal module.

Generation decides irreducibility.  D acts on slice k by k + b, so every
submodule is graded.  Each translation d_i acts on A (x) V(mu) as a plain
partial derivative (`shen_embed` gives it no gl part), so the only vectors
that every d_i kills lie in degree 0.  Any nonzero submodule therefore
meets degree 0, in a nonzero o(n)-submodule of
the irreducible V(mu), that is, in all of 1 (x) V(mu).  So the module is
irreducible iff U(J)(1 (x) V(mu)) is everything, iff `phi_matrix(k)` is
invertible at every k.  The J's commute, so U(J)(1 (x) V(mu)) fills the
degrees up to K iff J(slice k-1) = slice k for every k <= K: that is the
scan.  Full rank at every level up to the truncation certifies
irreducibility up to that degree; a rank deficiency yields an explicit
proper graded submodule.

The scan counts by weights.  The J_i span the natural o(n)-module
([o(n), J] lies in the span of J, and J_i has the weight of x_i), so
N = sum_i J_i(slice k-1) is an o(n)-submodule of M = slice k, and the
weight multiplicities of both are Weyl-invariant.  J_i maps weight spaces
to weight spaces, so N_nu is spanned by the J_i(u) with
wt(u) + wt(J_i) = nu, and dim M - rank N is the sum over dominant nu of
|W nu| (dim M_nu - rank N_nu).  This is exact at every b.

One block decides whether N = M.  Every weight of slice k lies in one
class modulo the root lattice, that of mu + k e_1 (x^e (x) v_r has the
weight of v_r, congruent to mu, plus k weights +-e_i or 0, each
congruent to e_1), and the class has a least dominant weight nu_c
(`weights.minimal_dominant_twice`): 0 or e_1 for integral weights,
(1/2, ..., 1/2, +-1/2) for spin weights.  Every dominant lambda of the
class lies above nu_c (Humphreys, GTM 9, 13.4 Lemma B), so nu_c is a
weight of V(lambda) (21.3).  The quotient Q = M / N is a
finite-dimensional o(n)-module whose weights lie in the class, so if Q
is nonzero it has a summand V(lambda) and Q_nu_c is nonzero.  Hence
N = M iff N_nu_c = M_nu_c: the scan eliminates the block of nu_c first,
and opens the other dominant blocks only when that one falls short, to
count the exact deficit.

The weights are counted by class, never per basis index.  x^e (x) v_r
has the weight of x^e plus that of v_r, so the scan reads the monomials
of each degree grouped by weight (`ConformalModule.weight_classes`) and
V(mu)'s weights grouped once (`irrep_classes`).  dim M_nu is their
convolution, sum over the weights w of V(mu) of |class(nu - w)| times the
multiplicity of w, taken at nu_c alone, and at every dominant nu only when
nu_c's block falls short; the sources of a block,
the indexes mi * dim V + r of weight nu - wt(J_i) in slice k-1, are listed
only for the nu - wt(J_i) that an open block reads.

Each block is one exact span (`linalg.EchelonBasis`), and its columns
arrive label by label.  rank N_nu never exceeds dim M_nu, so a block
closes as soon as its exact rank reaches dim M_nu, and no more of its
columns are built.  A block still open after the last label holds all of
its columns, so its rank is the exact rank of N_nu: a deficient block (at
a critical b) counts its exact deficit, nu_c's included, whose span is
kept when the other blocks are opened.

The scan builds its own module from (mu, b) and only the J columns it
needs.  Detection, closure and generation read whole action matrices, so
they take a built module, and a witness carries the module it lives in.
Detection and the closure scan generate a submodule by one PBW pass
(`_generate`), from slice 0 and from slice SEED_DEGREE.

For mu = 0 the harmonic layers explain the graded structure — and the
scans refute the stated sharp classification at the special conformal
weights b = n-r (even series) and b = n-r+1/2 (odd series), where the
metric power eta^r becomes unreachable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Dict, List, Optional, Tuple

from .linalg import (
    EchelonBasis,
    SparseMat,
    nullspace_of_rows,
    rank_of_rows,
    vectors_contained_in_span,
)
from .mixed import ConformalModule
from .ortho import build_conformal
from .poly import DiffOp, Poly, bracket
from .weights import (
    LadderSet,
    Twice,
    WeightVec,
    critical_b_set,
    is_dominant_twice,
    minimal_dominant_twice,
    omega_tilde_spectrum,
    weyl_orbit_size_twice,
    zero_weight,
)


class Classification:
    __slots__ = ("status", "component", "exact")

    def __init__(self, status: str, component: Optional[LadderSet], exact: bool):
        self.status = status  # "generic" | "excluded"
        self.component = component
        self.exact = exact  # True when exclusion is equivalent to reducibility (mu = 0)

    def describe(self) -> str:
        if self.status == "generic":
            return "generic"
        tail = ", reducible" if self.exact else ""
        return f"excluded(b in {self.component.describe()}{tail})"


def classify_b(mu: WeightVec, b) -> Classification:
    """Test b against the excluded central-charge set of the series."""
    b = Fraction(b)
    cs = critical_b_set(mu)
    comp = cs.violated(b)
    if comp is None:
        return Classification("generic", None, cs.exact)
    return Classification("excluded", comp, cs.exact)


class ScanRecord:
    __slots__ = ("k", "dim", "rank")

    def __init__(self, k: int, dim: int, rank: int):
        self.k = k
        self.dim = dim
        self.rank = rank

    @property
    def full(self) -> bool:
        return self.rank == self.dim


class ScanResult:
    __slots__ = ("mu", "b", "max_degree", "records", "phi_eigenvalues_k1", "verdict")

    def __init__(self, mu: WeightVec, b: Fraction, max_degree: int, records: List[ScanRecord],
                 phi_eigenvalues_k1: List[Tuple[Fraction, int]], verdict: str):
        self.mu = mu
        self.b = b
        self.max_degree = max_degree
        self.records = records
        self.phi_eigenvalues_k1 = phi_eigenvalues_k1
        self.verdict = verdict

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "series": self.mu.series,
            "n": self.mu.n,
            "mu": str(self.mu),
            "b": str(self.b),
            "max_degree": self.max_degree,
            "records": [
                {"k": r.k, "dim": r.dim, "rank": r.rank, "full": r.full} for r in self.records
            ],
            "phi_eigenvalues_k1": [[str(e), m] for e, m in self.phi_eigenvalues_k1],
            "verdict": self.verdict,
        }


@lru_cache(maxsize=None)
def _dominant_orbit_size(series: str, nu: Twice) -> int:
    """|W nu| if the weight with doubled coordinates nu is dominant, else 0."""
    return weyl_orbit_size_twice(series, nu) if is_dominant_twice(series, nu) else 0


def _dominant_dims(mod: ConformalModule, k: int) -> Dict[Twice, int]:
    """dim M_nu of slice k at every dominant nu that occurs: the monomial
    weight classes convolved with those of V(mu), one coordinate at a time."""
    classes = mod.weight_classes(k)
    sizes = [len(mis) for mis in classes.values()]
    axes = list(zip(*classes))  # axes[i]: coordinate i of each class weight
    dims: Dict[Twice, int] = {}
    for w, rs in mod.irrep_classes.items():
        shifted = zip(*[[c + x for c in axis] for axis, x in zip(axes, w)])  # class weight + w
        for nu, size in zip(shifted, sizes):
            if _dominant_orbit_size(mod.series, nu):
                dims[nu] = dims.get(nu, 0) + size * len(rs)
    return dims


def _j_span_rank(mod: ConformalModule, level: int) -> int:
    """Rank of N = sum_i J_i(slice level) inside M = slice level+1, as
    dim M - sum over dominant nu of |W nu| (dim M_nu - rank N_nu) (see the
    module docstring).  The block of nu_c, the least dominant weight of
    the slice's class, goes first, and only its dimension is counted: dim
    M_nu_c = sum over the weights w of V(mu) of |class(nu_c - w)| times the
    multiplicity of w.  If the block closes, N = M and no other block is
    opened or counted.  Otherwise the dimensions of every dominant block
    are counted (`_dominant_dims`), the other blocks are opened too, nu_c's
    span is kept, and the exact deficit is counted.  Only the columns
    J_i(u) of open blocks are built, label by label, and only while the
    block is open."""
    dv = mod.dim_v
    below = mod.weight_classes(level)
    sources: Dict[Twice, List[int]] = {}

    def sources_of(w: Twice) -> List[int]:
        """The ascending indexes mi * dv + r of weight w in slice level."""
        hit = sources.get(w)
        if hit is None:
            hit = sources[w] = sorted([
                mi * dv + r
                for rw, rs in mod.irrep_classes.items()
                for mi in below.get(tuple(map(sub, w, rw)), ())
                for r in rs
            ])
        return hit

    def fill(dims: Dict[Twice, int]) -> Dict[Twice, EchelonBasis]:
        """Open the blocks nu of dimension dims[nu] and feed them their
        columns; return the blocks still open after the last label, each
        holding all of its columns."""
        blocks = {nu: EchelonBasis() for nu in dims}
        for lbl, d in zip(mod.j_labels, mod.var_weights()):
            if not blocks:
                break
            cols: List[int] = []
            ends: List[Tuple[Twice, int]] = []  # block nu owns cols[previous end:end]
            for nu in blocks:
                cols.extend(sources_of(tuple(map(sub, nu, d))))
                ends.append((nu, len(cols)))
            vecs = mod.action_columns(lbl, level, cols)
            start = 0
            for nu, end in ends:
                span = blocks[nu]
                for vec in sorted(filter(None, vecs[start:end]), key=len):
                    if span.add(vec) and span.rank == dims[nu]:
                        del blocks[nu]  # rank N_nu = dim M_nu, its largest
                        break
                start = end
        return blocks

    top = mod.mu.twice  # slice level+1 lies in the class of mu + (level+1) e_1
    nu_c = minimal_dominant_twice(mod.series, (top[0] + 2 * (level + 1),) + top[1:])
    above = mod.weight_classes(level + 1)
    dim_c = sum(len(above.get(tuple(map(sub, nu_c, w)), ())) * len(rs) for w, rs in mod.irrep_classes.items())
    deficient = fill({nu_c: dim_c})
    if not deficient:
        return mod.slice_dim(level + 1)  # Q_nu_c = 0, so Q = M / N = 0
    dims = _dominant_dims(mod, level + 1)
    deficient.update(fill({nu: dims[nu] for nu in sorted(dims) if nu != nu_c}))
    deficit = sum(_dominant_orbit_size(mod.series, nu) * (dims[nu] - span.rank) for nu, span in deficient.items())
    return mod.slice_dim(level + 1) - deficit


def surjectivity_scan(mu: WeightVec, b, max_degree: int) -> ScanResult:
    """Rank of the J-span at every level 1..max_degree, with verdict."""
    if max_degree < 1:
        raise ValueError(f"max degree must be at least 1, got {max_degree}")
    mod = ConformalModule(mu, b)
    b = mod.b
    mod.check_cap(max_degree)  # slices grow with the degree: fail before any work
    records = []
    deficient = False
    for k in range(1, max_degree + 1):
        dim = mod.slice_dim(k)
        rank = _j_span_rank(mod, k - 1)
        records.append(ScanRecord(k, dim, rank))
        if rank < dim:
            deficient = True
    spec = omega_tilde_spectrum(mu)
    phi_eigs = [(b + lam, mult) for lam, mult in spec.entries]
    if deficient:
        verdict = "proper-submodule-found"
    elif classify_b(mu, b).status == "excluded":
        verdict = "critical-b"
    else:
        verdict = f"irreducible-up-to-{max_degree}"
    return ScanResult(mu, b, max_degree, records, phi_eigs, verdict)


class SubmoduleWitness:
    """Graded basis, in `module`, of the submodule generated by 1 (x) V(mu),
    truncated."""

    __slots__ = ("module", "max_degree", "dims", "basis")

    def __init__(self, module: ConformalModule, max_degree: int, dims: Dict[int, Tuple[int, int]],
                 basis: Dict[int, List[Dict[int, Fraction]]]):
        self.module = module
        self.max_degree = max_degree
        self.dims = dims  # k -> (submodule dim, slice dim)
        self.basis = basis

    def is_proper(self) -> bool:
        return any(r < d for r, d in self.dims.values())


def detect_submodule(mod: ConformalModule, max_degree: int) -> Optional[SubmoduleWitness]:
    """Explicit graded basis of U(J)(1 (x) V(mu)) up to max_degree when it is
    proper there; None when it exhausts every slice.

    The submodule generated by slice 0 is U(J)(1 (x) V(mu)): the d's kill
    slice 0, so `_generate` has nothing to lower, and the basis of degree k
    is the exact span of J(degree k-1), the span of the columns of
    `phi_matrix(k)`."""
    spans = _generate(mod, max_degree, 0)
    dims = {k: (spans[k].rank, mod.slice_dim(k)) for k in range(max_degree + 1)}
    if all(r == d for r, d in dims.values()):
        return None
    basis = {k: list(spans[k].rows.values()) for k in dims}
    return SubmoduleWitness(mod, max_degree, dims, basis)


def verify_submodule_closure(witness: SubmoduleWitness) -> Dict[str, bool]:
    """Check the witness is closed under every generator of its module,
    within truncation.

    A target slice that the witness fills (the exact rank of its basis
    there is the slice dimension) contains every image, so no (label, k)
    landing in it computes an image or builds a matrix; every other image
    is tested against the exact span of its target slice.
    """
    mod = witness.module
    spans = {}  # the slices the witness does not fill
    for k, vecs in witness.basis.items():
        span = EchelonBasis(vecs)
        if span.rank < mod.slice_dim(k):
            spans[k] = span
    results = {}
    for lbl in mod.conf.labels():
        shift = mod.degree_shift(lbl)
        ok = True
        for k, vecs in witness.basis.items():
            kt = k + shift
            if kt not in spans or kt > witness.max_degree or not vecs:
                continue  # outside the truncation, or a full target slice
            images = mod.action_matrix(lbl, k).apply_all(vecs)
            if not all(spans[kt].contains(v) for v in images):
                ok = False
        results[lbl] = ok
    results["ok"] = all(results.values())
    return results


SEED_DEGREE = 1


def _generate(mod: ConformalModule, max_degree: int, seed: int) -> Dict[int, EchelonBasis]:
    """The submodule generated by the whole slice `seed`, one exact span per
    degree 0 .. max(max_degree, seed), generated up to max_degree.

    The submodule is built in PBW order, exactly.  The algebra is
    span(J) + l + span(d), where l (o(n) and D) is the degree-0 part and
    span(J), span(d) are abelian, so U(g) = U(J) U(l) U(d).  The seed, a
    whole slice, is l-stable, and [l, d] lies in span(d), [l, J] in
    span(J), so every d-image and J-image of an l-stable space is again
    l-stable: U(l) adds nothing, and the submodule is U(J) U(d)(seed).
    One pass down carries the seed by the d's into degrees seed-1 .. 0,
    one pass up adds J(part k-1) to part k for k = 1 .. max_degree; no
    degree-0 generator is applied and no slice above max(max_degree, seed)
    is reached.  A target slice takes no more images once it is full.
    """
    if max_degree < 0:
        raise ValueError(f"max degree must be at least 0, got {max_degree}")
    top = max(max_degree, seed)
    mod.check_cap(top)  # slices grow with the degree: fail before any work
    dims = {k: mod.slice_dim(k) for k in range(top + 1)}
    spans = {k: EchelonBasis() for k in dims}
    for i in range(dims[seed]):
        spans[seed].add({i: 1})
    labels = mod.conf.labels()

    def push(shift: int, k: int):
        """Add the images of slice k's span under the generators of
        degree shift to the span of slice k + shift."""
        rows, target, full = list(spans[k].rows.values()), spans[k + shift], dims[k + shift]
        for lbl in labels:
            if not rows or target.rank == full:
                return
            if mod.degree_shift(lbl) == shift:
                for v in mod.action_matrix(lbl, k).apply_all(rows):
                    if target.add(v) and target.rank == full:
                        break

    for k in range(seed, 0, -1):
        push(-1, k)
    for k in range(1, max_degree + 1):
        push(1, k - 1)
    return spans


def generation_closure_scan(mod: ConformalModule, max_degree: int) -> Dict[int, Tuple[int, int]]:
    """Dimensions of the submodule generated by the whole slice SEED_DEGREE,
    degree by degree (`_generate`).

    SEED_DEGREE is 1 because the check is on the quotient by the constants
    line, whose lowest slice is degree 1.  Returns
    {k: (generated dim, slice dim)} for k <= max_degree.
    """
    spans = _generate(mod, max_degree, SEED_DEGREE)
    return {k: (spans[k].rank, mod.slice_dim(k)) for k in range(max_degree + 1)}


# ---------------------------------------------------------------------------
# Harmonic decomposition (mu = 0 machinery)


class HarmonicBasis:
    """H_k = ker(Laplacian) on degree-k polynomials, with the eta-power
    filtration of the full degree-k space."""

    __slots__ = ("series", "n", "k", "monomials", "harmonic", "layer_dims", "filtration_dims",
                 "decomposition_ok", "filtration_ok")

    def __init__(self, series: str, n: int, k: int, monomials: List[Tuple[int, ...]],
                 harmonic: List[Dict[int, Fraction]], layer_dims: List[int], filtration_dims: List[int],
                 decomposition_ok: bool, filtration_ok: bool):
        self.series = series
        self.n = n
        self.k = k
        self.monomials = monomials
        self.harmonic = harmonic  # basis vectors over the monomials
        self.layer_dims = layer_dims  # dim eta^m H_{k-2m} for m = 0, 1, ...
        self.filtration_dims = filtration_dims  # dim ker Delta^{r+1} for r = 0, 1, ...
        self.decomposition_ok = decomposition_ok
        self.filtration_ok = filtration_ok


def _operator_matrix(op: DiffOp, mod: ConformalModule, k_from: int, k_to: int) -> SparseMat:
    """Matrix of a homogeneous operator between slices of the mu = 0 module."""
    nv = mod.num_vars
    dst_index = mod.mono_index(k_to)
    data = {}
    for ci, e in enumerate(mod.monomials_of(k_from)):
        for de, c in op.apply(Poly.monomial(nv, e)).terms.items():
            data[(dst_index[de], ci)] = c
    return SparseMat(mod.slice_dim(k_to), mod.slice_dim(k_from), data)


def laplacian_eta_commutator(n: int, series: str) -> Dict[str, DiffOp]:
    """[Delta, eta.] exactly, with the stated and the true closed forms.

    For the D series the commutator is n + D.  For the B series the stated
    closed form is 1 + 2n + D, but with the defining normalizations the
    commutator actually equals 1 + 2n + 2D (the canonical identity
    [Delta_G, G(x,x)/2] = m + 2E); both predictions are returned so callers
    can check either.
    """
    conf = build_conformal(n, series)
    lap = conf.laplacian()
    eta_mult = DiffOp.mult(conf.eta())
    lhs = bracket(lap, eta_mult)
    one = DiffOp.identity(conf.num_vars)
    if series == "D":
        stated = one.scale(n) + conf.op("D")
        true_form = stated
    else:
        stated = one.scale(1 + 2 * n) + conf.op("D")
        true_form = one.scale(1 + 2 * n) + conf.op("D").scale(2)
    return {"commutator": lhs, "stated": stated, "true": true_form}


def harmonic_decompose(k: int, n: int, series: str) -> HarmonicBasis:
    """H_k, the layers eta^m H_{k-2m} of A_k and its Delta filtration.

    The work happens on the slices of the mu = 0 module: dim V(0) = 1, so
    slice j is A_j with one basis vector per monomial, in monomial order,
    and multiplying by eta is `mult_matrix`.
    """
    if k < 0:
        raise ValueError(f"slice degree k must be >= 0, got {k}")
    mod = ConformalModule(zero_weight(series, n), 0)
    mod.check_cap(k)
    lap = mod.conf.laplacian()
    eta = mod.conf.eta()
    dim = mod.slice_dim(k)
    lap_mats = {j: _operator_matrix(lap, mod, j, j - 2) for j in range(k, 1, -2)}  # Delta from slice j

    harmonics: Dict[int, List[Dict[int, Fraction]]] = {}
    layers: List[Dict[int, Fraction]] = []  # eta^m H_{j-2m} inside slice j, for every m
    for j in range(k % 2, k + 1, 2):
        M = lap_mats.get(j, SparseMat(0, mod.slice_dim(j)))
        harmonics[j] = nullspace_of_rows(M.row_vectors(), M.cols)
        if j >= 2:
            layers = mod.mult_matrix(eta, j - 2).apply_all(layers)
        layers += harmonics[j]
    layer_dims = [len(harmonics[j]) for j in range(k, -1, -2)]
    decomposition_ok = sum(layer_dims) == dim and rank_of_rows(layers) == dim

    # filtration by Delta powers: ker Delta^{r+1}, and Delta^r maps it onto
    # H_{k-2r}
    filtration_dims = []
    filtration_ok = True
    power = SparseMat.identity(dim)  # Delta^r from slice k
    for r in range(0, k // 2 + 1):
        nxt = lap_mats[k - 2 * r] * power if k - 2 * r >= 2 else SparseMat(0, dim)
        kern = nullspace_of_rows(nxt.row_vectors(), dim)
        filtration_dims.append(len(kern))
        if len(kern) != sum(layer_dims[: r + 1]):
            filtration_ok = False
        images = [v for v in power.apply_all(kern) if v]
        target = harmonics[k - 2 * r]
        if rank_of_rows(images) != len(target) or (
            images and not vectors_contained_in_span(images, target)
        ):
            filtration_ok = False
        power = nxt
    return HarmonicBasis(
        series,
        n,
        k,
        mod.monomials_of(k),
        harmonics[k],
        layer_dims,
        filtration_dims,
        decomposition_ok,
        filtration_ok,
    )
