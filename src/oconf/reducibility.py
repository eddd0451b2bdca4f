"""Degree-by-degree irreducibility verification for the generalized
conformal module.

The scan follows the generation argument: the module is irreducible iff the
special conformal operators generate each graded slice from the one below
(any nonzero submodule descends to 1 (x) V(mu) under the translations, then
climbs back up through the J's).  Full rank at every level up to the
truncation certifies irreducibility up to that degree; a rank deficiency
yields an explicit proper graded submodule.  For mu = 0 the harmonic layers
explain the graded structure — and the scans refute the stated sharp
classification at the special conformal weights b = n-r (even series) and
b = n-r+1/2 (odd series), where the metric power eta^r becomes unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linalg import (
    EchelonBasis,
    SparseMat,
    nullspace_of_rows,
    rank_of_rows,
    vectors_contained_in_span,
)
from .mixed import ConformalModule, DEFAULT_SLICE_CAP
from .ortho import build_conformal
from .poly import DiffOp, Poly, bracket, monomial_basis
from .weights import (
    LadderSet,
    WeightVec,
    critical_b_set,
    omega_tilde_spectrum,
)


@dataclass
class Classification:
    status: str  # "generic" | "excluded"
    component: Optional[LadderSet]
    exact: bool  # True when exclusion is equivalent to reducibility (mu = 0)

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


BASE_B_SAMPLES = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(7, 2),
)


def default_b_samples(mu: WeightVec) -> List[Fraction]:
    """Default central-charge sweep: the fixed rational sample set plus every
    critical-ladder point within 3 of its base."""
    out = set(BASE_B_SAMPLES)
    for comp in critical_b_set(mu).components:
        p = comp.base
        while p >= comp.base - 3:
            out.add(p)
            p -= comp.step
    return sorted(out)


@dataclass
class ScanRecord:
    k: int
    dim: int
    rank: int

    @property
    def full(self) -> bool:
        return self.rank == self.dim


@dataclass
class ScanResult:
    mu: WeightVec
    b: Fraction
    series: str
    n: int
    max_degree: int
    records: List[ScanRecord]
    phi_eigenvalues_k1: List[Tuple[Fraction, int]]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "series": self.series,
            "n": self.n,
            "mu": str(self.mu),
            "b": str(self.b),
            "max_degree": self.max_degree,
            "records": [
                {"k": r.k, "dim": r.dim, "rank": r.rank, "full": r.full} for r in self.records
            ],
            "phi_eigenvalues_k1": [[str(e), m] for e, m in self.phi_eigenvalues_k1],
            "verdict": self.verdict,
        }


def _j_span_rank(mod: ConformalModule, level: int) -> int:
    """Rank of sum_i J_i(slice level) inside slice level+1."""
    vectors = []
    for lbl in mod.j_labels:
        M = mod.action_matrix(lbl, level)
        vectors.extend(v for v in M.col_vectors() if v)
    target = mod.slice_dim(level + 1)
    return rank_of_rows(vectors, stop_at=target)


def surjectivity_scan(
    mu: WeightVec, b, max_degree: int, slice_cap: int = DEFAULT_SLICE_CAP
) -> ScanResult:
    """Rank of the J-span at every level 1..max_degree, with verdict."""
    if max_degree < 1:
        raise ValueError(f"max degree must be at least 1, got {max_degree}")
    b = Fraction(b)
    mod = ConformalModule(mu, b, slice_cap=slice_cap)
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
    return ScanResult(mu, b, mu.series, mu.n, max_degree, records, phi_eigs, verdict)


@dataclass
class SubmoduleWitness:
    """Graded basis of the submodule generated by 1 (x) V(mu), truncated."""

    mu: WeightVec
    b: Fraction
    max_degree: int
    dims: Dict[int, Tuple[int, int]]  # k -> (submodule dim, slice dim)
    basis: Dict[int, List[Dict[int, Fraction]]]

    def is_proper(self) -> bool:
        return any(r < d for r, d in self.dims.values())


def detect_submodule(
    mu: WeightVec, b, max_degree: int, slice_cap: int = DEFAULT_SLICE_CAP
) -> Optional[SubmoduleWitness]:
    """Explicit graded basis of U(J)(1 (x) V(mu)) up to max_degree when it is
    proper there; None when it exhausts every slice."""
    b = Fraction(b)
    mod = ConformalModule(mu, b, slice_cap=slice_cap)
    dims: Dict[int, Tuple[int, int]] = {}
    basis: Dict[int, List[Dict[int, Fraction]]] = {}
    proper = False
    for k in range(0, max_degree + 1):
        phi = mod.phi_matrix(k)
        cols = [c for c in phi.col_vectors() if c]
        # independent column selection for a clean graded basis
        span = EchelonBasis()
        chosen = [c for c in cols if span.add(c)]
        dims[k] = (len(chosen), mod.slice_dim(k))
        basis[k] = chosen
        if len(chosen) < mod.slice_dim(k):
            proper = True
    if not proper:
        return None
    return SubmoduleWitness(mu, b, max_degree, dims, basis)


def verify_submodule_closure(
    witness: SubmoduleWitness, slice_cap: int = DEFAULT_SLICE_CAP
) -> Dict[str, bool]:
    """Check the witness is closed under every generator within truncation."""
    mod = ConformalModule(witness.mu, witness.b, slice_cap=slice_cap)
    results = {}
    for lbl in mod.conf.labels():
        shift = mod.degree_shift(lbl)
        ok = True
        for k, vecs in witness.basis.items():
            kt = k + shift
            if kt < 0 or kt > witness.max_degree or not vecs:
                continue
            M = mod.action_matrix(lbl, k)
            images = [v for v in M.apply_all(vecs) if v]
            if images and not vectors_contained_in_span(images, witness.basis[kt]):
                ok = False
        results[lbl] = ok
    results["ok"] = all(results.values())
    return results


def generation_closure_scan(
    mu: WeightVec,
    b,
    max_degree: int,
    seed_degree: int = 0,
    slack: int = 2,
    slice_cap: int = DEFAULT_SLICE_CAP,
) -> Dict[int, Tuple[int, int]]:
    """Dimensions of the submodule generated by a full slice, degree by degree.

    Starts from the whole slice at `seed_degree` and closes under every
    generator, working inside degrees <= max_degree + slack (generation can
    climb with the special conformal operators and descend again with the
    translations, so a pure level-by-level J-span can undercount).  Returns
    {k: (generated dim, slice dim)} for k <= max_degree.
    """
    b = Fraction(b)
    mod = ConformalModule(mu, b, slice_cap=slice_cap)
    top = max_degree + slack
    spans = {k: EchelonBasis() for k in range(top + 1)}
    dims = {k: mod.slice_dim(k) for k in range(top + 1)}

    def add(k: int, vec: Dict[int, Fraction]) -> bool:
        return spans[k].rank < dims[k] and spans[k].add(vec)

    for i in range(dims[seed_degree]):
        add(seed_degree, {i: Fraction(1)})
    labels = mod.conf.labels()
    changed = True
    while changed:
        changed = False
        for lbl in labels:
            shift = mod.degree_shift(lbl)
            for k in range(top + 1):
                kt = k + shift
                if kt < 0 or kt > top or not spans[k].rank:
                    continue
                if spans[kt].rank == dims[kt]:
                    continue
                # the span's echelon rows are a basis of it, as good as any;
                # all images are taken before any is added
                images = mod.action_matrix(lbl, k).apply_all(spans[k].rows.values())
                for v in images:
                    if add(kt, v):
                        changed = True
    return {k: (spans[k].rank, dims[k]) for k in range(max_degree + 1)}


# ---------------------------------------------------------------------------
# Harmonic decomposition (mu = 0 machinery)


@dataclass
class HarmonicBasis:
    """H_k = ker(Laplacian) on degree-k polynomials, with the eta-power
    filtration of the full degree-k space."""

    series: str
    n: int
    k: int
    monomials: List[Tuple[int, ...]]
    harmonic: List[Dict[int, Fraction]]  # basis vectors over the monomials
    layer_dims: List[int]  # dim eta^m H_{k-2m} for m = 0, 1, ...
    filtration_dims: List[int]  # dim ker Delta^{r+1} for r = 0, 1, ...
    decomposition_ok: bool
    filtration_ok: bool


def _operator_matrix(op: DiffOp, nv: int, k_from: int, k_to: int) -> SparseMat:
    """Matrix of a homogeneous operator between monomial bases."""
    src = monomial_basis(nv, k_from)
    dst = monomial_basis(nv, k_to)
    dst_index = {e: i for i, e in enumerate(dst)}
    data = {}
    for ci, e in enumerate(src):
        img = op.apply(Poly.monomial(nv, e))
        for de, c in img.terms.items():
            data[(dst_index[de], ci)] = c
    return SparseMat(len(dst), len(src), data)


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
        stated = one.scale(n) + conf.euler()
        true_form = stated
    else:
        stated = one.scale(1 + 2 * n) + conf.euler()
        true_form = one.scale(1 + 2 * n) + conf.euler().scale(2)
    return {"commutator": lhs, "stated": stated, "true": true_form}


def harmonic_decompose(k: int, n: int, series: str, cap: int = DEFAULT_SLICE_CAP) -> HarmonicBasis:
    conf = build_conformal(n, series)
    nv = conf.num_vars
    monos = monomial_basis(nv, k)
    if len(monos) > cap:
        raise ValueError("degree too large for the configured cap")
    lap = conf.laplacian()
    eta = conf.eta()

    harmonics: Dict[int, List[Dict[int, Fraction]]] = {}
    for kk in range(k % 2, k + 1, 2):
        M = _operator_matrix(lap, nv, kk, kk - 2) if kk >= 2 else SparseMat(0, len(monomial_basis(nv, kk)))
        harmonics[kk] = nullspace_of_rows(M.row_vectors(), M.cols)

    # layers eta^m H_{k-2m} inside degree k
    layer_dims = []
    all_layer_vectors: List[Dict[int, Fraction]] = []
    dst_index = {e: i for i, e in enumerate(monos)}
    m = 0
    while k - 2 * m >= 0:
        hk = harmonics[k - 2 * m]
        layer_dims.append(len(hk))
        if hk:
            src = monomial_basis(nv, k - 2 * m)
            eta_m = Poly.const(nv, 1)
            for _ in range(m):
                eta_m = eta_m * eta
            for vec in hk:
                poly = Poly.zero(nv)
                for ci, c in vec.items():
                    poly = poly + Poly.monomial(nv, src[ci], c) * eta_m
                all_layer_vectors.append({dst_index[e]: c for e, c in poly.terms.items()})
        m += 1
    decomposition_ok = (
        sum(layer_dims) == len(monos) and rank_of_rows(all_layer_vectors) == len(monos)
    )

    # filtration by Delta powers: ker Delta^{r+1} and Delta^r images
    filtration_dims = []
    filtration_ok = True
    power = SparseMat.identity(len(monos))
    powers = [power]
    deg = k
    lap_mats = {}
    while deg >= 2:
        lap_mats[deg] = _operator_matrix(lap, nv, deg, deg - 2)
        deg -= 2
    for r in range(0, k // 2 + 1):
        # Delta^{r+1} as a map from degree k
        M = SparseMat.identity(len(monos))
        deg = k
        for _ in range(r + 1):
            if deg >= 2:
                M = lap_mats[deg] * M
                deg -= 2
            else:
                M = SparseMat(0, M.cols)
                break
        kern = nullspace_of_rows(M.row_vectors(), M.cols)
        filtration_dims.append(len(kern))
        if len(kern) != sum(layer_dims[: r + 1]):
            filtration_ok = False
        # Delta^r maps the r-th filtration layer onto H_{k-2r}
        Mr = SparseMat.identity(len(monos))
        deg = k
        for _ in range(r):
            Mr = lap_mats[deg] * Mr
            deg -= 2
        images = [v for v in Mr.apply_all(kern) if v]
        target = harmonics[k - 2 * r]
        if rank_of_rows(images) != len(target) or (
            images and not vectors_contained_in_span(images, target)
        ):
            filtration_ok = False
    return HarmonicBasis(
        series,
        n,
        k,
        monos,
        harmonics[k],
        layer_dims,
        filtration_dims,
        decomposition_ok,
        filtration_ok,
    )
