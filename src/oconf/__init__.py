"""Exact-arithmetic engine for generalized conformal representations of
orthogonal Lie algebras.

The package constructs, over exact rationals: the split-form orthogonal
algebras o(2n)/o(2n+1)/o(2n+2)/o(2n+3); the conformal differential-operator
algebras they are isomorphic to; finite-dimensional irreducibles V(mu)
including spin weights; the mixed-product (Larsson-functor) twist of the
polynomial module by V(mu) with its hidden central charge b; and the
spectral and rank computations that verify the irreducibility theory degree
by degree.  Everything is checked mechanically; no identity is trusted.
"""

from .linalg import SparseMat, charpoly
from .poly import DiffOp, Poly, bracket, monomial_basis
from .weights import (
    CriticalSet,
    JumpSeq,
    LadderSet,
    Spectrum,
    WeightVec,
    casimir_eigenvalue,
    critical_b_set,
    epsilon,
    is_dominant,
    jump_sequence,
    natural_dim,
    omega_tilde_spectrum,
    parse_weight,
    pieri_decompose,
    pieri_terms,
    rho,
    weyl_dim,
    zero_weight,
)
from .ortho import (
    ConformalBasis,
    OrthoBasis,
    build_conformal,
    build_ortho,
    casimir_pairs,
    theta,
    theta_images,
    verify_bracket_tables,
    verify_theta_homomorphism,
)
from .irreps import (
    CapExceeded,
    IrrepData,
    build_irrep,
    omega_matrix,
    validate_irrep,
)
from .mixed import (
    ConformalModule,
    ExtendedOp,
    shen_closed_forms,
    shen_embed,
    verify_shen_monomorphism,
)
from .spectral import (
    closed_form_charpoly,
    omega_tilde_matrix,
    t_identity,
    t_scalar,
    verify_charpoly_lemma,
    verify_t_operator,
)
from .reducibility import (
    Classification,
    HarmonicBasis,
    ScanResult,
    SubmoduleWitness,
    classify_b,
    detect_submodule,
    harmonic_decompose,
    laplacian_eta_commutator,
    surjectivity_scan,
    verify_submodule_closure,
)

__version__ = "0.1.0"
