"""Quantum multiplication operators of odd-dimensional quadrics at q = 1.

Exact construction of the multiplication matrices, their characteristic
polynomials by independent algorithms, closed-form eigendata with numeric
verification, Frobenius-Perron dimensions, the anticanonical lower-bound
certification, and a batch verifier behind the ``oddquadric`` CLI.
"""

from .charpoly import (
    COFACTOR_DIM_LIMIT,
    all_roots_simple,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_form_charpoly,
    nonzero_part_is_squarefree,
)
from .poly import Poly, poly_gcd, squarefree_decomposition
from .ring import (
    Matrix,
    QuadricContext,
    basis_vector,
    build_a1,
    build_ap,
    chevalley_column,
    make_context,
    star_multiply,
)
from .serialize import VERSION as __version__
from .spectra import (
    EigenPair,
    GalkinResult,
    RootFindingError,
    SpectrumReport,
    all_roots,
    closed_eigenvalues,
    corollary_32_check,
    eigenvector,
    fp_dim,
    galkin_check,
    galkin_margin,
    match_root_multisets,
    max_root_modulus,
    operator_eigenvalue,
    spectrum_report,
    tau1_eigenvalue,
    verify_diagonalization,
)
from .verifier import (
    CHECK_IDS,
    CheckResult,
    VerificationReport,
    run_suite,
)

__all__ = [
    "CHECK_IDS",
    "COFACTOR_DIM_LIMIT",
    "CheckResult",
    "EigenPair",
    "GalkinResult",
    "Matrix",
    "Poly",
    "QuadricContext",
    "RootFindingError",
    "SpectrumReport",
    "VerificationReport",
    "all_roots",
    "all_roots_simple",
    "basis_vector",
    "build_a1",
    "build_ap",
    "charpoly_cofactor",
    "charpoly_faddeev",
    "chevalley_column",
    "closed_eigenvalues",
    "closed_form_charpoly",
    "corollary_32_check",
    "eigenvector",
    "fp_dim",
    "galkin_check",
    "galkin_margin",
    "make_context",
    "match_root_multisets",
    "max_root_modulus",
    "nonzero_part_is_squarefree",
    "operator_eigenvalue",
    "poly_gcd",
    "run_suite",
    "spectrum_report",
    "squarefree_decomposition",
    "star_multiply",
    "tau1_eigenvalue",
    "verify_diagonalization",
]
