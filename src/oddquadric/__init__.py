"""Quantum multiplication operators of odd-dimensional quadrics at q = 1.

Exact construction of the multiplication matrices, their characteristic
polynomials by independent algorithms, closed-form eigendata with numeric
verification, Frobenius-Perron dimensions, the anticanonical lower-bound
certification, and a batch verifier behind the ``oddquadric`` CLI.

A module loads on the first use of one of its names (PEP 562), so
``import oddquadric`` runs none of them.
"""

from importlib import import_module

#: The public names, by the module that defines each.
_EXPORTS = {
    "charpoly": (
        "COFACTOR_DIM_LIMIT",
        "all_roots_simple",
        "charpoly_cofactor",
        "charpoly_faddeev",
        "closed_form_charpoly",
    ),
    "poly": ("Poly", "poly_gcd", "squarefree_decomposition"),
    "ring": (
        "Matrix",
        "QuadricContext",
        "basis_vector",
        "build_a1",
        "build_ap",
        "chevalley_column",
        "make_context",
        "star_multiply",
    ),
    "spectra": (
        "EigenPair",
        "GalkinResult",
        "RootFindingError",
        "SpectrumReport",
        "all_roots",
        "closed_eigenvalues",
        "corollary_32_check",
        "eigenvector",
        "fp_dim",
        "galkin_check",
        "galkin_margin",
        "match_root_multisets",
        "max_root_modulus",
        "operator_eigenvalue",
        "spectrum_report",
        "tau1_eigenvalue",
        "verify_diagonalization",
    ),
    "verifier": ("CHECK_IDS", "CheckResult", "VerificationReport", "run_suite"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

# name: (module, attribute in it)
_SOURCE = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_SOURCE["__version__"] = ("serialize", "VERSION")


def __getattr__(name):
    try:
        module, attr = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later lookups never reach __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
