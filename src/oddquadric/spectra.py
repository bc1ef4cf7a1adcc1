"""Closed-form eigendata of the multiplication operators and numeric checks.

The degree-one operator has the 2n eigenvalues 0 and 4^(1/(2n-1)) w^j for w a
primitive (2n-1)-th root of unity, with explicit eigenvectors; every other
operator shares the eigenvectors, with eigenvalues that are powers of these
(halved from the middle degree on, and collapsing to {1, -1} for the point
class).  This module builds that data, verifies it numerically against the
exact matrices, locates polynomial roots independently, and certifies the
anticanonical lower bound.

Tolerances are per check, set against the closed forms:
conditioning of the eigenvector matrix degrades slowly with n, root finding
adds one extra rounding layer.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import sub

import numpy as np

from .charpoly import charpoly_faddeev
from .poly import Poly, squarefree_decomposition
from .ring import QuadricContext, build_a1, build_ap

DIAG_RESIDUAL_TOL = 1e-9     # max-norm of A*P - P*D, up to n = 20
EIGVEC_RESIDUAL_TOL = 1e-9   # per-eigenvector residual, up to n = 20
SHARED_EIGVEC_TOL = 1e-8     # shared-eigenvector residual for the other operators
ROOT_MATCH_TOL = 1e-8        # numeric roots vs closed-form eigenvalues
COR32_TOL = 1e-9             # the (lam^(2n-1) - 2)/2 identity
PIVOT_RATIO = 1e-8           # min/max pivot ratio certifying P invertible
DK_TOL = 1e-12               # root-update threshold for Durand-Kerner
DK_MAX_ITER = 500
GALKIN_CROSSCHECK_MAX_N = 12


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to converge; never a silent wrong value."""


@dataclass(frozen=True)
class EigenPair:
    value: complex
    multiplicity: int


@dataclass
class SpectrumReport:
    ctx: QuadricContext
    p: int
    eigenpairs: list[EigenPair]
    fp_dim: float
    residual_diag: float | None
    simple: bool
    p_invertible: bool = True


def tau1_eigenvalue(ctx: QuadricContext, j: int) -> complex:
    """The j-th nonzero eigenvalue of the degree-one operator, j in [0, 2n-2].

    The 2n-1 distinct values 4^(1/(2n-1)) e^(2*pi*i*j/(2n-1)); together with 0
    they exhaust the spectrum.
    """
    m = ctx.dim
    if not 0 <= j <= m - 1:
        raise ValueError(f"eigenvalue index {j} outside [0, {m - 1}]")
    return 4 ** (1 / m) * cmath.exp(2j * cmath.pi * j / m)


def _check_spectrum_degree(ctx: QuadricContext, p: int) -> None:
    if not 1 <= p <= ctx.dim:
        raise ValueError(f"spectral data is defined for p in [1, {ctx.dim}], got {p}")


def closed_eigenvalues(ctx: QuadricContext, p: int) -> list[EigenPair]:
    """Eigenvalues of the degree-p operator with multiplicities, in closed form.

    For p below the middle: 0 plus the (2n-1)/d distinct p-th powers of the
    degree-one eigenvalues, each with multiplicity d = gcd(p, 2n-1); from the
    middle on the nonzero values are halved; the point class has eigenvalues
    1 (multiplicity 2n-1) and -1.
    """
    _check_spectrum_degree(ctx, p)
    n, dim = ctx.n, ctx.dim
    if p == dim:
        return [EigenPair(1 + 0j, dim), EigenPair(-1 + 0j, 1)]
    d = ctx.d(p)
    m = dim // d
    r = 2 ** (2 * p / dim) if p < n else 2 ** (2 * p / dim - 1)
    pairs = [EigenPair(0j, 1)]
    for k in range(m):
        pairs.append(EigenPair(r * cmath.exp(2j * cmath.pi * k / m), d))
    if sum(ep.multiplicity for ep in pairs) != ctx.basis_size:
        raise ArithmeticError(f"multiplicities for n={n}, p={p} do not sum to {ctx.basis_size}")
    return pairs


def operator_eigenvalue(ctx: QuadricContext, p: int, j) -> complex:
    """Eigenvalue of the degree-p operator on the shared eigenvector j.

    j is an index in [0, 2n-2] or the string "zero" for the 0-eigenvector of
    the degree-one operator.
    """
    _check_spectrum_degree(ctx, p)
    n, dim = ctx.n, ctx.dim
    lam = 0j if j == "zero" else tau1_eigenvalue(ctx, j)
    if p == dim:
        return -(1 + 0j) if j == "zero" else 1 + 0j
    if p < n:
        return lam**p
    return lam**p / 2


def eigenvector(ctx: QuadricContext, j) -> tuple[complex, ...]:
    """Eigenvector of the degree-one operator, in basis coordinates.

    For a nonzero eigenvalue lam the coordinates are
    ((lam^(2n-1) - 2)/2, lam^(2n-2)/2, ..., lam^n/2, lam^(n-1), ..., lam, 1);
    the 0-eigenvector is (-1, 0, ..., 0, 1), the same formula at lam = 0.
    """
    n, dim = ctx.n, ctx.dim
    if j == "zero":
        return tuple([-1 + 0j] + [0j] * (dim - 1) + [1 + 0j])
    lam = tau1_eigenvalue(ctx, j)
    coords = [(lam**dim - 2) / 2]
    coords += [lam ** (dim - i) / 2 for i in range(1, n)]
    coords += [lam ** (dim - i) for i in range(n, dim + 1)]
    return tuple(coords)


def _eigen_selectors(ctx: QuadricContext):
    return ["zero"] + list(range(ctx.dim))


def operator_as_array(ctx: QuadricContext, p: int) -> np.ndarray:
    """Double-precision copy of the exact degree-p operator."""
    return np.array([[float(v) for v in row] for row in build_ap(ctx, p).rows])


def eigenvector_residual(ctx: QuadricContext, j) -> float:
    """Max-norm of A(t_1) v - lam v for the constructed eigenvector."""
    a = operator_as_array(ctx, 1)
    v = np.array(eigenvector(ctx, j))
    lam = operator_eigenvalue(ctx, 1, j)
    return float(np.max(np.abs(a @ v - lam * v)))


def _pivot_ratio(p: np.ndarray) -> float:
    """min/max pivot magnitude under Gaussian elimination with partial pivoting."""
    a = p.astype(complex).copy()
    n = a.shape[0]
    pivots = []
    for c in range(n):
        r = c + int(np.argmax(np.abs(a[c:, c])))
        if r != c:
            a[[c, r]] = a[[r, c]]
        piv = a[c, c]
        pivots.append(abs(piv))
        if piv == 0:
            break
        a[c + 1 :, c:] -= np.outer(a[c + 1 :, c] / piv, a[c, c:])
    return min(pivots) / max(pivots)


def verify_diagonalization(ctx: QuadricContext) -> SpectrumReport:
    """Numeric check that the eigenvector matrix diagonalizes the degree-one operator.

    P has the 0-eigenvector first and then the eigenvectors in index order;
    D carries the matching eigenvalues.  Reports the max-norm of A*P - P*D and
    whether P passes the partial-pivoting invertibility test; a failed pivot
    test is reported, never silently passed.
    """
    a = operator_as_array(ctx, 1)
    selectors = _eigen_selectors(ctx)
    p = np.array([eigenvector(ctx, j) for j in selectors]).T
    d = np.diag([operator_eigenvalue(ctx, 1, j) for j in selectors])
    residual = float(np.max(np.abs(a @ p - p @ d)))
    invertible = _pivot_ratio(p) > PIVOT_RATIO
    pairs = closed_eigenvalues(ctx, 1)
    return SpectrumReport(
        ctx=ctx,
        p=1,
        eigenpairs=pairs,
        fp_dim=fp_dim(ctx, 1),
        residual_diag=residual,
        simple=all(ep.multiplicity == 1 for ep in pairs),
        p_invertible=invertible,
    )


def spectrum_report(ctx: QuadricContext, p: int) -> SpectrumReport:
    """Closed-form spectrum summary for the degree-p operator."""
    pairs = closed_eigenvalues(ctx, p)
    return SpectrumReport(
        ctx=ctx,
        p=p,
        eigenpairs=pairs,
        fp_dim=fp_dim(ctx, p),
        residual_diag=None,
        simple=all(ep.multiplicity == 1 for ep in pairs),
    )


def fp_dim(ctx: QuadricContext, p: int) -> float:
    """Frobenius-Perron dimension of the degree-p class: its largest eigenvalue modulus.

    2^(2p/(2n-1)) below the middle degree, 2^(2p/(2n-1)-1) from the middle on,
    and 1 for the point class.
    """
    _check_spectrum_degree(ctx, p)
    n, dim = ctx.n, ctx.dim
    if p == dim:
        return 1.0
    if p < n:
        return 2 ** (2 * p / dim)
    return 2 ** (2 * p / dim - 1)


def _initial_radius(coeffs: list[complex]) -> float:
    """Inclusion radius for all roots: the smaller of the Cauchy and Fujiwara bounds."""
    deg = len(coeffs) - 1
    cauchy = 1 + max(abs(c) for c in coeffs[:-1])
    fujiwara = 2 * max(abs(coeffs[deg - k]) ** (1 / k) for k in range(1, deg + 1))
    r = min(cauchy, fujiwara)
    return r if r > 0 else 1.0


def durand_kerner(coeffs, max_iter: int = DK_MAX_ITER) -> list[complex]:
    """All roots of a monic polynomial by simultaneous (Durand-Kerner) iteration.

    coeffs ascending, leading coefficient 1.  Starts from points on a circle
    bounding all roots, offset off the real axis to break symmetric stalls;
    stops when every root update drops below DK_TOL, and raises
    RootFindingError if that does not happen within max_iter sweeps.

    Bit-identity contract: every root is bit for bit the one of the plain
    loop kept in tests/test_spectra.py, which evaluates Horner's rule
    val = val*x + c over all coefficients and the denominator as 1+0j times
    x - y over the other points in index order.  math.prod runs the same
    IEEE operations in the same order in C.  The one operation left out, the
    addition of a zero coefficient, can only change the sign of a zero
    component: the next nonzero real coefficient erases it, and after the
    last one it reaches only the sign of a zero step, which x - step and
    abs(step) do not see (no iterate has a -0.0 component).  The contract
    exists because verify prints ulp-level residuals of these roots
    (fpdim_consistency "(2.220e-16)", the galkin cross-check "3.553e-15"), so
    a single changed bit would change its byte-identical report.
    """
    coeffs = [complex(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("need a nonconstant polynomial")
    if abs(coeffs[-1] - 1) > 1e-12:
        raise ValueError("root finder expects a monic polynomial")
    if deg == 1:
        return [-coeffs[0]]
    # Horner's rule in runs: multiply by x k times, then add the nonzero c;
    # the zero coefficients below the last nonzero one leave `tail` multiplications.
    runs, tail = [], deg
    for j in range(deg - 1, -1, -1):
        if coeffs[j]:
            runs.append((tail - j, coeffs[j]))
            tail = j
    lead = coeffs[-1]
    radius = _initial_radius(coeffs)
    pts = [radius * cmath.exp(1j * (2 * cmath.pi * k / deg + 0.4)) for k in range(deg)]
    delta = float("inf")
    for _ in range(max_iter):
        steps = []
        for i, x in enumerate(pts):
            val = lead
            for k, c in runs:
                val = prod(repeat(x, k), start=val) + c
            val = prod(repeat(x, tail), start=val)
            steps.append(val / prod(map(sub, repeat(x), pts[:i] + pts[i + 1 :]), start=1 + 0j))
        pts = list(map(sub, pts, steps))
        delta = max(0.0, *map(abs, steps))
        if delta < DK_TOL:
            return pts
    raise RootFindingError(
        f"root iteration did not converge within {max_iter} sweeps (last update {delta:.3e})"
    )


def all_roots(f: Poly) -> list[tuple[complex, int]]:
    """Roots of a monic polynomial with exact multiplicities.

    The multiplicity structure comes from exact gcd arithmetic (squarefree
    decomposition), so the numeric iteration only ever sees simple roots;
    multiple roots would otherwise cap the attainable accuracy at the cluster
    radius ~eps^(1/multiplicity).
    """
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    if not f.is_monic:
        raise ValueError("need a monic polynomial")
    k, g = f.strip_zero_roots()
    roots: list[tuple[complex, int]] = [(0j, k)] if k else []
    if g.degree > 0:
        for factor, mult in squarefree_decomposition(g):
            if factor.degree == 1:
                roots.append((complex(-factor.coeffs[0]), mult))
            else:
                for r in durand_kerner([complex(c) for c in factor.coeffs]):
                    roots.append((r, mult))
    return roots


def max_root_modulus(f: Poly) -> float:
    """Largest root modulus of a monic polynomial, located numerically."""
    return max(abs(r) for r, _ in all_roots(f))


def match_root_multisets(pairs, roots, tol: float = ROOT_MATCH_TOL):
    """Greedily pair closed-form eigenvalues with located roots.

    Each (value, multiplicity) pair must consume one unused root within tol
    carrying the same multiplicity.  Returns (ok, detail).
    """
    remaining = sorted(roots, key=lambda rm: (abs(rm[0]), cmath.phase(rm[0]), rm[1]))
    for ep in sorted(pairs, key=lambda ep: (abs(ep.value), cmath.phase(ep.value))):
        hit = None
        for idx, (r, mult) in enumerate(remaining):
            if abs(r - ep.value) <= tol and mult == ep.multiplicity:
                hit = idx
                break
        if hit is None:
            return False, f"no root within {tol:g} of {ep.value} with multiplicity {ep.multiplicity}"
        remaining.pop(hit)
    if remaining:
        return False, f"{len(remaining)} roots left unmatched"
    return True, "multisets agree"


def corollary_32_check(ctx: QuadricContext) -> bool:
    """(lam^(2n-1) - 2)/2 must be -1 at lam = 0 and +1 at every nonzero eigenvalue."""
    dim = ctx.dim
    for j in _eigen_selectors(ctx):
        lam = 0j if j == "zero" else tau1_eigenvalue(ctx, j)
        w = (lam**dim - 2) / 2
        target = -1 if j == "zero" else 1
        if abs(w - target) > COR32_TOL:
            return False
    return True


def galkin_margin(n: int) -> float:
    """Closed-form margin (2n-1) * 4^(1/(2n-1)) - 2n of the anticanonical bound."""
    m = 2 * n - 1
    return m * 4 ** (1 / m) - 2 * n


@dataclass
class GalkinResult:
    n: int
    fpdim_c1: float
    bound: float
    margin: float
    passed: bool
    cross_residual: float | None


def galkin_check(ctx: QuadricContext) -> GalkinResult:
    """Certify the anticanonical lower bound for one family member.

    The anticanonical class is (2n-1) times the degree-one class, so its
    largest eigenvalue modulus is (2n-1) * 4^(1/(2n-1)); the bound demands at
    least dim + 1 = 2n.  For small n the closed form is cross-checked against
    the numerically located roots of the exact characteristic polynomial of
    the scaled operator.
    """
    n = ctx.n
    m = 2 * n - 1
    fpdim_c1 = m * 4 ** (1 / m)
    margin = fpdim_c1 - 2 * n
    cross = None
    if n <= GALKIN_CROSSCHECK_MAX_N:
        scaled = build_a1(ctx).scale(2 * n - 1)
        cross = abs(max_root_modulus(charpoly_faddeev(scaled)) - fpdim_c1)
    passed = margin >= 0 and (cross is None or cross <= ROOT_MATCH_TOL)
    return GalkinResult(
        n=n,
        fpdim_c1=fpdim_c1,
        bound=2.0 * n,
        margin=margin,
        passed=passed,
        cross_residual=cross,
    )
