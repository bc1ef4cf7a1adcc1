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
from functools import lru_cache
from math import isfinite, nan, ulp
from operator import truediv
from typing import TYPE_CHECKING, NamedTuple

from .charpoly import charpoly_faddeev, closed_form_charpoly, closed_form_factors
from .poly import Poly, squarefree_decomposition
from .ring import QuadricContext, build_a1, build_ap, check_index, make_context

if TYPE_CHECKING:  # numpy is imported where it is used: only the float checks need it
    import numpy as np

DIAG_RESIDUAL_TOL = 1e-9     # max-norm of A*P - P*D, up to n = 20
SHARED_EIGVEC_TOL = 1e-8     # shared-eigenvector residual for the other operators
ROOT_MATCH_TOL = 1e-8        # numeric roots vs closed-form eigenvalues
COR32_TOL = 1e-9             # the (lam^(2n-1) - 2)/2 identity
PIVOT_RATIO = 1e-8           # min/max pivot ratio certifying P invertible
DK_TOL = 1e-12               # Durand-Kerner update threshold, or 4 ulp of the start radius if larger
DK_MAX_ITER = 500
# Largest sweep array of one durand_kerner_batch part.  The parts bound memory,
# not time: on a 2-vCPU Xeon, verify --n-max 32 --jobs 1 peaks at 46 MB with
# them and at 61 MB without, and took 2.54-2.72 s with them and 2.58-2.83 s
# without (six alternating in-process runs each).  At 512 KiB a part holds 4
# polynomials of degree 63 and 29 of degree 23.
DK_BATCH_BYTES = 1 << 19
# Fewest points of a part that divides with _complex_quotient and takes moduli
# with _largest_moduli; a smaller part divides and takes abs in Python.  Time
# of one batch of degree-23 factors this way over the Python way, on a 2-vCPU
# Xeon (three runs): 1.25-1.26 at 46 points, 1.07-1.09 at 69, 0.98-1.00 at
# 92, 0.93-0.95 at 115 and 0.75-0.77 at 506.  So root_sweep's single factors
# (at most 39 points) and galkin's cross-check (at most 23) divide in Python,
# and fpdim_consistency's largest part at each n goes to numpy from n = 6 on
# (110 points and more).
DK_NUMPY_POINTS = 96
GALKIN_CROSSCHECK_MAX_N = 12


class RootFindingError(RuntimeError):
    """Roots not found: a squarefree factor has a coefficient outside the
    double range, or its simultaneous iteration overflowed or did not
    converge.  Never a silent wrong value."""


class EigenPair(NamedTuple):
    value: complex
    multiplicity: int


class SpectrumReport(NamedTuple):
    ctx: QuadricContext
    p: int
    eigenpairs: list[EigenPair]
    fp_dim: float
    simple: bool


class Diagonalization(NamedTuple):
    residual_diag: float
    p_invertible: bool


def tau1_eigenvalue(ctx: QuadricContext, j: int) -> complex:
    """The j-th nonzero eigenvalue of the degree-one operator, j in [0, 2n-2].

    The 2n-1 distinct values 4^(1/(2n-1)) e^(2*pi*i*j/(2n-1)); together with 0
    they exhaust the spectrum.  operator_eigenvalue and eigenvector take "zero"
    themselves and check every other selector here: anything else raises ValueError.
    """
    m = ctx.dim
    if not isinstance(j, int) or isinstance(j, bool):
        raise ValueError(f"eigenvalue index must be an integer or 'zero', got {j!r}")
    if not 0 <= j <= m - 1:
        raise ValueError(f"eigenvalue index {j} outside [0, {m - 1}]")
    return 4 ** (1 / m) * cmath.exp(2j * cmath.pi * j / m)


def _check_spectrum_degree(ctx: QuadricContext, p: int) -> None:
    check_index(ctx, p)
    if p < 1:
        raise ValueError(f"spectral data is defined for p in [1, {ctx.dim}], got {p}")


def closed_eigenvalues(ctx: QuadricContext, p: int) -> list[EigenPair]:
    """Eigenvalues of the degree-p operator with multiplicities, in closed form.

    The roots of closed_form_factors(ctx, p), factor by factor: c for a linear
    factor (lam - c)^k, and fp_dim(ctx, p) times the L-th roots of unity for a
    factor (lam^L - c)^k, each with multiplicity k.  So below the middle degree
    there are 0 and the (2n-1)/d distinct p-th powers of the degree-one
    eigenvalues, each with multiplicity d = gcd(p, 2n-1); from the middle on
    the nonzero values are halved; the point class has eigenvalues 1
    (multiplicity 2n-1) and -1.
    """
    r = fp_dim(ctx, p)
    pairs = []
    for (length, c), k in closed_form_factors(ctx, p).items():
        if length == 1:
            pairs.append(EigenPair(complex(c), k))
        else:
            pairs += [EigenPair(r * cmath.exp(2j * cmath.pi * j / length), k) for j in range(length)]
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


@lru_cache(maxsize=None)
def _eigenvector_matrix(ctx: QuadricContext) -> np.ndarray:
    """The eigenvectors eigenvector(ctx, j) as rows, j in _eigen_selectors(ctx) order;
    read-only, built once per n."""
    import numpy as np

    e = np.array([eigenvector(ctx, j) for j in _eigen_selectors(ctx)])
    e.flags.writeable = False
    return e


def operator_as_array(ctx: QuadricContext, p: int) -> np.ndarray:
    """Double-precision copy of the exact degree-p operator, built from its
    integer rows."""
    import numpy as np

    a = np.zeros((ctx.basis_size, ctx.basis_size))
    for i, row in enumerate(build_ap(ctx, p).int_form()):
        for j, v in row.items():
            a[i, j] = v
    return a


def _pivot_ratio(p: np.ndarray) -> float:
    """min/max pivot magnitude under Gaussian elimination with partial pivoting."""
    import numpy as np

    a = p.astype(complex)
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
    # a Python float, so p_invertible is a bool that a failure witness can serialize
    return float(min(pivots) / max(pivots))


def verify_diagonalization(ctx: QuadricContext) -> Diagonalization:
    """Numeric check that the eigenvector matrix diagonalizes the degree-one operator.

    P has the 0-eigenvector first and then the eigenvectors in index order;
    D carries the matching eigenvalues.  Reports the max-norm of A*P - P*D and
    whether P passes the partial-pivoting invertibility test; a failed pivot
    test is reported, never silently passed.
    """
    import numpy as np

    a = operator_as_array(ctx, 1)
    p = _eigenvector_matrix(ctx).T
    d = np.diag([operator_eigenvalue(ctx, 1, j) for j in _eigen_selectors(ctx)])
    residual = float(np.max(np.abs(a @ p - p @ d)))
    return Diagonalization(residual_diag=residual, p_invertible=_pivot_ratio(p) > PIVOT_RATIO)


def spectrum_report(ctx: QuadricContext, p: int) -> SpectrumReport:
    """Closed-form spectrum summary for the degree-p operator."""
    pairs = closed_eigenvalues(ctx, p)
    return SpectrumReport(
        ctx=ctx,
        p=p,
        eigenpairs=pairs,
        fp_dim=fp_dim(ctx, p),
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


def _horner_runs(coeffs: list[complex]) -> tuple[tuple[int, int | None], ...]:
    """Horner's rule on a monic polynomial in runs (k, j): multiply by x k
    times, then add coeffs[j].  A last run (k, None) only multiplies, for the
    zero coefficients below the last nonzero one.

    Two polynomials have the same runs exactly when they have one shape: the
    same degree, with their nonzero coefficients in the same places.
    """
    runs, tail = [], len(coeffs) - 1
    for j in range(tail - 1, -1, -1):
        if coeffs[j]:
            runs.append((tail - j, j))
            tail = j
    if tail:
        runs.append((tail, None))
    return tuple(runs)


def durand_kerner_batch(polys, runs) -> list:
    """All roots of monic polynomials of one shape by one simultaneous (Durand-Kerner) iteration.

    Precondition, met by _roots_batch and not checked here: polys is a
    nonempty list of ascending complex coefficient lists of one degree of at
    least 2, each with leading coefficient exactly 1+0j and with
    _horner_runs(coeffs) == runs.  Each starts on a circle of radius r0 =
    _initial_radius(coeffs) bounding its roots, offset off the real axis to
    break symmetric stalls.  Returns, for each, its roots once every update is
    below max(DK_TOL, 4 * ulp(r0)), or a RootFindingError if that takes over
    DK_MAX_ITER sweeps or an update overflows to inf or NaN.  The ulp term
    only counts for r0 >= 2048, where the ulp of a root can exceed DK_TOL.  A
    polynomial leaves the batch when it converges or fails, so each outcome
    is the one it has alone.  A batch whose sweep array would outgrow
    DK_BATCH_BYTES runs in parts.

    Bit-identity contract: every root is bit for bit the one of the plain
    loop kept in tests/test_spectra.py, which evaluates Horner's rule
    val = val*x + c over all coefficients and the denominator as 1+0j times
    x - y over the other points in index order.  The one operation left out,
    the addition of a zero coefficient, can only change the sign of a zero
    component: the next nonzero real coefficient erases it, and after the
    last one it reaches only the sign of a zero step, which x - step and
    abs(step) do not see (no iterate has a -0.0 component).  The contract
    exists because verify prints ulp-level residuals of these roots
    (fpdim_consistency "(2.220e-16)", the galkin cross-check "3.553e-15"), so
    a single changed bit would change its byte-identical report.

    The O(deg^2) products of a sweep run in numpy, for all points of the
    batch at once.  For each point, a Horner run and the denominator are each
    one row of a C-contiguous array that starts with the running value (1+0j
    for the denominator), and np.multiply.reduce along the row multiplies
    left to right with the same formula as CPython's complex `*`.  One reduce
    serves the first Horner run and the denominators: the Horner rows of
    every polynomial, then their denominator rows, padded on the left with
    1+0j to one width.  The padding multiplies exactly, and the leading
    coefficient is the 1+0j padding's last column.  The differences x - y
    and the added coefficients are single IEEE subtractions and additions,
    the same in both.  Every part keeps its points in one complex array, and
    its sweep has one point update, pts - steps, two IEEE subtractions as in
    CPython's complex `-`, and one test per polynomial, on the largest |step|:
    not finite fails it, below its tolerance ends it with its points as
    Python complex.  Everything a sweep writes to is made only when the
    live polynomials change: the x and y of every x - y, which one take by a
    fixed index fills, the reduce output, the coefficients the Horner runs
    add and a small part's steps.  So no block of memory is taken and given
    back every sweep.  Only the quotient and moduli depend on the size of
    the part.  A part of fewer than DK_NUMPY_POINTS points divides
    val / den and takes abs in Python.  A larger part does both in numpy:
    _complex_quotient replays CPython's quotient step by step with real
    ufuncs, and _largest_moduli takes abs as np.hypot and the max per
    polynomial.  Neither uses numpy's elementwise complex `*`, `/` or abs:
    the first may use fused multiply-adds, the second is a scaled quotient,
    and the third has its own hypot, and each rounds differently.
    TestNumpyRoundingContract in tests/test_spectra.py pins each numpy
    assumption by name.
    """
    deg = len(polys[0]) - 1
    width = max(runs[0][0] + 1, deg)
    size = min(len(polys), max(1, DK_BATCH_BYTES // (2 * deg * width * 16)))
    others = _other_points(deg, size)
    out = []
    for start in range(0, len(polys), size):
        out += _durand_kerner_part(polys[start : start + size], runs, width, others)
    return out


@lru_cache(maxsize=32)
def _other_points(deg: int, size: int) -> np.ndarray:
    """Row i of a polynomial's denominators takes x_i - x_j for every j != i,
    in index order: those j as indices into the points of size polynomials,
    one after another.  Read-only, built once per (deg, size)."""
    import numpy as np

    t = np.arange(deg - 1)
    others = t + (t >= np.arange(deg)[:, None]) + deg * np.arange(size)[:, None, None]
    others = others.reshape(size * deg, deg - 1)
    others.flags.writeable = False
    return others


def _complex_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b elementwise, bit for bit as CPython's complex `/` divides.

    CPython's _Py_c_quot is Smith's algorithm (R. L. Smith, CACM 5 (1962),
    Algorithm 116): it divides through by whichever part of b is larger in
    magnitude, b.real on a tie.  Each of its IEEE steps is replayed here with
    a real ufunc, in its operand order: the imaginary numerator of the second
    branch is a.imag * ratio - a.real, not the negated first-branch form,
    which would turn a +0.0 into -0.0.  Python's division forms again each
    quotient those steps leave NaN: so a NaN or infinite operand gets
    CPython's own NaN bits, which the steps match only under some of numpy's
    SIMD dispatch, and a zero b raises Python's own ZeroDivisionError.  Call
    it under np.errstate(all="ignore").
    """
    import numpy as np

    first = np.abs(b.real) >= np.abs(b.imag)
    big, small = np.where(first, b.real, b.imag), np.where(first, b.imag, b.real)
    u, v = np.where(first, a.real, a.imag), np.where(first, a.imag, a.real)
    ratio = small / big
    denom = big + small * ratio
    t = u * ratio
    out = np.empty(a.shape, complex)
    out.real = (u + v * ratio) / denom
    out.imag = np.where(first, v - t, t - v) / denom
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = a.item(i) / b.item(i)
    return out


def _largest_moduli(steps: np.ndarray, deg: int) -> list[float]:
    """max(map(abs, row)) over each row of deg steps, bit for bit, or a value
    that is not finite for a row with a part that is not finite.

    Python's abs of a finite complex is the C library's hypot of its parts,
    as np.hypot computes it, and np.max carries a NaN or an infinity through.
    A finite step whose hypot overflows raises Python's own OverflowError, as
    abs does.  Call it under np.errstate(all="ignore").
    """
    import numpy as np

    sizes = np.hypot(steps.real, steps.imag)
    tops = sizes.reshape(-1, deg).max(axis=1).tolist()
    if not all(map(isfinite, tops)):
        overflows = np.flatnonzero(np.isfinite(steps) & np.isinf(sizes))
        if len(overflows):
            abs(steps.item(overflows[0]))  # raises Python's own error
    return tops


def _durand_kerner_part(polys, runs, width, others) -> list:
    """The outcomes of durand_kerner_batch for one part, in the order of polys."""
    import numpy as np

    deg = len(polys[0]) - 1
    xcol, first = width - runs[0][0], width - deg + 1  # the columns before them hold 1+0j
    outcomes: list = [None] * len(polys)
    delta = [float("inf")] * len(polys)
    live = list(range(len(polys)))
    rows = 0
    pts, tol = [], []
    for coeffs in polys:
        radius = _initial_radius(coeffs)
        tol.append(max(DK_TOL, 4 * ulp(radius)))
        pts += [radius * cmath.exp(1j * (2 * cmath.pi * k / deg + 0.4)) for k in range(deg)]
    pts = np.array(pts)
    large = len(pts) >= DK_NUMPY_POINTS

    def times_power(val, x, k):
        """val * x**k for every point, as k products left to right along a row."""
        w = np.empty((len(x), k + 1), complex)
        w[:, 0] = val
        w[:, 1:] = x[:, None]
        return np.multiply.reduce(w, axis=1)

    # An overflow is reported by the finite test below, not as a numpy warning.
    with np.errstate(all="ignore"):
        for _ in range(DK_MAX_ITER):
            if len(pts) != rows:
                # The live polynomials changed, so everything a sweep writes
                # to is made anew: a sweep array of 1+0j with its Horner and
                # denominator views, x and y of every denominator factor x - y
                # with their indices into pts (the row's own point, then
                # others[:rows]), the reduce output, each Horner run's added
                # coefficient once per point, and a small part's steps.  A
                # new array every sweep, or the buffers a ufunc takes when its
                # operands are not all contiguous, may be a block that malloc
                # maps and unmaps each time.
                rows = len(pts)
                w = np.ones((2 * rows, width), complex)
                horner, dens = w[:rows, xcol:], w[rows:, first:]
                index = np.empty((2, rows, deg - 1), np.intp)
                index[0] = np.arange(rows)[:, None]
                index[1] = others[:rows]
                xy = np.empty(index.shape, complex)
                x, y = xy
                reduced = np.empty(2 * rows, complex)
                added = [
                    (k, None if j is None else np.repeat([polys[b][j] for b in live], deg))
                    for k, j in runs
                ]
                steps = np.empty(rows, complex)
            horner[...] = pts[:, None]
            # The method: the np.take wrapper costs a call of its own.  rows
            # is a multiple of deg, so no index leaves pts and "clip" clips
            # nothing; "raise" would take a buffer for out.
            pts.take(index, None, xy, "clip")
            np.subtract(x, y, out=y)
            dens[...] = y
            np.multiply.reduce(w, axis=1, out=reduced)
            val = reduced[:rows]
            for i, (k, coeff) in enumerate(added):
                if i:
                    val = times_power(val, pts, k)
                if coeff is not None:
                    np.add(val, coeff, out=val)
            if large:
                steps = _complex_quotient(val, reduced[rows:])
                tops = _largest_moduli(steps, deg)
            else:
                quotients = list(map(truediv, val.tolist(), reduced[rows:].tolist()))
                steps[:] = quotients
                sizes = list(map(abs, quotients))
                if all(map(isfinite, sizes)):
                    tops = [max(sizes[i : i + deg]) for i in range(0, rows, deg)]
                else:
                    # max() drops a NaN unless it comes first, so a step that is not finite is tested apart.
                    tops = [
                        max(mine) if all(map(isfinite, mine)) else nan
                        for mine in (sizes[i : i + deg] for i in range(0, rows, deg))
                    ]
            pts = pts - steps
            kept = []
            for i, b in enumerate(live):
                if not isfinite(tops[i]):
                    outcomes[b] = RootFindingError("root iteration overflowed: an update is not finite")
                    continue
                delta[b] = tops[i]
                if delta[b] < tol[b]:
                    outcomes[b] = pts[i * deg : (i + 1) * deg].tolist()
                else:
                    kept.append(i)
            if len(kept) < len(live):
                live = [live[i] for i in kept]
                pts = pts.reshape(-1, deg)[kept].ravel()
                if not live:
                    break
    for b in live:
        outcomes[b] = RootFindingError(
            f"root iteration did not converge within {DK_MAX_ITER} sweeps (last update {delta[b]:.3e})"
        )
    return outcomes


def _roots_batch(polys: list[Poly]) -> list:
    """all_roots of each polynomial, or the first RootFindingError of its factors in Yun order.

    Each factor is converted to doubles once, and one with a coefficient
    outside the double range fails its own polynomial only.  Linear factors
    are read exactly; the nonlinear factors of all the polynomials are found
    together, one durand_kerner_batch per shape.
    """
    found = []  # per polynomial: [roots or error, multiplicity] per factor
    shapes: dict[tuple, list] = {}  # per shape: (a nonlinear factor's entry in found, coefficients)
    for f in polys:
        if f.degree < 1:
            raise ValueError("need a nonconstant polynomial")
        if not f.is_monic:
            raise ValueError("need a monic polynomial")
        k, g = f.strip_zero_roots()
        found.append([[[0j], k]] if k else [])
        for factor, mult in squarefree_decomposition(g) if g.degree > 0 else ():
            try:
                coeffs = list(map(float, factor.coeffs))
            except OverflowError:
                error = RootFindingError("a coefficient of a squarefree factor is outside the double range")
                found[-1].append([error, mult])
                continue
            if factor.degree == 1:
                found[-1].append([[complex(-coeffs[0])], mult])
            else:
                coeffs = list(map(complex, coeffs))
                found[-1].append([None, mult])
                shapes.setdefault(_horner_runs(coeffs), []).append((found[-1][-1], coeffs))
    for runs, batch in shapes.items():
        for (entry, _), roots in zip(batch, durand_kerner_batch([c for _, c in batch], runs)):
            entry[0] = roots
    out = []
    for factors in found:
        errors = [roots for roots, _ in factors if isinstance(roots, RootFindingError)]
        out.append(errors[0] if errors else [(r, mult) for roots, mult in factors for r in roots])
    return out


def all_roots(f: Poly) -> list[tuple[complex, int]]:
    """Roots of a monic polynomial with exact multiplicities.

    The multiplicity structure comes from exact gcd arithmetic (squarefree
    decomposition), so the numeric iteration only ever sees simple roots;
    multiple roots would otherwise cap the attainable accuracy at the cluster
    radius ~eps^(1/multiplicity).
    """
    (roots,) = _roots_batch([f])
    if isinstance(roots, RootFindingError):
        raise roots
    return roots


def max_root_modulus(f: Poly) -> float:
    """Largest root modulus of a monic polynomial, located numerically."""
    return max(abs(r) for r, _ in all_roots(f))


def located_radius(ctx: QuadricContext, p: int) -> float:
    """max_root_modulus(closed_form_charpoly(ctx, p)), bit for bit, for p in [1, 2n-1].

    Read from one _roots_batch over every p at this n; a p whose root finding
    failed raises its own RootFindingError, and every other p is unaffected.
    """
    _check_spectrum_degree(ctx, p)
    radius = _closed_form_radii(ctx)[p - 1]
    if isinstance(radius, RootFindingError):
        raise radius.with_traceback(None)
    return radius


@lru_cache(maxsize=None)
def _closed_form_radii(ctx: QuadricContext) -> tuple[float | RootFindingError, ...]:
    """located_radius for p = 1 .. 2n-1, or p's RootFindingError.  Built once per n."""
    return tuple(
        roots if isinstance(roots, RootFindingError) else max(abs(r) for r, _ in roots)
        for roots in _roots_batch([closed_form_charpoly(ctx, p) for p in range(1, ctx.dim + 1)])
    )


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
        if not abs(w - target) <= COR32_TOL:  # a NaN fails too
            return False
    return True


def galkin_margin(n: int) -> float:
    """Closed-form margin (2n-1) * 4^(1/(2n-1)) - 2n of the anticanonical bound;
    an n that make_context refuses raises ValueError."""
    m = make_context(n).dim
    return m * 4 ** (1 / m) - 2 * n


class GalkinResult(NamedTuple):
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
    margin = galkin_margin(n)
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
