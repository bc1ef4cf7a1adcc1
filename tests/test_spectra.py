"""Closed-form eigendata, root finding, diagonalization, and the lower bound."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddquadric import (
    Poly,
    RootFindingError,
    build_a1,
    charpoly_faddeev,
    all_roots,
    closed_eigenvalues,
    closed_form_charpoly,
    corollary_32_check,
    eigenvector,
    fp_dim,
    galkin_check,
    galkin_margin,
    make_context,
    match_root_multisets,
    max_root_modulus,
    operator_eigenvalue,
    spectrum_report,
    squarefree_decomposition,
    tau1_eigenvalue,
    verify_diagonalization,
)
from oddquadric.spectra import (
    DK_MAX_ITER,
    DK_TOL,
    _eigen_selectors,
    _initial_radius,
    durand_kerner,
    operator_as_array,
)

CBRT4 = 4 ** (1 / 3)


class TestClosedEigenvalues:
    def test_n2_p1(self):
        pairs = closed_eigenvalues(make_context(2), 1)
        assert all(ep.multiplicity == 1 for ep in pairs)
        values = sorted((ep.value for ep in pairs), key=lambda z: (round(abs(z), 9), cmath.phase(z)))
        expected = sorted(
            [0j] + [CBRT4 * cmath.exp(2j * cmath.pi * j / 3) for j in range(3)],
            key=lambda z: (round(abs(z), 9), cmath.phase(z)),
        )
        assert all(abs(a - b) < 1e-12 for a, b in zip(values, expected))

    def test_n2_point_class(self):
        pairs = closed_eigenvalues(make_context(2), 3)
        assert [(ep.value, ep.multiplicity) for ep in pairs] == [(1 + 0j, 3), (-1 + 0j, 1)]

    def test_n5_p3_multiplicities(self):
        pairs = closed_eigenvalues(make_context(5), 3)
        nonzero = [ep for ep in pairs if abs(ep.value) > 1e-12]
        assert len(nonzero) == 3
        assert all(ep.multiplicity == 3 for ep in nonzero)
        assert all(abs(abs(ep.value) - CBRT4) < 1e-12 for ep in nonzero)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_multiplicities_sum_to_basis_size(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert sum(ep.multiplicity for ep in closed_eigenvalues(ctx, p)) == 2 * n

    def test_p0_rejected(self):
        with pytest.raises(ValueError):
            closed_eigenvalues(make_context(2), 0)


class TestEigenvectors:
    def test_zero_eigenvector(self):
        assert eigenvector(make_context(2), "zero") == (-1 + 0j, 0j, 0j, 1 + 0j)

    def test_real_eigenvalue_vector_n2(self):
        v = eigenvector(make_context(2), 0)
        lam = CBRT4
        expected = (1, lam**2 / 2, lam, 1)
        assert all(abs(a - b) < 1e-12 for a, b in zip(v, expected))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            eigenvector(make_context(2), 3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residuals(self, n):
        ctx = make_context(n)
        a = operator_as_array(ctx, 1)
        for j in _eigen_selectors(ctx):
            v = np.array(eigenvector(ctx, j))
            lam = operator_eigenvalue(ctx, 1, j)
            assert float(np.max(np.abs(a @ v - lam * v))) <= 1e-9


class TestDiagonalization:
    def test_n2_tight_residual(self):
        report = verify_diagonalization(make_context(2))
        assert report.residual_diag <= 1e-12
        assert report.p_invertible

    def test_n10(self):
        report = verify_diagonalization(make_context(10))
        assert report.residual_diag <= 1e-9
        assert report.p_invertible

    def test_diagonal_order_is_zero_then_index_order(self):
        ctx = make_context(3)
        selectors = _eigen_selectors(ctx)
        assert selectors[0] == "zero"
        assert selectors[1:] == list(range(5))
        values = [operator_eigenvalue(ctx, 1, j) for j in selectors]
        assert values[0] == 0
        for j, v in enumerate(values[1:]):
            assert abs(v - tau1_eigenvalue(ctx, j)) < 1e-12


class TestSharedEigenvectors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_operators_share_the_eigenvectors(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            a = operator_as_array(ctx, p)
            for j in _eigen_selectors(ctx):
                v = np.array(eigenvector(ctx, j))
                mu = operator_eigenvalue(ctx, p, j)
                assert float(np.max(np.abs(a @ v - mu * v))) <= 1e-8


class TestFpDim:
    def test_spot_values(self):
        assert fp_dim(make_context(2), 1) == pytest.approx(2 ** (2 / 3), abs=1e-12)
        assert fp_dim(make_context(2), 3) == 1.0
        assert fp_dim(make_context(3), 4) == pytest.approx(2 ** (3 / 5), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_eigenvalue_moduli(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            radius = max(abs(ep.value) for ep in closed_eigenvalues(ctx, p))
            assert abs(radius - fp_dim(ctx, p)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_strictly_increasing_within_regimes(self, n):
        ctx = make_context(n)
        lower = [fp_dim(ctx, p) for p in range(1, n)]
        upper = [fp_dim(ctx, p) for p in range(n, 2 * n - 1)]
        assert all(x < y for x, y in zip(lower, lower[1:]))
        assert all(x < y for x, y in zip(upper, upper[1:]))


class TestRootFinding:
    def test_known_maxima(self):
        assert max_root_modulus(Poly([0, -4, 0, 0, 1])) == pytest.approx(CBRT4, abs=1e-10)
        assert max_root_modulus(Poly([-1, 2, 0, -2, 1])) == pytest.approx(1.0, abs=1e-10)
        assert max_root_modulus(Poly([0, -2, 0, 0, 0, 0, 1])) == pytest.approx(
            2 ** (1 / 5), abs=1e-10
        )

    def test_pure_power(self):
        assert max_root_modulus(Poly([0, 0, 0, 1])) == 0.0

    def test_requires_monic_nonconstant(self):
        with pytest.raises(ValueError):
            max_root_modulus(Poly([1, 2]))
        with pytest.raises(ValueError):
            max_root_modulus(Poly([3]))

    def test_multiplicities_from_gcd(self):
        roots = all_roots(closed_form_charpoly(make_context(5), 3))
        mults = sorted(m for _, m in roots)
        assert mults == [1, 3, 3, 3]

    def test_nonconvergence_is_loud(self):
        with pytest.raises(RootFindingError):
            durand_kerner([complex(-4), 0j, 0j, complex(1)], max_iter=1)

    def test_against_numpy_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeffs = list(rng.integers(-9, 10, size=5)) + [1]
            mine = [r for r, m in all_roots(Poly(coeffs)) for _ in range(m)]
            theirs = list(np.roots(list(reversed(coeffs))))
            assert len(mine) == len(theirs)
            for r in mine:
                nearest = min(range(len(theirs)), key=lambda i: abs(theirs[i] - r))
                assert abs(theirs[nearest] - r) < 1e-7
                theirs.pop(nearest)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_multiset_match(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            ok, detail = match_root_multisets(
                closed_eigenvalues(ctx, p), all_roots(closed_form_charpoly(ctx, p))
            )
            assert ok, (n, p, detail)


class TestCorollary32:
    @pytest.mark.parametrize("n", [2, 4, 10, 20])
    def test_identity_holds(self, n):
        assert corollary_32_check(make_context(n))

    def test_spot_values(self):
        ctx = make_context(4)
        lam = tau1_eigenvalue(ctx, 3)
        assert abs((lam**7 - 2) / 2 - 1) <= 1e-9
        assert (0j**7 - 2) / 2 == -1


class TestGalkin:
    def test_frozen_margins(self):
        assert galkin_margin(2) == pytest.approx(0.7622031559045981, abs=1e-12)
        assert galkin_margin(3) == pytest.approx(0.5975395538644709, abs=1e-12)

    def test_margins_decrease_and_stay_positive(self):
        margins = [galkin_margin(n) for n in range(2, 60)]
        assert all(x > y for x, y in zip(margins, margins[1:]))
        assert all(m > 0 for m in margins)

    def test_check_with_crosscheck(self):
        result = galkin_check(make_context(2))
        assert result.passed
        assert result.fpdim_c1 == pytest.approx(3 * CBRT4, abs=1e-12)
        assert result.cross_residual is not None and result.cross_residual <= 1e-8

    def test_large_n_skips_crosscheck(self):
        result = galkin_check(make_context(50))
        assert result.passed
        assert result.cross_residual is None


class TestSpectrumReport:
    def test_point_class_report(self):
        report = spectrum_report(make_context(2), 3)
        assert report.fp_dim == 1.0
        assert not report.simple
        assert report.residual_diag is None

    def test_simple_iff_gcd_one(self):
        ctx = make_context(5)
        assert spectrum_report(ctx, 4).simple
        assert not spectrum_report(ctx, 3).simple


def reference_durand_kerner(coeffs, max_iter=DK_MAX_ITER):
    """The plain Python loop that durand_kerner must reproduce bit for bit."""
    coeffs = [complex(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg == 1:
        return [-coeffs[0]]
    radius = _initial_radius(coeffs)
    pts = [radius * cmath.exp(1j * (2 * cmath.pi * k / deg + 0.4)) for k in range(deg)]
    delta = float("inf")
    for _ in range(max_iter):
        new_pts = []
        delta = 0.0
        for i, x in enumerate(pts):
            val = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                val = val * x + c
            den = 1 + 0j
            for jj, y in enumerate(pts):
                if jj != i:
                    den *= x - y
            step = val / den
            new_pts.append(x - step)
            delta = max(delta, abs(step))
        pts = new_pts
        if delta < DK_TOL:
            return pts
    raise RootFindingError(
        f"root iteration did not converge within {max_iter} sweeps (last update {delta:.3e})"
    )


def _outcome(finder, coeffs, **kw):
    """The bits of every root, or the error message when the iteration gives up."""
    try:
        return [(r.real.hex(), r.imag.hex()) for r in finder(coeffs, **kw)]
    except RootFindingError as exc:
        return str(exc)


def _nonlinear_factors(f):
    _, g = f.strip_zero_roots()
    if g.degree == 0:
        return []
    return [[complex(c) for c in h.coeffs] for h, _ in squarefree_decomposition(g) if h.degree > 1]


@st.composite
def monic_with_zero_runs(draw):
    """Ascending coefficients of a monic polynomial of degree 2..10, built from runs of zeros."""
    deg = draw(st.integers(2, 10))
    coeffs = []
    while len(coeffs) < deg:
        coeffs += [0] * draw(st.integers(0, 5))
        coeffs.append(draw(st.fractions(-9, 9, max_denominator=4).filter(bool)))
    return [complex(c) for c in coeffs[:deg]] + [1 + 0j]


class TestDurandKernerBitIdentity:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_closed_form_factors(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            for coeffs in _nonlinear_factors(closed_form_charpoly(ctx, p)):
                assert _outcome(durand_kerner, coeffs) == _outcome(reference_durand_kerner, coeffs)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_galkin_polynomials(self, n):
        f = charpoly_faddeev(build_a1(make_context(n)).scale(2 * n - 1))
        factors = _nonlinear_factors(f)
        assert factors
        for coeffs in factors:
            assert _outcome(durand_kerner, coeffs) == _outcome(reference_durand_kerner, coeffs)

    @settings(max_examples=300, deadline=None)
    @given(coeffs=monic_with_zero_runs())
    def test_random_polynomials_with_zero_runs(self, coeffs):
        assert _outcome(durand_kerner, coeffs, max_iter=80) == _outcome(
            reference_durand_kerner, coeffs, max_iter=80
        )

    def test_nonconvergence_message_matches(self):
        coeffs = [complex(-4), 0j, 0j, complex(1)]
        assert _outcome(durand_kerner, coeffs, max_iter=1) == _outcome(
            reference_durand_kerner, coeffs, max_iter=1
        )
