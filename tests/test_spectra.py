"""Closed-form eigendata, root finding, diagonalization, and the lower bound."""

import cmath
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coefficient_lists import mul
from oddquadric import (
    Poly,
    RootFindingError,
    build_a1,
    build_ap,
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
from oddquadric import spectra
from oddquadric.serialize import spectrum_json
from oddquadric.spectra import (
    DK_TOL,
    _eigen_selectors,
    _eigenvector_matrix,
    _horner_runs,
    _initial_radius,
    _roots_batch,
    durand_kerner_batch,
    located_radius,
    operator_as_array,
)
from oddquadric.verifier import run_check_cell

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


@pytest.mark.parametrize("p", [True, 1.5, 2.0], ids=repr)
@pytest.mark.parametrize(
    "call",
    [fp_dim, closed_eigenvalues, lambda ctx, p: operator_eigenvalue(ctx, p, 1), spectrum_report],
    ids=["fp_dim", "closed_eigenvalues", "operator_eigenvalue", "spectrum_report"],
)
def test_a_degree_that_is_not_an_int_is_refused(call, p):
    with pytest.raises(ValueError):
        call(make_context(3), p)


@pytest.mark.parametrize("j", [True, 1.5, 2.0, "one"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [tau1_eigenvalue, eigenvector, lambda ctx, j: operator_eigenvalue(ctx, 2, j)],
    ids=["tau1_eigenvalue", "eigenvector", "operator_eigenvalue"],
)
def test_an_eigenvector_selector_that_is_not_an_int_or_zero_is_refused(call, j):
    with pytest.raises(ValueError):
        call(make_context(3), j)


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


class TestFloatPathReference:
    """The float arrays built from the integer form equal the dense-view ones bit for bit."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_operator_array_matches_the_fraction_view(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            got = operator_as_array(ctx, p)
            want = np.array([[float(v) for v in row] for row in build_ap(ctx, p).rows])
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 17))
    def test_cached_eigenvectors_match_a_fresh_build(self, n):
        ctx = make_context(n)
        e = _eigenvector_matrix(ctx)
        assert _eigenvector_matrix(make_context(n)) is e
        assert e.shape == (2 * n, 2 * n) and e.flags.c_contiguous
        assert not e.flags.writeable
        for j, v in zip(_eigen_selectors(ctx), e):
            want = np.array(eigenvector(ctx, j))
            assert v.dtype == want.dtype and v.shape == want.shape
            assert v.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 33))
    def test_operator_entries_are_one_or_two(self, n):
        """Every nonzero of every A_p is 1 or 2, at most two per row and per
        column: the premise that makes each entry of simultaneous_diag's
        product e @ a.T one rounding, whatever the summation order."""
        ctx = make_context(n)
        for p in range(2 * n):
            a = operator_as_array(ctx, p)
            nonzero = a != 0
            assert set(np.unique(a[nonzero])) <= {1.0, 2.0}, p
            assert nonzero.sum(axis=1).max() <= 2 and nonzero.sum(axis=0).max() <= 2, p


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

    def test_nonconvergence_is_loud(self, monkeypatch):
        monkeypatch.setattr(spectra, "DK_MAX_ITER", 1)
        with pytest.raises(RootFindingError):
            batch_of_one([complex(-4), 0j, 0j, complex(1)])

    @pytest.mark.parametrize("e", range(6, 17))
    def test_large_roots_converge(self, e):
        """x^3 - 7*10^e: the ulp of its roots passes DK_TOL from e = 11 on,
        where a purely absolute stopping test can oscillate forever."""
        c = 7 * 10**e
        roots = all_roots(Poly([-c, 0, 0, 1]))
        assert [m for _, m in roots] == [1, 1, 1]
        assert all(abs(r**3 - c) / c <= 1e-15 for r, _ in roots)

    @pytest.mark.parametrize(
        "coeffs", [[1e300] + [0] * 29 + [1], [1e308, 1e308, 1]], ids=["deg30", "deg2"]
    )
    def test_overflow_is_loud(self, coeffs):
        with pytest.raises(RootFindingError, match="not finite"):
            all_roots(Poly(coeffs))

    @pytest.mark.parametrize(
        "f",
        [
            Poly([-(10**400), 0, 1]),
            Poly([-(10**400), 1]),
            Poly(mul([0, 1], [-(10**309), 1], [-(10**309), 1])),
            Poly([3 * 10**221, 2 * 10**308, 3 * 10**257, 1]),
        ],
        ids=["x2_minus_1e400", "x_minus_1e400", "repeated_1e309", "cubic_2e308"],
    )
    def test_coefficient_outside_the_double_range_is_loud(self, f):
        """A factor no double can hold fails with its own cause, although the
        roots of x^2 - 10^400 would be doubles."""
        with pytest.raises(RootFindingError, match="outside the double range"):
            all_roots(f)

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

    @pytest.mark.parametrize("n", [1, 0, -2, 1.5, 2.0, True], ids=repr)
    def test_an_n_that_make_context_refuses_is_refused(self, n):
        with pytest.raises(ValueError):
            make_context(n)
        with pytest.raises(ValueError):
            galkin_margin(n)

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

    def test_exact_certificate(self):
        """The bound m * 4^(1/m) >= m + 1 = 2n holds for every n, with m = 2n - 1.

        Raised to the m-th power it reads 4 * m^m >= (m + 1)^m, which holds
        strictly because (1 + 1/m)^m < e < 4; checked here in integers.  For
        the margin, e^x >= 1 + x at x = ln(4)/m gives 4^(1/m) >= 1 + ln(4)/m,
        so m * 4^(1/m) - (m + 1) >= ln 4 - 1 > 0.38 for every n; the float
        margin is checked against that floor.
        """
        assert all(4 * m**m > (m + 1) ** m for m in range(1, 2002, 2))
        floor = math.log(4) - 1
        assert all(galkin_margin(n) > floor for n in range(2, 10**4 + 1))


class TestSpectrumReport:
    def test_point_class_report(self):
        report = spectrum_report(make_context(2), 3)
        assert report.fp_dim == 1.0
        assert not report.simple
        assert spectrum_json(report)["residual_diag"] is None

    def test_simple_iff_gcd_one(self):
        ctx = make_context(5)
        assert spectrum_report(ctx, 4).simple
        assert not spectrum_report(ctx, 3).simple


def batch_of_one(coeffs):
    """durand_kerner_batch on one polynomial: its roots, or its RootFindingError raised."""
    (roots,) = durand_kerner_batch([coeffs], _horner_runs(coeffs))
    if isinstance(roots, RootFindingError):
        raise roots
    return roots


def reference_durand_kerner(coeffs):
    """The plain Python loop that durand_kerner_batch must reproduce bit for bit."""
    coeffs = [complex(c) for c in coeffs]
    deg = len(coeffs) - 1
    radius = _initial_radius(coeffs)
    tol = max(DK_TOL, 4 * math.ulp(radius))
    max_iter = spectra.DK_MAX_ITER
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
        if delta < tol:
            return pts
    raise RootFindingError(
        f"root iteration did not converge within {max_iter} sweeps (last update {delta:.3e})"
    )


def _outcome(finder, coeffs):
    """The bits of every root, or the error message when the iteration gives up."""
    try:
        return [(r.real.hex(), r.imag.hex()) for r in finder(coeffs)]
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


def _batch_outcomes(polys):
    """_outcome of each polynomial, from one durand_kerner_batch over all of them."""
    return [
        str(r) if isinstance(r, RootFindingError) else [(z.real.hex(), z.imag.hex()) for z in r]
        for r in durand_kerner_batch(polys, _horner_runs(polys[0]))
    ]


class TestDurandKernerBitIdentity:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_closed_form_factors(self, n, monkeypatch):
        """Each factor alone and in one batch per shape, as verify's
        fpdim_consistency finds them, against the plain loop; as the parts
        run, with every part on the numpy path, and with every part on the
        Python-quotient path, where a batch's live set shrinks as its
        polynomials converge."""
        ctx = make_context(n)
        shapes = {}
        for p in range(1, 2 * n):
            for coeffs in _nonlinear_factors(closed_form_charpoly(ctx, p)):
                shapes.setdefault(_horner_runs(coeffs), []).append(
                    (coeffs, _outcome(reference_durand_kerner, coeffs))
                )
        for points in (spectra.DK_NUMPY_POINTS, 1, math.inf):
            monkeypatch.setattr(spectra, "DK_NUMPY_POINTS", points)
            for batch in shapes.values():
                assert [_outcome(batch_of_one, c) for c, _ in batch] == [want for _, want in batch]
                assert _batch_outcomes([c for c, _ in batch]) == [want for _, want in batch]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_galkin_polynomials(self, n):
        f = charpoly_faddeev(build_a1(make_context(n)).scale(2 * n - 1))
        factors = _nonlinear_factors(f)
        assert factors
        for coeffs in factors:
            assert _outcome(batch_of_one, coeffs) == _outcome(reference_durand_kerner, coeffs)

    @settings(max_examples=300, deadline=None)
    @given(coeffs=monic_with_zero_runs())
    def test_random_polynomials_with_zero_runs(self, coeffs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "DK_MAX_ITER", 80)
            assert _outcome(batch_of_one, coeffs) == _outcome(reference_durand_kerner, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batches_of_one_shape(self, data):
        """2-6 polynomials with one zero pattern, among them one that hits
        DK_MAX_ITER and one that overflows: each outcome is the one it has
        alone, and, short of the overflow, the plain loop's."""
        pattern = data.draw(monic_with_zero_runs())
        nonzero = st.fractions(-9, 9, max_denominator=4).filter(bool)

        def on_pattern():
            """Random coefficients on the pattern."""
            return [complex(data.draw(nonzero)) if c else 0j for c in pattern[:-1]] + [1 + 0j]

        # A sweep limit below what `stalls` needs; coefficients of 10^308
        # overflow the first sweep.
        stalls = on_pattern()
        overflows = [1e308 if c else 0j for c in pattern[:-1]] + [1 + 0j]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "DK_MAX_ITER", data.draw(st.integers(1, 80)))
            assume("did not converge" in str(_outcome(batch_of_one, stalls)))
            assume("overflowed" in str(_outcome(batch_of_one, overflows)))
            polys = [on_pattern() for _ in range(data.draw(st.integers(0, 4)))]
            for extra in (stalls, overflows):
                polys.insert(data.draw(st.integers(0, len(polys))), extra)
            alone = [_outcome(batch_of_one, c) for c in polys]
            for coeffs, outcome in zip(polys, alone):
                if coeffs is not overflows:  # the plain loop has no overflow test
                    assert outcome == _outcome(reference_durand_kerner, coeffs)
            assert _batch_outcomes(polys) == alone
            # Every part on the numpy path, the batch and each polynomial alone.
            mp.setattr(spectra, "DK_NUMPY_POINTS", 1)
            assert _batch_outcomes(polys) == alone
            assert [_outcome(batch_of_one, c) for c in polys] == alone

    @pytest.mark.parametrize("below", [1, 0], ids=["lists", "numpy"])
    def test_parts_at_the_numpy_threshold(self, below, monkeypatch):
        """A part of DK_NUMPY_POINTS - 1 points divides in Python and one of
        DK_NUMPY_POINTS points with _complex_quotient; both match the plain loop."""
        points = spectra.DK_NUMPY_POINTS - below
        deg = min(d for d in range(2, points + 1) if points % d == 0)
        rng = np.random.default_rng(points)
        polys = [
            [complex(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], deg)] + [1 + 0j]
            for _ in range(points // deg)
        ]
        real, quotients = spectra._complex_quotient, []

        def counted(a, b):
            quotients.append(len(a))
            return real(a, b)

        monkeypatch.setattr(spectra, "_complex_quotient", counted)
        got = _batch_outcomes(polys)
        assert bool(quotients) == (not below) and max(quotients, default=points) == points
        assert got == [_outcome(reference_durand_kerner, c) for c in polys]

    def test_nonconvergence_message_matches(self, monkeypatch):
        monkeypatch.setattr(spectra, "DK_MAX_ITER", 1)
        coeffs = [complex(-4), 0j, 0j, complex(1)]
        assert _outcome(batch_of_one, coeffs) == _outcome(reference_durand_kerner, coeffs)


def reference_all_roots(f):
    """all_roots one factor at a time: x^k stripped, Yun's decomposition,
    linear factors read exactly and each nonlinear factor found alone."""
    k, g = f.strip_zero_roots()
    roots = [(0j, k)] if k else []
    for factor, mult in squarefree_decomposition(g) if g.degree > 0 else ():
        if factor.degree == 1:
            roots.append((complex(-factor.coeffs[0]), mult))
        else:
            roots += [(r, mult) for r in batch_of_one([complex(c) for c in factor.coeffs])]
    return roots


def _roots_bits(roots):
    """The bits of every (root, multiplicity), or the error message."""
    if isinstance(roots, RootFindingError):
        return str(roots)
    return [(r.real.hex(), r.imag.hex(), m) for r, m in roots]


def _alone(finder, f):
    """_roots_bits of finder(f), or the message of the error it raises."""
    try:
        return _roots_bits(finder(f))
    except RootFindingError as exc:
        return str(exc)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every (polys, runs) that _roots_batch hands to durand_kerner_batch."""
    real, calls = spectra.durand_kerner_batch, []

    def spy(polys, runs):
        calls.append((polys, runs))
        return real(polys, runs)

    monkeypatch.setattr(spectra, "durand_kerner_batch", spy)
    return calls


def assert_kernel_precondition(calls):
    """Each call is complex coefficient lists of one degree >= 2, each exactly
    monic and of the shape the call names: what durand_kerner_batch no longer checks."""
    assert calls
    for polys, runs in calls:
        assert polys and len({len(c) for c in polys}) == 1 and len(polys[0]) >= 3
        for coeffs in polys:
            assert all(type(c) is complex for c in coeffs)
            assert repr(coeffs[-1]) == "(1+0j)"
            assert _horner_runs(coeffs) == runs


SRC = Path(__file__).resolve().parent.parent / "src"

# Minor page faults of one _roots_batch over the 23 closed forms of n = 12,
# after a first run, with M_MMAP_THRESHOLD (-3) set to 128 KiB: a set
# threshold stops glibc from raising it when a mapped block is freed.
FAULTS = """
import ctypes, resource
if ctypes.CDLL(None).mallopt(-3, 128 * 1024) != 1:
    raise OSError("mallopt refused M_MMAP_THRESHOLD")
from oddquadric import closed_form_charpoly, make_context
from oddquadric.spectra import _roots_batch
ctx = make_context(12)
polys = [closed_form_charpoly(ctx, p) for p in range(1, ctx.dim + 1)]
_roots_batch(polys)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_roots_batch(polys)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestRootsBatch:
    def test_a_mixed_batch_gives_each_polynomial_its_own_roots(self, monkeypatch, kernel_calls):
        """Zero roots, linear and repeated factors, two shapes of nonlinear
        factor, an overflowing polynomial and one that needs more sweeps than
        DK_MAX_ITER in one batch: each polynomial gets the roots, or the
        error, that all_roots gives it alone, and that its factors give one
        at a time."""
        x = [0, 1]

        def cubic(c):  # x^3 - c: one shape for every c != 0
            return [-c, 0, 0, 1]

        def quadratic(b, c):  # x^2 + bx + c: the other shape, for b, c != 0
            return [c, b, 1]

        # Roots 10^6 +- 1 take 27 sweeps, every other factor here at most 9.
        close = quadratic(-2 * 10**6, 10**12 - 1)
        assert not isinstance(_roots_batch([Poly(close)])[0], RootFindingError)
        monkeypatch.setattr(spectra, "DK_MAX_ITER", 20)

        factor_lists = [
            [x, x, cubic(4)],
            [[-2, 1], [-2, 1], cubic(2)],
            [cubic(3), cubic(3), [1, 1], [1, 1], [1, 1]],
            [x, quadratic(1, 1)],
            [quadratic(2, 3), quadratic(2, 3)],
            [[-1, 1], [-1, 1], cubic(-(10**308))],
            # Two failing factors: x^3 + 10^308 overflows and, second in Yun
            # order, `close` stalls; the first error is the one reported.
            [cubic(-(10**308)), close, close],
        ]
        polys = [Poly(mul(*factors)) for factors in factor_lists]
        got = [_roots_bits(roots) for roots in _roots_batch(polys)]
        assert got == [_alone(all_roots, f) for f in polys]
        assert got == [_alone(reference_all_roots, f) for f in polys]
        assert got[5] == got[6] == "root iteration overflowed: an update is not finite"
        assert "did not converge" in _alone(all_roots, Poly(close))
        assert [m for *_, m in got[2]] == [2, 2, 2, 3]
        assert_kernel_precondition(kernel_calls)

    def test_an_out_of_range_coefficient_fails_only_its_polynomial(self):
        good, bad = Poly([-4, 0, 0, 1]), Poly([-(10**400), 0, 1])
        got = [_roots_bits(roots) for roots in _roots_batch([good, bad])]
        assert got[0] == _alone(all_roots, good) == _alone(reference_all_roots, good)
        assert got[1] == "a coefficient of a squarefree factor is outside the double range"

    def test_a_batch_validates_every_polynomial(self):
        with pytest.raises(ValueError, match="monic"):
            _roots_batch([Poly([-4, 0, 1]), Poly([1, 2])])
        with pytest.raises(ValueError, match="nonconstant"):
            _roots_batch([Poly([-4, 0, 1]), Poly([3])])

    @pytest.mark.parametrize("points", [math.inf, 1], ids=["small", "large"])
    def test_every_root_is_a_plain_complex(self, points, monkeypatch):
        """Not a numpy scalar, which has the same .real.hex(): every part
        small, then every part large."""
        monkeypatch.setattr(spectra, "DK_NUMPY_POINTS", points)
        ctx = make_context(6)
        polys = [closed_form_charpoly(ctx, p) for p in range(1, ctx.dim + 1)]
        found = _roots_batch(polys) + [all_roots(f) for f in polys]
        assert all(type(r) is complex for roots in found for r, _ in roots)

    # The count depends on when numpy's ufuncs take buffers and on how CPython
    # and glibc allocate, so the bound holds only where it was measured.
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11) or np.__version__.split(".")[:2] != ["2", "4"],
        reason="fault counts measured on CPython 3.11 with numpy 2.4 only",
    )
    def test_a_large_part_maps_no_array_per_sweep(self):
        """With malloc's mmap threshold fixed at 128 KiB, a block that large
        taken anew each sweep is mapped, faulted in and unmapped every time:
        x^23 - c takes 101 sweeps at n = 12, where a gather of 506 x 22
        complex values is 178 KB, and a ufunc over operands that are not all
        contiguous takes buffers of 128 KiB each.  Both at once read about
        6,300 faults, and neither about 230."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", FAULTS], capture_output=True, env=env, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2000

    @pytest.mark.parametrize("n", range(2, 17))
    def test_located_radius_is_max_root_modulus_bit_for_bit(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert located_radius(ctx, p) == max_root_modulus(closed_form_charpoly(ctx, p))


class TestKernelPrecondition:
    """_roots_batch meets durand_kerner_batch's precondition on the paths verify and the benchmark take."""

    def test_closed_forms(self, kernel_calls):
        for n in range(2, 21):
            ctx = make_context(n)
            for p in range(1, 2 * n):
                all_roots(closed_form_charpoly(ctx, p))
        assert_kernel_precondition(kernel_calls)

    @pytest.mark.parametrize("check", ["fpdim_consistency", "galkin"])
    def test_verify_cells(self, check, kernel_calls):
        spectra._closed_form_radii.cache_clear()  # located radii built before the spy
        for n in range(2, 13):
            assert all(r.status == "pass" for r in run_check_cell(check, n))
        assert_kernel_precondition(kernel_calls)


def _random_complex(rng, size):
    """Complex values with both parts nonzero and magnitudes over six decades."""
    scale = 10.0 ** rng.uniform(-3, 3, size=(2,) + size)
    return rng.standard_normal(size) * scale[0] + 1j * rng.standard_normal(size) * scale[1]


class TestNumpyRoundingContract:
    """The numpy operations durand_kerner_batch relies on round like CPython.

    A numpy build or CPU that breaks any of them fails here by name, before the
    reference comparisons below show only that some root bits moved.
    """

    @pytest.mark.parametrize("first", ["one", "two ones", "value"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (63, 64), (127, 2), (20, 128)])
    def test_multiply_reduce_matches_python_products(self, shape, first):
        rng = np.random.default_rng([sum(shape), len(first)])
        w = _random_complex(rng, shape)
        if first == "one":
            w[:, 0] = 1
        if first == "two ones":  # a batch's padded rows
            w[:, :2] = 1
        assert w.flags.c_contiguous
        got = np.multiply.reduce(w, axis=1)
        want = np.array([math.prod(row[1:], start=row[0]) for row in w.tolist()])
        assert got.tobytes() == want.tobytes(), (
            "np.multiply.reduce along a row does not round like CPython's complex *"
        )

    @pytest.mark.parametrize("size", [2, 5, 64, 127])
    def test_subtract_matches_python_differences(self, size):
        rng = np.random.default_rng(size)
        x = _random_complex(rng, (size,))
        got = np.subtract(x[:, None], x[None, :])
        pts = x.tolist()
        want = np.array([[a - b for b in pts] for a in pts])
        assert got.tobytes() == want.tobytes(), (
            "numpy's complex subtraction does not round like CPython's complex -"
        )

    def test_array_minus_list_matches_python_differences(self):
        """The point update: a complex array minus the steps, as a list of
        Python complex and as the array they are written into, with zero
        parts of either sign, infinities and NaNs of either sign."""
        rng = np.random.default_rng(29)
        inf, nan = math.inf, math.nan
        parts = [0.0, -0.0, 1.5, -2.0, 5e-324, inf, -inf, nan, -nan]
        special = [complex(x, y) for x in parts for y in parts]
        x = np.concatenate([_random_complex(rng, (500,)), np.repeat(special, len(special))])
        steps = _random_complex(rng, (500,)).tolist() + special * len(special)
        want = np.array([a - b for a, b in zip(x.tolist(), steps)]).tobytes()
        buffer = np.empty(len(steps), complex)
        buffer[:] = steps
        with np.errstate(all="ignore"):
            assert (x - steps).tobytes() == want, (
                "a complex array minus a list of complex does not round like CPython's complex -"
            )
            assert (x - buffer).tobytes() == want, (
                "a complex array minus the steps written into an array does not round like CPython's complex -"
            )

    @staticmethod
    def _python_quotients(a, b):
        return np.array([x / y for x, y in zip(a.tolist(), b.tolist())])

    def test_quotient_matches_python_division(self):
        """_complex_quotient against CPython's complex / by bytes: random
        operands over six hundred decades, and divisors with |re| = |im|, zero
        parts of either sign, infinities, NaNs of either sign and subnormal
        parts."""
        rng = np.random.default_rng(27)
        wide = 10.0 ** rng.uniform(-300, 300, size=(4, 20000))
        a = rng.standard_normal(20000) * wide[0] + 1j * rng.standard_normal(20000) * wide[1]
        b = rng.standard_normal(20000) * wide[2] + 1j * rng.standard_normal(20000) * wide[3]
        inf, nan, tiny = math.inf, math.nan, 5e-324
        parts = [0.0, -0.0, 1.0, -1.0, 2.0, 3e-310, tiny, -tiny, inf, -inf, nan, -nan]
        divisors = [complex(x, y) for x in parts for y in parts if x or y or math.isnan(x + y)]
        numerators = [
            1 + 2j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-3, tiny), complex(1e300, -1e-300),
            complex(inf, 1), complex(-nan, 2), complex(1, nan),
        ]
        special_a = np.array([x for x in numerators for _ in divisors])
        special_b = np.array(divisors * len(numerators))
        a, b = np.concatenate([a, special_a]), np.concatenate([b, special_b])
        with np.errstate(all="ignore"):
            got = spectra._complex_quotient(a, b)
        assert got.tobytes() == self._python_quotients(a, b).tobytes(), (
            "_complex_quotient does not divide like CPython's complex /"
        )

    def test_quotient_keeps_the_sign_of_a_zero_in_the_second_branch(self):
        """(1+2j)/(1+2j) divides through by b.imag: a.imag * ratio - a.real is
        +0.0, where the negated form -(a.real - a.imag * ratio) is -0.0."""
        a = b = np.array([1 + 2j])
        got = spectra._complex_quotient(a, b)
        assert got.tobytes() == self._python_quotients(a, b).tobytes()
        assert math.copysign(1, got[0].imag) == 1

    def test_quotient_raises_on_a_zero_divisor(self):
        a = np.array([1 + 1j, 2 + 0j, 3 + 0j])
        b = np.array([1 + 0j, complex(-0.0, 0.0), complex("nan")])
        with pytest.raises(ZeroDivisionError) as python:
            (2 + 0j) / complex(-0.0, 0.0)
        with pytest.raises(ZeroDivisionError) as got, np.errstate(all="ignore"):
            spectra._complex_quotient(a, b)
        assert str(got.value) == str(python.value)

    def test_hypot_matches_python_abs(self):
        """Python's abs of a complex is hypot of its parts, as np.hypot computes it."""
        steps = _random_complex(np.random.default_rng(5), (4, 5000)).ravel()
        inf, nan = math.inf, math.nan
        steps = np.concatenate([steps, [complex(inf, nan), complex(nan, -inf), complex(nan, 1), 0j, 5e-324j]])
        got = np.hypot(steps.real, steps.imag)
        assert got.tobytes() == np.array([abs(z) for z in steps.tolist()]).tobytes(), (
            "np.hypot does not round like the hypot behind Python's complex abs"
        )

    def test_largest_moduli_as_python_max_of_abs(self):
        """Each row's max(map(abs, row)); a part that is not finite shows as a
        top that is not finite, and a finite step whose modulus overflows
        raises abs's own OverflowError."""
        steps = _random_complex(np.random.default_rng(6), (2000, 4))
        steps[1, 2] = complex(math.nan, 0)
        steps[2, 0] = complex(-math.inf, 1)
        tops = spectra._largest_moduli(steps.ravel(), 4)
        want = [max(map(abs, row)) for row in steps[3:].tolist()]
        assert np.array(tops[3:]).tobytes() == np.array(want).tobytes()
        assert [math.isfinite(t) for t in tops[:3]] == [True, False, False]
        steps[2, 3] = complex(1.5e308, 1.5e308)
        with pytest.raises(OverflowError) as python:
            abs(steps[2, 3].item())
        with pytest.raises(OverflowError) as got, np.errstate(all="ignore"):
            spectra._largest_moduli(steps.ravel(), 4)
        assert str(got.value) == str(python.value)


class TestDurandKernerBinomials:
    """x^m - 4 and x^m - 2 for every odd m up to 63, including the slow
    degrees 23, 39, 41, 53 and 55, match the plain loop bit for bit."""

    @pytest.mark.parametrize("c", [4, 2])
    @pytest.mark.parametrize("m", range(3, 64, 2))
    def test_binomial(self, m, c):
        coeffs = [complex(-c)] + [0j] * (m - 1) + [1 + 0j]
        assert _outcome(batch_of_one, coeffs) == _outcome(reference_durand_kerner, coeffs)
