"""Characteristic polynomials: trace recursion, cofactor oracle, closed forms."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from oddquadric import (
    Matrix,
    Poly,
    all_roots_simple,
    build_a1,
    build_ap,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_form_charpoly,
    make_context,
    nonzero_part_is_squarefree,
)

SRC = Path(__file__).resolve().parent.parent / "src"

LAM4_MINUS_4LAM = Poly([0, -4, 0, 0, 1])


class TestFaddeev:
    def test_degree_one_operator_n2(self):
        assert charpoly_faddeev(build_a1(make_context(2))) == LAM4_MINUS_4LAM

    def test_identity_n2(self):
        expected = Poly([1, -4, 6, -4, 1])  # (lam-1)^4 expanded
        assert charpoly_faddeev(build_ap(make_context(2), 0)) == expected

    def test_point_class_n2(self):
        expected = Poly([-1, 2, 0, -2, 1])  # (lam-1)^3 (lam+1) expanded
        assert charpoly_faddeev(build_ap(make_context(2), 3)) == expected

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(2)]])
        assert charpoly_faddeev(m) == Poly([1, Fraction(-5, 2), 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_monic_degree(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            f = charpoly_faddeev(build_ap(ctx, p))
            assert f.is_monic and f.degree == 2 * n


class TestCofactor:
    def test_base_case_1x1(self):
        assert charpoly_cofactor(Matrix([[Fraction(5, 2)]])) == Poly([Fraction(-5, 2), 1])

    def test_degree_one_operator_n2(self):
        assert charpoly_cofactor(build_a1(make_context(2))) == LAM4_MINUS_4LAM

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            charpoly_cofactor(Matrix.identity(11))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_faddeev_on_operators(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            op = build_ap(ctx, p)
            assert charpoly_cofactor(op) == charpoly_faddeev(op)

    def test_agrees_with_faddeev_on_random_matrices(self):
        rng = random.Random(20260810)
        for size in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
                    for _ in range(size)
                ]
                m = Matrix(rows)
                assert charpoly_cofactor(m) == charpoly_faddeev(m)


class TestClosedForm:
    def test_first_case_n2_p1(self):
        assert closed_form_charpoly(make_context(2), 1) == LAM4_MINUS_4LAM

    def test_second_case_n3_p3(self):
        # d = gcd(3, 5) = 1, exponent 2*3-5 = 1: lam(lam^5 - 2).
        assert closed_form_charpoly(make_context(3), 3) == Poly([0, -2, 0, 0, 0, 0, 1])

    def test_repeated_factor_n5_p3(self):
        # d = 3: lam(lam^3 - 4)^3 expanded.
        expected = Poly([0, -64, 0, 0, 48, 0, 0, -12, 0, 0, 1])
        assert closed_form_charpoly(make_context(5), 3) == expected

    def test_point_class_case(self):
        assert closed_form_charpoly(make_context(2), 3) == Poly([-1, 2, 0, -2, 1])

    def test_p0_rejected(self):
        with pytest.raises(ValueError):
            closed_form_charpoly(make_context(2), 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_integral_monic_degree(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            f = closed_form_charpoly(ctx, p)
            assert f.is_monic and f.degree == 2 * n
            assert all(c.denominator == 1 for c in f.coeffs)


class TestClosedFormAgreementSmoke:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_computed_equals_closed_form(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p)


class TestLargeN:
    def test_computed_equals_closed_form_at_n48(self):
        # 95 = 5 * 19 = 2n - 1, so p = 5 and p = 19 have d > 1.
        ctx = make_context(48)
        for p in (1, 5, 19, 47, 48, 94, 95):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p), p


INVARIANT_SCRIPT = """
import sys
from fractions import Fraction

from oddquadric import Matrix, Operator, Poly, QuadricContext, charpoly, make_context, spectra


class SkewedContext(QuadricContext):
    def d(self, p):
        return 2  # divides no 2n-1, so the multiplicities cannot add up


# Corrupt the trace recursion and the closed form; the guards must catch both.
charpoly._combine_rows = lambda pairs, rows, n: [1] * n
charpoly.X = Poly([0, 2])

cases = [
    ("half-integers", ValueError, lambda: Operator(make_context(2), 1, [[Fraction(1, 3)] * 4] * 4)),
    ("integrality", ArithmeticError, lambda: charpoly.charpoly_faddeev(Matrix.identity(3))),
    ("cayley-hamilton", ArithmeticError, lambda: charpoly.charpoly_faddeev(Matrix.identity(2))),
    ("monic", ArithmeticError, lambda: charpoly.closed_form_charpoly(make_context(2), 1)),
    ("multiplicities", ArithmeticError, lambda: spectra.closed_eigenvalues(SkewedContext(3), 1)),
]
fired = []
for name, exc, call in cases:
    try:
        call()
    except exc:
        fired.append(name)
print(sys.flags.optimize, *fired)
"""


def test_invariants_raise_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_SCRIPT], capture_output=True, env=env, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "1", "half-integers", "integrality", "cayley-hamilton", "monic", "multiplicities"
    ]


class TestSquarefree:
    def test_examples(self):
        assert nonzero_part_is_squarefree(LAM4_MINUS_4LAM)
        assert not nonzero_part_is_squarefree(closed_form_charpoly(make_context(5), 3))
        assert not nonzero_part_is_squarefree(Poly([1, -2, 1]))  # (lam-1)^2
        with pytest.raises(ValueError):
            nonzero_part_is_squarefree(Poly([0]))

    def test_pure_power_of_lambda(self):
        assert nonzero_part_is_squarefree(Poly([0, 0, 1]))
        assert not all_roots_simple(Poly([0, 0, 1]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_simplicity_matches_gcd(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n - 1):
            f = closed_form_charpoly(ctx, p)
            assert all_roots_simple(f) == (gcd(p, 2 * n - 1) == 1)
        assert not all_roots_simple(closed_form_charpoly(ctx, 2 * n - 1))
