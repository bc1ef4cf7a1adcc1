"""Characteristic polynomials: trace recursion, cofactor oracle, closed forms."""

import cmath
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefficient_lists import mul
from oddquadric import (
    EigenPair,
    Matrix,
    Poly,
    all_roots_simple,
    build_a1,
    build_ap,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_eigenvalues,
    closed_form_charpoly,
    make_context,
    squarefree_decomposition,
)
from oddquadric.charpoly import closed_form_factors

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
        # operators are integer matrices, so a rational one is refused; six
        # times it is an integer matrix, and its polynomial is rescaled
        with pytest.raises(ValueError):
            Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(2)]])
        assert charpoly_faddeev(Matrix([[3, 2], [0, 12]])) == Poly([36, -15, 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_monic_degree(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            f = charpoly_faddeev(build_ap(ctx, p))
            assert f.is_monic and f.degree == 2 * n


class TestCofactor:
    def test_base_case_1x1(self):
        assert charpoly_cofactor(Matrix([[5]])) == Poly([-5, 1])

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
                m = Matrix([[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)])
                assert charpoly_cofactor(m) == charpoly_faddeev(m)

    def test_dense_matrix_at_the_dimension_limit(self):
        # Every entry nonzero, so no minor is skipped: N! = 3,628,800 expansion
        # paths, 2^N = 1024 distinct minors.
        rng = random.Random(20261019)
        m = Matrix([[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(10)] for _ in range(10)])
        t0 = time.perf_counter()
        f = charpoly_cofactor(m)
        elapsed = time.perf_counter() - t0
        assert f == charpoly_faddeev(m)
        assert elapsed < 5, f"dense 10 x 10 cofactor expansion took {elapsed:.2f} s"


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

    def test_bool_rejected_after_p_1(self):
        # True == 1, yet the index check refuses a bool, on every call.
        ctx = make_context(2)
        closed_form_charpoly(ctx, 1)
        with pytest.raises(ValueError):
            closed_form_charpoly(ctx, True)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_integral_monic_degree(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            f = closed_form_charpoly(ctx, p)
            assert f.is_monic and f.degree == 2 * n
            assert all(c.denominator == 1 for c in f.coeffs)


def reference_closed_form_charpoly(ctx, p):
    """The paper's closed form with each case expanded on its own, apart from
    closed_form_factors: the reference for the table and its expansion."""
    n = ctx.n
    if p == 2 * n - 1:
        # (lam - 1)^(2n-1) * (lam + 1) = (lam - 1)^(2n-1) + lam * (lam - 1)^(2n-1)
        a = [comb(p, k) * (-1) ** (p - k) for k in range(p + 1)]
        return Poly([x + y for x, y in zip(a + [0], [0] + a)])
    d = gcd(p, 2 * n - 1)
    m = (2 * n - 1) // d
    e = 2 * p // d if p < n else (2 * p - (2 * n - 1)) // d
    # lam * (lam^m - 2^e)^d = sum over i of comb(d, i) * (-2^e)^(d-i) * lam^(m*i + 1)
    num = [0] * (m * d + 2)
    for i in range(d + 1):
        num[m * i + 1] = comb(d, i) * (-(2**e)) ** (d - i)
    return Poly(num)


def reference_closed_eigenvalues(ctx, p):
    """The paper's eigenvalues with each case listed on its own, and the
    Frobenius-Perron dimension in its own float expression: the reference."""
    n, dim = ctx.n, ctx.dim
    if p == dim:
        return [EigenPair(1 + 0j, dim), EigenPair(-1 + 0j, 1)]
    d = gcd(p, dim)
    m = dim // d
    r = 2 ** (2 * p / dim) if p < n else 2 ** (2 * p / dim - 1)
    return [EigenPair(0j, 1)] + [EigenPair(r * cmath.exp(2j * cmath.pi * k / m), d) for k in range(m)]


def eigenpair_bits(pairs):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(ep.value.real.hex(), ep.value.imag.hex(), ep.multiplicity) for ep in pairs]


class TestClosedFormFactors:
    @pytest.mark.parametrize("n", [*range(2, 65), 512])
    def test_equals_the_reference(self, n):
        ctx = make_context(n)
        # at n = 512, d = gcd(p, 1023) is 1, 341 and 341, and p = 1023 is the point class
        for p in (1, 341, 682, 1023) if n == 512 else range(1, 2 * n):
            assert closed_form_charpoly(ctx, p) == reference_closed_form_charpoly(ctx, p), p
            got = eigenpair_bits(closed_eigenvalues(ctx, p))
            assert got == eigenpair_bits(reference_closed_eigenvalues(ctx, p)), p

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 48])
    def test_table_contract(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            factors = closed_form_factors(ctx, p)
            assert sum(length * k for (length, _), k in factors.items()) == 2 * n
            assert next(iter(factors)) == ((1, 1) if p == 2 * n - 1 else (1, 0)), p
        for p in (0, 2 * n):
            with pytest.raises(ValueError):
                closed_form_factors(ctx, p)


class TestClosedFormAgreementSmoke:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_computed_equals_closed_form(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p)


def dense_faddeev(rows) -> Poly:
    """Faddeev-LeVerrier on plain lists of Fractions: the reference for the sparse kernel."""
    n = len(rows)
    c = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(row[t] * mk[t][j] for t in range(n)) for j in range(n)] for row in rows]
        c[n - k] = -sum(prod[i][i] for i in range(n)) / k
        mk = [[x + (c[n - k] if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(prod)]
    return Poly(c)


ENTRIES = st.one_of(st.integers(-6, 6), st.integers(-99, 99))


@st.composite
def sparse_test_matrices(draw):
    """Square matrices of size <= 7 whose Faddeev rows empty, cancel or fill up.

    A rank-one matrix u v^T has C*M_2 = 0, so every row cancels; a nilpotent
    shift N + c*I keeps the rows triangular; a selection matrix, one nonzero
    per row and mostly 1, makes several rows of C*M_k the same M_k row;
    otherwise each row is zero, dense or sparse.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rank_one", "nilpotent_shift", "selection", "rows"]))
    if kind == "selection":
        cols = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        vals = draw(st.lists(st.sampled_from([1, 1, -1, 2]), min_size=n, max_size=n))
        return Matrix([[vals[i] if j == cols[i] else 0 for j in range(n)] for i in range(n)])
    if kind == "rank_one":
        u, v = (draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(2))
        return Matrix([[a * b for b in v] for a in u])
    if kind == "nilpotent_shift":
        c = draw(ENTRIES)
        return Matrix([[c if i == j else draw(ENTRIES) if j > i else 0 for j in range(n)] for i in range(n)])
    rows = []
    for _ in range(n):
        row_kind = draw(st.sampled_from(["zero", "dense", "sparse"]))
        if row_kind == "zero":
            rows.append([0] * n)
        elif row_kind == "dense":
            rows.append(draw(st.lists(ENTRIES.filter(bool), min_size=n, max_size=n)))
        else:
            rows.append(draw(st.lists(st.one_of(st.just(0), ENTRIES), min_size=n, max_size=n)))
    return Matrix(rows)


MONOMIAL_ENTRIES = st.sampled_from([2, -2, 3, -4, 5, -3, 1, -1])


@st.composite
def monomial_test_matrices(draw):
    """Square matrices of size <= 8 whose rows mostly hold a single nonzero.

    Faddeev shares the row of M_k that a single-pair row of C selects, under
    a multiplier; the entries are mostly other than +-1, so the multipliers
    grow.  A permutation picks the column of every single-pair row, so such
    rows chain into cycles, which give nonzero traces and diagonal shifts;
    some rows are empty, and a few hold one or two nonzeros at random
    columns, so two rows of C can select the same row of M_k or be merged.
    """
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        row = [0] * n
        kind = draw(st.sampled_from(["single"] * 6 + ["empty", "two"]))
        if kind == "single":
            row[perm[i]] = draw(MONOMIAL_ENTRIES)
        elif kind == "two":
            for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
                row[j] = draw(MONOMIAL_ENTRIES)
        rows.append(row)
    return Matrix(rows)


class TestSparseRecursion:
    @settings(max_examples=100, deadline=None)
    @given(m=sparse_test_matrices())
    def test_agrees_with_cofactor_and_dense_reference(self, m):
        f = charpoly_faddeev(m)
        assert f == charpoly_cofactor(m)
        assert f == dense_faddeev(m.rows)

    @settings(max_examples=150, deadline=None)
    @given(m=monomial_test_matrices())
    def test_scaled_rows_agree_with_cofactor_and_dense_reference(self, m):
        f = charpoly_faddeev(m)
        assert f == charpoly_cofactor(m)
        assert f == dense_faddeev(m.rows)

    @pytest.mark.parametrize("n", [24, 32])
    def test_computed_equals_closed_form_for_every_p(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p), p


class TestLargeN:
    def test_computed_equals_closed_form_at_n48(self):
        # 95 = 5 * 19 = 2n - 1, so p = 5 and p = 19 have d > 1.
        ctx = make_context(48)
        for p in (1, 5, 19, 47, 48, 94, 95):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p), p


INVARIANT_SCRIPT = """
import math
import sys
import time
from fractions import Fraction

from oddquadric import Matrix, Poly, QuadricContext, charpoly, make_context, poly, ring, spectra


class SkewedContext(QuadricContext):
    def d(self, p):
        return 2  # divides no 2n-1, so the multiplicities cannot add up


# Corrupt the trace recursion, the closed form, the degree-one rule and the
# gcd; the guards must catch all four.  The product kernel returns all-ones
# rows under unit multipliers, and every binomial coefficient is doubled.  The
# halving is handed the identity, whose entries are odd.  The gcd returns
# 2x + 1, primitive but not monic, so no divisor of a monic polynomial.
charpoly._product_rows = lambda a, b, scale: ([dict.fromkeys(range(len(b)), 1) for _ in b], [1] * len(b))
charpoly.comb = lambda n, k: 2 * math.comb(n, k)
ring.chevalley_column = lambda ctx, p: ((p, Fraction(1, 3)),)
poly._gcd_ints = lambda a, b: [1, 2]

cases = [
    ("integrality", ArithmeticError, lambda: charpoly.charpoly_faddeev(Matrix.identity(3))),
    ("cayley-hamilton", ArithmeticError, lambda: charpoly.charpoly_faddeev(Matrix.identity(2))),
    ("monic", ArithmeticError, lambda: charpoly.closed_form_charpoly(make_context(2), 1)),
    ("multiplicities", ArithmeticError, lambda: spectra.closed_eigenvalues(SkewedContext(3), 1)),
    ("rule-integers", ValueError, lambda: ring.build_a1(make_context(2))),
    ("even-power", ArithmeticError, lambda: ring._halved(Matrix.identity(2), 1)),
    ("yun-monic", ArithmeticError, lambda: poly.squarefree_decomposition(Poly([-1, 0, 1]))),
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
        "1", "integrality", "cayley-hamilton", "monic", "multiplicities", "rule-integers",
        "even-power", "yun-monic",
    ]


class TestSquarefree:
    def test_examples(self):
        assert all_roots_simple(LAM4_MINUS_4LAM)
        assert not all_roots_simple(closed_form_charpoly(make_context(5), 3))
        assert not all_roots_simple(Poly([1, -2, 1]))  # (lam-1)^2
        assert all_roots_simple(Poly([3]))
        with pytest.raises(ValueError):
            all_roots_simple(Poly([0]))

    def test_pure_power_of_lambda(self):
        assert not all_roots_simple(Poly([0, 0, 1]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(1, 2)),
            max_size=4,
        ),
    )
    def test_matches_yun_on_the_nonzero_part(self, k, factors):
        # f = lam^k * prod h^e for monic h; the factors may vanish at 0 too.
        f = Poly(mul([0] * k + [1], *(lower + [1] for lower, e in factors for _ in range(e))))
        k, g = f.strip_zero_roots()
        yun_simple = g.degree == 0 or all(i == 1 for _, i in squarefree_decomposition(g))
        assert all_roots_simple(f) == (k <= 1 and yun_simple)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_simplicity_matches_gcd(self, n):
        ctx = make_context(n)
        for p in range(1, 2 * n - 1):
            f = closed_form_charpoly(ctx, p)
            assert all_roots_simple(f) == (gcd(p, 2 * n - 1) == 1)
        assert not all_roots_simple(closed_form_charpoly(ctx, 2 * n - 1))
