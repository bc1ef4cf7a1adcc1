"""Ring construction: contexts, the degree-one product rule, operators, star products."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddquadric import (
    Matrix,
    basis_vector,
    build_a1,
    build_ap,
    chevalley_column,
    make_context,
    schubert_dim,
    star_multiply,
)

# Golden degree-one operator for n=2, entry for entry.
A1_N2 = (
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 2, 0, 0),
    (0, 0, 1, 0),
)

# n=3 matrix derived by hand from the product rule: subdiagonal ones with the
# doubled entry at (n, n-1) = (3, 2), the quantum wrap at column 2n-2 = 4
# hitting rows 0 and 5, and column 2n-1 = 5 mapping back to row 1.
A1_N3 = (
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
)

# 1/2 * M^2 for n=2, from squaring the golden matrix by hand.
A2_N2 = (
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 0),
)


def frac_rows(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def reference_operators(ctx):
    """Every A_p from plain lists of Fractions, p = 0 .. 2n-1.

    A_1 has chevalley_column(ctx, i) as column i; A_p is its p-th power,
    halved from the middle degree on, minus the identity at the point class.
    """
    size = ctx.basis_size
    cols = [chevalley_column(ctx, i) for i in range(size)]
    a1 = [[cols[i][j] for i in range(size)] for j in range(size)]
    identity = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    power = identity
    for p in range(size):
        mat = power
        if p >= ctx.n:
            mat = [[v / 2 for v in row] for row in mat]
        if p == ctx.dim:
            mat = [[v - e for v, e in zip(row, erow)] for row, erow in zip(mat, identity)]
        yield tuple(tuple(row) for row in mat)
        power = [
            [sum((a * power[t][j] for t, a in enumerate(row) if a), Fraction(0)) for j in range(size)]
            for row in a1
        ]


class TestContext:
    @pytest.mark.parametrize(
        "n,dim,basis_size",
        [(2, 3, 4), (5, 9, 10), (16, 31, 32)],
    )
    def test_derived_constants(self, n, dim, basis_size):
        ctx = make_context(n)
        assert ctx.dim == dim
        assert ctx.basis_size == basis_size
        assert ctx.q_degree == dim

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_small_n_rejected(self, bad):
        with pytest.raises(ValueError):
            make_context(bad)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            make_context(2.0)

    def test_gcd_helper(self):
        ctx = make_context(5)
        assert ctx.d(3) == 3
        assert ctx.d(4) == 1
        assert ctx.d(9) == 9

    def test_schubert_dim(self):
        ctx = make_context(3)
        assert schubert_dim(ctx, 0) == 5
        assert schubert_dim(ctx, 5) == 0
        with pytest.raises(ValueError):
            schubert_dim(ctx, 6)


class TestChevalleyColumn:
    def test_n2_doubling_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 1) == frac_rows([[0, 0, 2, 0]])[0]

    def test_n2_quantum_wrap_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 2) == frac_rows([[1, 0, 0, 1]])[0]

    def test_unit_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 0) == basis_vector(ctx, 1)

    def test_point_class_wraps_to_degree_one(self):
        for n in (2, 4, 7):
            ctx = make_context(n)
            assert chevalley_column(ctx, 2 * n - 1) == basis_vector(ctx, 1)


class TestBuildA1:
    def test_golden_n2(self):
        assert build_a1(make_context(2)).rows == frac_rows(A1_N2)

    def test_golden_n3(self):
        assert build_a1(make_context(3)).rows == frac_rows(A1_N3)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_column_zero_is_degree_one(self, n):
        ctx = make_context(n)
        assert build_a1(ctx).col(0) == basis_vector(ctx, 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_in_0_1_2(self, n):
        entries = {v for row in build_a1(make_context(n)).rows for v in row}
        assert entries <= {Fraction(0), Fraction(1), Fraction(2)}


class TestBuildAp:
    def test_identity_at_p0(self):
        ctx = make_context(2)
        assert build_ap(ctx, 0) == Matrix.identity(4)

    def test_point_class_n2_sends_unit_to_point(self):
        # M^3 e0 = 2(e0 + e3) by repeated multiplication, and then
        # (1/2) * 2(e0 + e3) - e0 = e3.
        ctx = make_context(2)
        m = build_a1(ctx)
        v = basis_vector(ctx, 0)
        for _ in range(3):
            v = m.apply(v)
        assert v == (Fraction(2), Fraction(0), Fraction(0), Fraction(2))
        assert build_ap(ctx, 3).apply(basis_vector(ctx, 0)) == basis_vector(ctx, 3)

    def test_half_square_n2(self):
        assert build_ap(make_context(2), 2).rows == frac_rows(A2_N2)

    def test_n3_point_class_denominators_and_unit_column(self):
        ctx = make_context(3)
        op = build_ap(ctx, 3)
        assert op.denominators() <= {1, 2}
        assert op.apply(basis_vector(ctx, 0)) == basis_vector(ctx, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_equals_naive_reference(self, n):
        ctx = make_context(n)
        for p, expected in enumerate(reference_operators(ctx)):
            assert build_ap(ctx, p).rows == expected, f"n={n}, p={p}"

    @pytest.mark.parametrize("n", range(2, 17))
    def test_at_most_two_nonzeros_per_row_and_column(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            _, pairs = build_ap(ctx, p).int_form()
            assert max(len(row) for row in pairs) <= 2
            columns = Counter(j for row in pairs for j, _ in row)
            assert max(columns.values()) <= 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_denominators_half_integral(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            assert build_ap(ctx, p).denominators() <= {1, 2}

    def test_bad_p_rejected(self):
        ctx = make_context(2)
        with pytest.raises(ValueError):
            build_ap(ctx, 4)
        with pytest.raises(ValueError):
            build_ap(ctx, -1)


class TestRingInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unit_column(self, n):
        ctx = make_context(n)
        e0 = basis_vector(ctx, 0)
        for p in range(2 * n):
            assert build_ap(ctx, p).apply(e0) == basis_vector(ctx, p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_operator_commutativity(self, n):
        ctx = make_context(n)
        ops = [build_ap(ctx, p) for p in range(2 * n)]
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                assert ops[a] * ops[b] == ops[b] * ops[a]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_grading(self, n):
        ctx = make_context(n)
        m = 2 * n - 1
        for p in range(1, 2 * n - 1):
            op = build_ap(ctx, p)
            for j, row in enumerate(op.rows):
                for i, v in enumerate(row):
                    if v:
                        assert (j - i - p) % m == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_hamilton_consequence(self, n):
        m = build_a1(make_context(n))
        assert m ** (2 * n) == m.scale(4)


class TestStarMultiply:
    def test_unit_law(self):
        ctx = make_context(3)
        b = tuple(Fraction(k, 2) for k in range(6))
        assert star_multiply(ctx, basis_vector(ctx, 0), b) == b

    def test_degree_one_squared_n2(self):
        ctx = make_context(2)
        t1 = basis_vector(ctx, 1)
        assert star_multiply(ctx, t1, t1) == (0, 0, 2, 0)

    def test_middle_class_squared_n2(self):
        # (1/2) M^2 e2 = e1: the middle class squares to the degree-one class.
        ctx = make_context(2)
        t2 = basis_vector(ctx, 2)
        assert star_multiply(ctx, t2, t2) == basis_vector(ctx, 1)

    def test_length_validation(self):
        ctx = make_context(2)
        with pytest.raises(ValueError):
            star_multiply(ctx, (1, 0), basis_vector(ctx, 0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_associativity_on_basis(self, n):
        ctx = make_context(n)
        basis = [basis_vector(ctx, p) for p in range(2 * n)]
        for a in basis:
            for b in basis:
                ab = star_multiply(ctx, a, b)
                for c in basis:
                    assert star_multiply(ctx, ab, c) == star_multiply(
                        ctx, a, star_multiply(ctx, b, c)
                    )

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        b=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    )
    def test_commutative_on_random_classes(self, a, b):
        ctx = make_context(2)
        av = tuple(Fraction(x) for x in a)
        bv = tuple(Fraction(x) for x in b)
        assert star_multiply(ctx, av, bv) == star_multiply(ctx, bv, av)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=4, max_size=4),
        b=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=4, max_size=4),
        c=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=4, max_size=4),
    )
    def test_bilinear_in_first_argument(self, a, b, c):
        ctx = make_context(2)
        left = star_multiply(ctx, tuple(x + y for x, y in zip(a, b)), tuple(c))
        right = tuple(
            u + v
            for u, v in zip(star_multiply(ctx, tuple(a), tuple(c)), star_multiply(ctx, tuple(b), tuple(c)))
        )
        assert left == right
