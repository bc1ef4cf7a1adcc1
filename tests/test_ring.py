"""Ring construction: contexts, the degree-one product rule, operators, star products."""

import pickle
import sys
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
    charpoly_faddeev,
    chevalley_column,
    make_context,
    star_multiply,
)
from oddquadric import ring
from oddquadric.verifier import run_check_cell

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


def reference_a1(ctx):
    """A_1 as dense rows of Fractions: the transpose of the columns whose
    nonzeros are the pairs chevalley_column(ctx, i)."""
    size = ctx.basis_size
    cols = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j, v in chevalley_column(ctx, i):
            cols[i][j] = Fraction(v)
    return tuple(tuple(cols[i][j] for i in range(size)) for j in range(size))


def reference_operators(ctx):
    """Every A_p from plain lists of Fractions, p = 0 .. 2n-1.

    A_1 is reference_a1(ctx); A_p is its p-th power, halved from the middle
    degree on, minus the identity at the point class.
    """
    size = ctx.basis_size
    a1 = reference_a1(ctx)
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


def presentation_class(ctx, p):
    """t_p in Q[x]/(x^(2n) - 4x), the ring's presentation at q = 1, as
    {exponent: coefficient}: x^p below the middle degree, x^p/2 from the
    middle to 2n - 2, and x^(2n-1)/2 - 1 at the point class."""
    n, m = ctx.n, ctx.dim
    if p < n:
        return {p: Fraction(1)}
    if p < m:
        return {p: Fraction(1, 2)}
    return {m: Fraction(1, 2), 0: Fraction(-1)}


def monomial_in_t_basis(ctx, k):
    """x^k for k < 2n in the t-basis, as {degree: coefficient}: the inverse of
    presentation_class, case by case."""
    n, m = ctx.n, ctx.dim
    if k < n:
        return {k: 1}
    if k < m:
        return {k: 2}
    return {m: 2, 0: 2}


def table_product(ctx, p, r):
    """t_p * t_r in the t-basis, multiplied in Q[x]/(x^(2n) - 4x) and never
    through an operator matrix; zero coefficients are dropped."""
    out = {}
    for a, u in presentation_class(ctx, p).items():
        for b, v in presentation_class(ctx, r).items():
            k, c = a + b, u * v
            if k > ctx.dim:  # x^k = x^(k-2n) * x^(2n) = 4 x^(k-2n+1), with k - 2n + 1 < 2n
                k, c = k - ctx.dim, 4 * c
            for i, w in monomial_in_t_basis(ctx, k).items():
                out[i] = out.get(i, 0) + c * w
    return {i: c for i, c in out.items() if c}


class TestContext:
    @pytest.mark.parametrize(
        "n,dim,basis_size",
        [(2, 3, 4), (5, 9, 10), (16, 31, 32)],
    )
    def test_derived_constants(self, n, dim, basis_size):
        ctx = make_context(n)
        assert ctx.dim == dim
        assert ctx.basis_size == basis_size

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


class TestChevalleyColumn:
    def test_n2_doubling_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 1) == ((2, 2),)

    def test_n2_quantum_wrap_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 2) == ((0, 1), (3, 1))

    def test_unit_column(self):
        ctx = make_context(2)
        assert chevalley_column(ctx, 0) == ((1, 1),)

    def test_point_class_wraps_to_degree_one(self):
        for n in (2, 4, 7):
            ctx = make_context(n)
            assert chevalley_column(ctx, 2 * n - 1) == ((1, 1),)


class TestBuildA1:
    def test_golden_n2(self):
        assert build_a1(make_context(2)).rows == frac_rows(A1_N2)

    def test_golden_n3(self):
        assert build_a1(make_context(3)).rows == frac_rows(A1_N3)

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_column_zero_is_degree_one(self, n):
        ctx = make_context(n)
        assert tuple(row[0] for row in build_a1(ctx).rows) == basis_vector(ctx, 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_in_0_1_2(self, n):
        entries = {v for row in build_a1(make_context(n)).rows for v in row}
        assert entries <= {Fraction(0), Fraction(1), Fraction(2)}

    @pytest.mark.parametrize("coeff", [0, Fraction(1, 3)])
    def test_rule_coefficients_must_be_nonzero_integers(self, coeff, monkeypatch):
        # A stored 0 would break the row type's equality, and Matrix._exact
        # checks no entry, so nothing else would catch a Fraction.
        monkeypatch.setattr(ring, "chevalley_column", lambda ctx, p: ((p, coeff),))
        ring._operators.cache_clear()
        try:
            with pytest.raises(ValueError):
                build_a1(make_context(2))
        finally:
            ring._operators.cache_clear()

    def test_cold_build_is_linear_in_the_basis_size(self):
        # The rule's 2n + 1 pairs go straight into the rows; a walk over the
        # (2n)^2 entries of dense columns made about 1.07 million calls here.
        ctx = make_context(512)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        ring._operators.cache_clear()
        sys.setprofile(count)
        try:
            build_a1(ctx)
        finally:
            sys.setprofile(None)
        assert calls < 10 * ctx.basis_size


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
        # half of A_1^5 minus the identity still has no denominator
        ctx = make_context(3)
        op = build_ap(ctx, 3)
        assert all(type(v) is int for row in op.int_form() for v in row.values())
        assert op.apply(basis_vector(ctx, 0)) == basis_vector(ctx, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_equals_naive_reference(self, n):
        ctx = make_context(n)
        for p, expected in enumerate(reference_operators(ctx)):
            assert build_ap(ctx, p).rows == expected, f"n={n}, p={p}"

    @pytest.mark.parametrize("n", [*range(2, 17), 64])
    def test_a1_equals_the_dense_transpose(self, n):
        ctx = make_context(n)
        assert build_a1(ctx).rows == reference_a1(ctx)

    def test_powers_formed_only_up_to_the_degree_asked(self):
        ctx = make_context(512)
        ring._operators.cache_clear()
        build_ap(ctx, 19)
        assert len(ring._operators(ctx)) == 20  # A_0 .. A_19, not all 1,024

    def test_degree_one_operator_is_build_a1(self):
        # A_1 is the degree-one matrix itself, not a product A_1 * I
        ring._operators.cache_clear()
        ctx = make_context(5)
        assert build_ap(ctx, 1) is build_a1(ctx)

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_each_operator_shares_all_but_two_rows_with_the_one_before(self, n):
        # A_p = A_1 * A_(p-1) takes each row of A_(p-1) that a single 1 of
        # A_1 selects; only the doubled row and the wrapped row are new.
        ctx = make_context(n)
        for p in range(2, 2 * n - 1):
            if p == n:
                continue
            before = {id(row) for row in build_ap(ctx, p - 1).int_form()}
            new = [row for row in build_ap(ctx, p).int_form() if id(row) not in before]
            assert len(new) <= 2, (p, len(new))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_at_most_two_nonzeros_per_row_and_column(self, n):
        ctx = make_context(n)
        for p in range(2 * n):
            rows = build_ap(ctx, p).int_form()
            assert max(len(row) for row in rows) <= 2
            columns = Counter(j for row in rows for j in row)
            assert max(columns.values()) <= 2

    @pytest.mark.parametrize("n", range(2, 65))
    def test_entries_are_integers_1_or_2(self, n):
        # The entries are Gromov-Witten invariants: nonnegative integers,
        # and here every nonzero one is 1 or 2.
        ctx = make_context(n)
        for p in range(2 * n):
            entries = [v for row in build_ap(ctx, p).int_form() for v in row.values()]
            assert all(type(v) is int and v in (1, 2) for v in entries), p

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_denominators_half_integral(self, n):
        """Half-integral operators are refused.  Below the middle degree the
        powers of A_1 hold entries 1, so halving one raises, and a matrix
        with an entry 1/2 cannot be formed at all."""
        ctx = make_context(n)
        for p in range(1, n):
            with pytest.raises(ArithmeticError, match=rf"A_1\^{p} has an odd entry"):
                ring._halved(build_ap(ctx, p), p)
            rows = [list(row) for row in build_ap(ctx, p).rows]
            rows[p][0] = Fraction(1, 2)
            with pytest.raises(ValueError):
                Matrix(rows)

    def test_bad_p_rejected(self):
        ctx = make_context(2)
        with pytest.raises(ValueError):
            build_ap(ctx, 4)
        with pytest.raises(ValueError):
            build_ap(ctx, -1)

    def test_bool_rejected_after_a_warm_cache(self):
        # True == 1 and a list index accepts it, so without check_index on
        # every call the operator table would hand back A_1.
        ctx = make_context(2)
        build_ap(ctx, 1)
        with pytest.raises(ValueError):
            build_ap(ctx, True)


# Entries of the row-type tests: zero often, small integers, so that
# cancellation occurs, and larger ones.
ENTRIES = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-99, 99))


@st.composite
def dense_pairs(draw):
    """Two dense N x N integer matrices, N <= 7."""
    n = draw(st.integers(1, 7))
    square = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


def reversed_fill(m):
    """m again, with every row dict filled in the opposite column order."""
    return Matrix._exact(m.size, [dict(reversed(row.items())) for row in m.int_form()])


def snapshot(m):
    """The stored rows of m, entries and fill order both."""
    return [tuple(row.items()) for row in m.int_form()]


def assert_represents(got, dense):
    """got is the matrix of the dense rows, hash included, with no stored 0."""
    want = Matrix(dense)
    assert got == want
    assert hash(got) == hash(want)
    assert got.rows == want.rows
    assert all(v for row in got.int_form() for v in row.values())


class TestRowType:
    @settings(max_examples=80, deadline=None)
    @given(pair=dense_pairs())
    def test_operations_match_the_dense_reference_and_keep_their_operands(self, pair):
        da, db = pair
        n = len(da)
        a, b = Matrix(da), Matrix(db)
        before = snapshot(a), snapshot(b)
        product = [[sum((da[i][t] * db[t][j] for t in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
        assert_represents(a * b, product)
        assert_represents(reversed_fill(a) * reversed_fill(b), product)
        rows = a.int_form()
        # c = 0 leaves the rows as they are; -rows[0][0] cancels the entry (0, 0).
        for c in (0, 1, -1, -rows[0].get(0, 0)):
            shifted, scale = ring._shift_diagonal(list(rows), [1] * n, c)
            assert scale == [1] * n
            plus_c = [[x + c * (i == j) for j, x in enumerate(r)] for i, r in enumerate(da)]
            assert_represents(Matrix._exact(n, shifted), plus_c)
            # the same shift of rows under multipliers 1, -2, 3, ...
            xs = [(-1) ** i * (i + 1) for i in range(n)]
            shifted, _ = ring._shift_diagonal(list(rows), xs, c)
            plus_c = [[xs[i] * x + c * (i == j) for j, x in enumerate(r)] for i, r in enumerate(da)]
            assert_represents(Matrix._exact(n, shifted), plus_c)
        for c in (0, 1, -3, db[0][0]):
            assert_represents(a.scale(c), [[c * x for x in row] for row in da])
        assert_represents(reversed_fill(a), da)
        charpoly_faddeev(a)
        assert (snapshot(a), snapshot(b)) == before

    @pytest.mark.parametrize(
        "da, db",
        [
            ([], []),
            ([[5]], [[-3]]),
            ([[0]], [[7]]),
            ([[0, 2], [1, 0]], [[5, 0], [3, 4]]),
            ([[1, 2], [0, 3]], [[5, 0], [3, 4]]),
        ],
    )
    def test_products_of_sizes_0_1_and_2(self, da, db):
        # an itemgetter returns one key's item bare and takes no empty key
        # list, so the smallest sizes are where a gather of rows can go wrong
        n = len(da)
        product = [[sum(da[i][t] * db[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        assert_represents(Matrix(da) * Matrix(db), product)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Matrix([]),
            lambda: Matrix([[5]]),
            lambda: Matrix([[0, 2], [1, 3]]),
            lambda: build_ap(make_context(3), 2),
        ],
        ids=["size0", "size1", "size2", "build_ap_n3_p2"],
    )
    def test_a_matrix_pickles_after_its_rows_are_gathered(self, make):
        m = make()
        m._selections()
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m
        assert copy * copy == m * m

    def test_non_integers_rejected(self):
        for entry in (Fraction(1, 2), 0.5):
            with pytest.raises(ValueError):
                Matrix([[1, entry], [0, 1]])
        assert Matrix([[Fraction(4, 2), 3.0]] * 2) == Matrix([[2, 3]] * 2)
        for c in (Fraction(1, 2), Fraction(4, 2), 2.0):
            with pytest.raises(TypeError):
                Matrix.identity(2).scale(c)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_commutativity_check_leaves_the_operators_unchanged(self, n):
        ctx = make_context(n)
        ops = [build_ap(ctx, p) for p in range(2 * n)]
        before = [snapshot(op) for op in ops]
        assert [r.status for r in run_check_cell("commutativity", n)] == ["pass"]
        assert [snapshot(op) for op in ops] == before


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

    @pytest.mark.parametrize("n", range(2, 33))
    def test_columns_match_the_product_table(self, n):
        """Column r of every A_p is t_p * t_r from the presentation: a wrong
        halving or point-class rule in build_ap fails here."""
        ctx = make_context(n)
        for p in range(2 * n):
            columns = {}
            for i, row in enumerate(build_ap(ctx, p).int_form()):
                for r, v in row.items():
                    columns.setdefault(r, {})[i] = v
            for r in range(2 * n):
                assert columns.get(r, {}) == table_product(ctx, p, r), (p, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_hamilton_consequence(self, n):
        m = build_a1(make_context(n))
        assert m ** (2 * n) == m.scale(4)


class TestStarMultiply:
    def test_unit_law(self):
        ctx = make_context(3)
        b = tuple(k * k - 7 for k in range(6))
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
        a=st.lists(st.integers(-12, 12), min_size=4, max_size=4),
        b=st.lists(st.integers(-12, 12), min_size=4, max_size=4),
        c=st.lists(st.integers(-12, 12), min_size=4, max_size=4),
    )
    def test_bilinear_in_first_argument(self, a, b, c):
        ctx = make_context(2)
        left = star_multiply(ctx, tuple(x + y for x, y in zip(a, b)), tuple(c))
        right = tuple(
            u + v
            for u, v in zip(star_multiply(ctx, tuple(a), tuple(c)), star_multiply(ctx, tuple(b), tuple(c)))
        )
        assert left == right
