"""Characteristic polynomials of the multiplication operators, three ways.

Two independent exact algorithms compute det(lam*I - M): a trace recursion
(Faddeev-LeVerrier) for any operator, and a cofactor expansion, the oracle,
for operators of size N <= COFACTOR_DIM_LIMIT only.  The closed form they
must both equal is the paper's factorization, stated once as the factor table
of closed_form_factors and expanded by closed_form_charpoly.  All three paths
produce monic integer polynomials of degree 2n.
"""

from __future__ import annotations

from itertools import repeat
from math import comb

from .poly import Poly, poly_gcd
from .ring import Matrix, QuadricContext, _product_rows, _shift_diagonal, check_index

#: Cofactor expansion is an oracle for small sizes only; it is exponential.
COFACTOR_DIM_LIMIT = 10


def charpoly_faddeev(m: Matrix) -> Poly:
    """det(lam*I - M) by the Faddeev-LeVerrier trace recursion, exactly.

    The recursion runs on C, the integer rows of M, so every intermediate is
    an integer.  Each row of M_k and C*M_k is an integer multiplier times a
    shared, never-mutated sparse row {column: value} with no stored zeros.
    The ring's product kernel gives a row of C with a single nonzero (t, x)
    the row t of M_k itself, under x times its multiplier, and merges the rows
    of M_k that any other row of C selects into a new row under multiplier 1.
    The trace sums multiplier times diagonal entry, and only a step whose
    coefficient is nonzero calls the ring's diagonal-shift kernel, which
    multiplies the rows out and adds c*I.  So a step costs one multiply per
    single nonzero of C other than 1, the nonzeros of the M_k rows the other
    rows of C select, and O(N) bulk gathers; a step that shifts also copies
    every row.  The operators' rows hold one or two nonzeros, mostly one, and
    their M_k are short polynomials in C: O(N) per step and O(N^2) per
    operator in every case measured (every M_k has at most N + 2 nonzeros for
    every p at n <= 16 and n in {24, 32, 64}); a dense matrix fills its rows
    and costs O(N^4).
    """
    n = m.size
    if n == 0:
        raise ValueError("empty matrix")
    sel = m._selections()
    c = [0] * (n + 1)
    c[n] = 1
    mk, scale = [{i: 1} for i in range(n)], [1] * n
    for k in range(1, n + 1):
        # P = C * M_k; its trace yields the next coefficient, and M_{k+1} = P + c*I.
        mk, scale = _product_rows(sel, mk, scale)
        # Under unit multipliers the trace needs no product, which would copy
        # each large diagonal entry of the point class; otherwise only the
        # rows that hold their diagonal entry are multiplied.
        if scale.count(1) == n:
            t = sum(map(dict.get, mk, range(n), repeat(0, n)))
        else:
            t = sum(x * row[i] for i, row, x in zip(range(n), mk, scale) if i in row)
        if t % k:
            raise ArithmeticError("trace recursion left a nonintegral coefficient")
        c[n - k] = -(t // k)
        if c[n - k]:
            mk, scale = _shift_diagonal(mk, scale, c[n - k])
    # Cayley-Hamilton: the last step's C*M_N + c_0*I must vanish, so every row
    # must be empty; cheap exactness guard.
    if any(mk):
        raise ArithmeticError("trace recursion failed the Cayley-Hamilton identity")
    return Poly.from_ints(c)


def charpoly_cofactor(m: Matrix) -> Poly:
    """det(lam*I - M) by Laplace expansion over Z[lam].

    Independent of the trace recursion; used as a cross-check oracle.  Like
    Faddeev it runs on the integer rows of M.  Each minor of lam*I - M is
    expanded along its first row, reading only that row's nonzeros and its
    diagonal, and is keyed by the set of columns it keeps: the rows it keeps
    are the last ones, as many as its columns.  So at most 2^N distinct minors
    are formed, each once, in place of the N! paths of a plain expansion; a
    dense 10 x 10 matrix takes about 0.01 s.  The limit stays at 10 all the
    same: verify runs the oracle on every operator whose size is within it,
    so a larger limit adds results to verify's report.
    """
    a = m.int_form()
    n = len(a)
    if n > COFACTOR_DIM_LIMIT:
        raise ValueError(f"cofactor oracle limited to dimension {COFACTOR_DIM_LIMIT}, got {n}")
    if n == 0:
        raise ValueError("empty matrix")
    minors = {0: [1]}

    def det(cols: int) -> list[int]:
        # The minor on the columns in the bitmask cols and the last k rows, k
        # the number of those columns, as its k + 1 integer coefficients.
        if cols in minors:
            return minors[cols]
        k = cols.bit_count()
        i = n - k
        row = a[i]
        total = [0] * (k + 1)
        for j in {i, *row}:
            if not cols >> j & 1:
                continue
            sub = det(cols ^ 1 << j)
            sign = -1 if (cols & ((1 << j) - 1)).bit_count() % 2 else 1
            # entry (i, j) is -M[i][j], plus lam on the diagonal
            c = -sign * row.get(j, 0)
            if c:
                for t, v in enumerate(sub):
                    total[t] += c * v
            if j == i:
                for t, v in enumerate(sub):
                    total[t + 1] += sign * v
        minors[cols] = total
        return total

    return Poly.from_ints(det((1 << n) - 1))


def closed_form_factors(ctx: QuadricContext, p: int) -> dict[tuple[int, int], int]:
    """The paper's characteristic polynomial for degree p, as one entry
    (L, c): k per factor (lam^L - c)^k.

    With m = 2n-1 and d = gcd(p, m) it is lam * (lam^(m/d) - 2^e)^d, that is
    {(1, 0): 1, (m/d, 2^e): d}, where e = 2p/d below the middle degree n and
    e = (2p - m)/d from it on; the point class p = m has (lam - 1)^m (lam + 1),
    that is {(1, 1): m, (1, -1): 1}.  Every exponent is an integer, since d
    divides both p and m.  Rejects p = 0 (the identity operator is outside the
    closed form), and raises ArithmeticError unless the degrees L*k sum to 2n.
    """
    check_index(ctx, p)
    if p == 0:
        raise ValueError("no closed form for p = 0; use charpoly_faddeev on the identity")
    n, m = ctx.n, ctx.dim
    if p == m:
        factors = {(1, 1): m, (1, -1): 1}
    else:
        d = ctx.d(p)
        e = 2 * p // d if p < n else (2 * p - m) // d
        factors = {(1, 0): 1, (m // d, 2**e): d}
    if sum(length * k for (length, _), k in factors.items()) != ctx.basis_size:
        raise ArithmeticError(f"closed-form factors for n={n}, p={p} are not of degree {ctx.basis_size}")
    return factors


def closed_form_charpoly(ctx: QuadricContext, p: int) -> Poly:
    """The closed-form characteristic polynomial for degree p: the factors of
    closed_form_factors multiplied out, so every coefficient is an integer."""
    f = [1]
    for (length, c), k in closed_form_factors(ctx, p).items():
        # times (lam^L - c)^k = sum over i of comb(k, i) * (-c)^(k-i) * lam^(L*i)
        g = [0] * (len(f) + length * k)
        for i in range(k + 1):
            b = comb(k, i) * (-c) ** (k - i)
            for j, a in enumerate(f, length * i):
                g[j] += a * b
        f = g
    if not (len(f) == ctx.basis_size + 1 and f[-1] == 1):
        raise ArithmeticError(f"closed form for n={ctx.n}, p={p} is not monic of degree {ctx.basis_size}")
    return Poly.from_ints(f)


def all_roots_simple(f: Poly) -> bool:
    """Whether every root of f, 0 included, is simple: gcd(f, f') is a constant.

    Over Q a repeated root is exactly a common root of f and f', so the one
    test covers the root at 0 and the nonzero roots alike.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no root multiplicities")
    return poly_gcd(f, f.derivative()).degree == 0
