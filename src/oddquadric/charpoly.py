"""Characteristic polynomials of the multiplication operators, three ways.

Two independent exact algorithms (a trace recursion and a cofactor expansion)
compute det(lam*I - M) for any operator, and the closed form they must both
equal is instantiated directly:

    lam * (lam^((2n-1)/d) - 2^(2p/d))^d              1 <= p < n
    lam * (lam^((2n-1)/d) - 2^((2p-(2n-1))/d))^d     n <= p < 2n-1
    (lam - 1)^(2n-1) * (lam + 1)                     p = 2n-1

with d = gcd(p, 2n-1).  All three paths produce monic polynomials of degree
2n; the closed forms are integral.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import Poly, X, poly_gcd
from .ring import Matrix, QuadricContext, _product_rows, _shift_diagonal, check_index

#: Cofactor expansion is an oracle for small sizes only; it is exponential.
COFACTOR_DIM_LIMIT = 10


def charpoly_faddeev(m: Matrix) -> Poly:
    """det(lam*I - M) by the Faddeev-LeVerrier trace recursion, exactly.

    The recursion runs on the integer matrix C = s*M kept by Matrix (for an
    integer matrix all intermediates are integers); the coefficients are then
    rescaled through the identity det(lam*I - C/s) = s^-N det((s*lam)*I - C).
    M_k and C*M_k are sparse rows {column: value} with no stored zeros: the
    ring's product kernel merges the rows of M_k that each row of C selects,
    the trace reads the diagonal, and the ring's diagonal-shift kernel adds
    c*I.  A step costs the nonzeros of the selected M_k rows.  For the
    operators, whose M_k are short polynomials in C, that is O(N) per step and
    O(N^2) per operator in every case measured (every M_k has at most N + 2
    nonzeros for every p at n <= 16 and n in {24, 32, 64}); a dense matrix
    fills its rows and costs O(N^4).
    """
    s, a = m.int_form()
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    pairs = [tuple(row.items()) for row in a]
    c = [0] * (n + 1)
    c[n] = 1
    mk = [{i: 1} for i in range(n)]
    for k in range(1, n + 1):
        # P = C * M_k; its trace yields the next coefficient, and M_{k+1} = P + c*I.
        prod = _product_rows(pairs, mk)
        t = sum(row.get(i, 0) for i, row in enumerate(prod))
        if t % k:
            raise ArithmeticError("trace recursion left a nonintegral coefficient")
        c[n - k] = -(t // k)
        mk = _shift_diagonal(prod, c[n - k])
    # Cayley-Hamilton: the last step's C*M_N + c_0*I must vanish, so every row
    # must be empty; cheap exactness guard.
    if any(mk):
        raise ArithmeticError("trace recursion failed the Cayley-Hamilton identity")
    return Poly.from_ints([c[k] * s**k for k in range(n + 1)], s**n)


def charpoly_cofactor(m: Matrix) -> Poly:
    """det(lam*I - M) by Laplace expansion over Z[lam].

    Independent of the trace recursion; used as a cross-check oracle.  Like
    Faddeev it runs on the integer form (s, C) of M and rescales once through
    det(lam*I - C/s) = s^-N det((s*lam)*I - C).  Each minor of (s*lam)*I - C
    is expanded along its first row, reading only that row's nonzeros and its
    diagonal, and is keyed by the set of columns it keeps: the rows it keeps
    are the last ones, as many as its columns.  So at most 2^N distinct minors
    are formed, each once, in place of the N! paths of a plain expansion; a
    dense 10 x 10 matrix takes about 0.01 s.  The limit stays at 10 all the
    same: verify runs the oracle on every operator whose size is within it,
    so a larger limit adds results to verify's report.
    """
    s, a = m.int_form()
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
            # entry (i, j) is -C[i][j], plus s*lam on the diagonal
            c = -sign * row.get(j, 0)
            if c:
                for t, v in enumerate(sub):
                    total[t] += c * v
            if j == i:
                for t, v in enumerate(sub):
                    total[t + 1] += sign * s * v
        minors[cols] = total
        return total

    return Poly.from_ints(det((1 << n) - 1), s**n)


# typed, as for ring.build_ap: an untyped cache would return the p = 1 entry
# for p = True once it is warm, skipping check_index.
@lru_cache(maxsize=None, typed=True)
def closed_form_charpoly(ctx: QuadricContext, p: int) -> Poly:
    """The closed-form characteristic polynomial for degree p, fully expanded.

    Rejects p = 0 (the identity operator is outside the closed form).  The
    exponent 2p-(2n-1) in the upper range is positive and divisible by d, so
    every coefficient is an integer.  Built once per (ctx, p).
    """
    check_index(ctx, p)
    if p == 0:
        raise ValueError("no closed form for p = 0; use charpoly_faddeev on the identity")
    n = ctx.n
    if p == 2 * n - 1:
        f = (X - Poly([1])) ** (2 * n - 1) * (X + Poly([1]))
    else:
        d = ctx.d(p)
        m = (2 * n - 1) // d
        e = 2 * p // d if p < n else (2 * p - (2 * n - 1)) // d
        f = (Poly([-(2**e)] + [0] * (m - 1) + [1]) ** d) * X
    if not (f.is_monic and f.degree == 2 * n):
        raise ArithmeticError(f"closed form for n={n}, p={p} is not monic of degree {2 * n}")
    return f


def nonzero_part_is_squarefree(f: Poly) -> bool:
    """Whether f has no repeated nonzero roots.

    Strips the x^k factor carrying the root at 0, then tests the remainder g
    for squarefreeness via gcd(g, g').  Together with a zero-root multiplicity
    of at most 1 this says all roots of f are simple.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    _, g = f.strip_zero_roots()
    if g.degree == 0:
        return True
    return poly_gcd(g, g.derivative()).degree == 0


def all_roots_simple(f: Poly) -> bool:
    """Simplicity of the full root multiset: squarefree nonzero part and 0 at most once."""
    return f.zero_root_multiplicity() <= 1 and nonzero_part_is_squarefree(f)
