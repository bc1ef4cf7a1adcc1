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


def _poly_det(rows: list[list[Poly]]) -> Poly:
    if len(rows) == 1:
        return rows[0][0]
    total = Poly([0])
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * _poly_det(minor)
        total = total - term if j % 2 else total + term
    return total


def charpoly_cofactor(m: Matrix) -> Poly:
    """det(lam*I - M) by Laplace expansion over the polynomial ring.

    Independent of the trace recursion; used as a cross-check oracle and
    guarded to small sizes.
    """
    n = m.size
    if n > COFACTOR_DIM_LIMIT:
        raise ValueError(f"cofactor oracle limited to dimension {COFACTOR_DIM_LIMIT}, got {n}")
    if n == 0:
        raise ValueError("empty matrix")
    rows = [
        [Poly([-v, 1]) if i == j else Poly([-v]) for j, v in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    return _poly_det(rows)


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
