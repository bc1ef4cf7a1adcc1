"""Exact model of the basis ring of an odd-dimensional quadric at unit quantum parameter.

The cohomology of the (2n-1)-dimensional quadric has one basis class t_p per
degree p in [0, 2n-1]; t_0 is the unit and t_{2n-1} the point class.  Setting
the quantum parameter to 1 folds the quantum corrections into the classical
products, and the whole ring is then presented by the rule for multiplying by
the degree-one class t_1:

    t_1 * t_0      = t_1
    t_1 * t_p      = t_{p+1}            (1 <= p <= n-2  and  n <= p <= 2n-3)
    t_1 * t_{n-1}  = 2 t_n              (doubling across the middle degree)
    t_1 * t_{2n-2} = t_{2n-1} + t_0     (quantum wrap of the top product)
    t_1 * t_{2n-1} = t_1                (point class wraps to degree one)

Multiplication by any other basis class is a power of the t_1 operator, halved
above the middle degree; see :func:`build_ap`.  All matrices are exact, with
entries in the half-integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .poly import as_fraction

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class QuadricContext:
    """Family parameter n plus the derived constants of the (2n-1)-dimensional quadric."""

    n: int

    @property
    def dim(self) -> int:
        """Complex dimension of the quadric, 2n-1."""
        return 2 * self.n - 1

    @property
    def basis_size(self) -> int:
        """Number of basis classes, 2n."""
        return 2 * self.n

    @property
    def q_degree(self) -> int:
        """Degree of the quantum parameter, 2n-1."""
        return 2 * self.n - 1

    def d(self, p: int) -> int:
        """gcd(p, 2n-1); controls eigenvalue multiplicities."""
        return gcd(p, 2 * self.n - 1)


def make_context(n: int) -> QuadricContext:
    """Validated context for the quadric family member with parameter n.

    n = 1 is rejected: the case ranges of the degree-one product rule collapse
    and overlap there, so the presentation above is only meaningful for n >= 2.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return QuadricContext(n)


def check_index(ctx: QuadricContext, p: int) -> None:
    """Reject basis indices outside [0, 2n-1]."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"basis index must be an integer, got {p!r}")
    if not 0 <= p <= ctx.dim:
        raise ValueError(f"basis index {p} outside [0, {ctx.dim}]")


def schubert_dim(ctx: QuadricContext, p: int) -> int:
    """Dimension of the degree-p basis cycle: 2n-1-p (bookkeeping only)."""
    check_index(ctx, p)
    return ctx.dim - p


class Matrix:
    """Immutable square matrix over exact rationals, stored sparse over the integers.

    A matrix is (1/s) * C for a positive integer s and an integer matrix C
    whose rows hold only their nonzero entries, as (column, value) pairs in
    column order.  s is the least common denominator of the entries, so the
    representation is unique and equality and hashing compare it directly.
    Arithmetic runs on the integer rows; a product costs the number of
    nonzeros of the left factor times the length of the right factor's rows.
    """

    __slots__ = ("size", "_s", "_pairs")

    def __init__(self, rows):
        rows = [[as_fraction(v) for v in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        s = lcm(*(v.denominator for row in rows for v in row))
        ints = [
            [(j, v.numerator * (s // v.denominator)) for j, v in enumerate(row) if v]
            for row in rows
        ]
        self._set(len(rows), s, ints)

    def _set(self, size: int, s: int, rows) -> None:
        """Store (1/s) * rows in lowest terms; rows are iterables of (column, value)."""
        rows = [sorted((j, v) for j, v in row if v) for row in rows]
        g = gcd(s, *(v for row in rows for _, v in row))
        if g > 1:
            s //= g
            rows = [[(j, v // g) for j, v in row] for row in rows]
        self.size = size
        self._s = s
        self._pairs = tuple(tuple(row) for row in rows)

    @staticmethod
    def _exact(size: int, s: int, rows) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m._set(size, s, rows)
        return m

    @staticmethod
    def identity(size: int) -> "Matrix":
        return Matrix._exact(size, 1, [[(i, 1)] for i in range(size)])

    @property
    def rows(self) -> tuple[Vector, ...]:
        """Dense view: every entry as a Fraction, row by row; built on each read."""
        zero, s = Fraction(0), self._s
        out = []
        for row in self._pairs:
            dense = [zero] * self.size
            for j, v in row:
                dense[j] = Fraction(v, s)
            out.append(tuple(dense))
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._s == other._s and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self._s, self._pairs))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"Matrix[{body}]"

    def int_form(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """Common denominator s and the rows of the integer matrix s*self, as
        (column, value) pairs of their nonzero entries."""
        return self._s, self._pairs

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        s = lcm(self._s, other._s)
        fa, fb = s // self._s, sign * (s // other._s)
        rows = []
        for ra, rb in zip(self._pairs, other._pairs):
            acc = {j: fa * v for j, v in ra}
            for j, v in rb:
                acc[j] = acc.get(j, 0) + fb * v
            rows.append(acc.items())
        return Matrix._exact(self.size, s, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix) or other.size != self.size:
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix) or other.size != self.size:
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("size mismatch")
        b = other._pairs
        rows = []
        for row in self._pairs:
            acc = {}
            for t, a in row:
                for j, v in b[t]:
                    acc[j] = acc.get(j, 0) + a * v
            rows.append(acc.items())
        return Matrix._exact(self.size, self._s * other._s, rows)

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.size)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "Matrix":
        c = as_fraction(c)
        return Matrix._exact(
            self.size,
            self._s * c.denominator,
            [[(j, v * c.numerator) for j, v in row] for row in self._pairs],
        )

    def apply(self, vec) -> Vector:
        """Matrix-vector product, exact."""
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        s = self._s
        return tuple(sum((v * vec[j] for j, v in row), Fraction(0)) / s for row in self._pairs)

    def col(self, i: int) -> Vector:
        return tuple(row[i] for row in self.rows)

    def trace(self) -> Fraction:
        diagonal = (v for i, row in enumerate(self._pairs) for j, v in row if j == i)
        return Fraction(sum(diagonal), self._s)

    def denominators(self) -> set[int]:
        return {v.denominator for row in self.rows for v in row}


class Operator(Matrix):
    """Multiplication-by-t_p matrix, tagged with its context and degree.

    Column i holds the coefficients of t_p * t_i.  rows is dense rows or a
    Matrix, whose exact state is shared.  Every entry must be a half integer,
    so the common denominator is 1 or 2; anything else raises ValueError.
    """

    __slots__ = ("ctx", "p")

    def __init__(self, ctx: QuadricContext, p: int, rows):
        if isinstance(rows, Matrix):
            self.size, self._s, self._pairs = rows.size, rows._s, rows._pairs
        else:
            super().__init__(rows)
        if self._s > 2:
            raise ValueError("operator entries must be half-integers")
        self.ctx = ctx
        self.p = p


def basis_vector(ctx: QuadricContext, p: int) -> Vector:
    """Coordinate vector of the basis class t_p."""
    check_index(ctx, p)
    return tuple(Fraction(1) if i == p else Fraction(0) for i in range(ctx.basis_size))


def chevalley_column(ctx: QuadricContext, p: int) -> Vector:
    """Coefficients of t_1 * t_p at unit quantum parameter.

    The product raises degree by one, doubles when crossing the middle
    (p = n-1), and wraps at the top: t_{2n-2} maps to t_{2n-1} + t_0 and the
    point class maps back to t_1.
    """
    check_index(ctx, p)
    n = ctx.n
    coeffs = [Fraction(0)] * ctx.basis_size
    if p == ctx.dim:
        coeffs[1] = Fraction(1)
    elif p == ctx.dim - 1:
        coeffs[ctx.dim] = Fraction(1)
        coeffs[0] = Fraction(1)
    elif p == n - 1:
        coeffs[n] = Fraction(2)
    else:
        coeffs[p + 1] = Fraction(1)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def build_a1(ctx: QuadricContext) -> Operator:
    """The 2n x 2n matrix of multiplication by the degree-one class."""
    size = ctx.basis_size
    cols = [chevalley_column(ctx, p) for p in range(size)]
    return Operator(ctx, 1, [[cols[i][j] for i in range(size)] for j in range(size)])


@lru_cache(maxsize=None)
def _powers(a1: Matrix) -> tuple[Matrix, ...]:
    """A^0, ..., A^(N-1) for the N x N degree-one matrix A, by A^k = A * A^(k-1).

    One loop per context.  The cache is keyed by the matrix, not the context,
    so the powers always follow the degree-one matrix that build_a1 returns.
    """
    powers = [Matrix.identity(a1.size)]
    for _ in range(a1.size - 1):
        powers.append(a1 * powers[-1])
    return tuple(powers)


@lru_cache(maxsize=None)
def build_ap(ctx: QuadricContext, p: int) -> Operator:
    """The matrix of multiplication by the basis class t_p.

    t_0 acts as the identity; below the middle degree the operator is a plain
    power of the t_1 matrix, from the middle on it is half that power, and the
    point class is half the top power minus the identity.
    """
    check_index(ctx, p)
    mat = _powers(build_a1(ctx))[p]
    if p >= ctx.n:
        mat = mat.scale(Fraction(1, 2))
    if p == ctx.dim:
        mat = mat - Matrix.identity(ctx.basis_size)
    return Operator(ctx, p, mat)


def star_multiply(ctx: QuadricContext, a, b) -> Vector:
    """Product of two classes written in basis coordinates.

    Bilinear extension of the operator action: (sum_p a_p A_p) applied to b.
    Commutativity and associativity are properties of the ring, exercised by
    the test suite rather than assumed here.
    """
    if len(a) != ctx.basis_size or len(b) != ctx.basis_size:
        raise ValueError(f"class vectors must have length {ctx.basis_size}")
    b = tuple(as_fraction(v) for v in b)
    out = [Fraction(0)] * ctx.basis_size
    for p, coeff in enumerate(a):
        coeff = as_fraction(coeff)
        if not coeff:
            continue
        image = build_ap(ctx, p).apply(b)
        for i, v in enumerate(image):
            out[i] += coeff * v
    return tuple(out)
