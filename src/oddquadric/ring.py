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

Multiplication by t_p is then A_p = A_1 * A_(p-1), halved once at the middle
degree and shifted by -I at the point class; see :func:`build_ap`.  Every
operator is an integer matrix: its entries are 3-point genus-0 Gromov-Witten
invariants, which are nonnegative integers on a homogeneous space.  The halving
checks this, and every nonzero entry is 1 or 2 for every degree at
2 <= n <= 64 (tests/test_ring.py).
Classes are integer vectors in basis coordinates, and their products are
integer vectors too.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd
from operator import index
from typing import NamedTuple

from .poly import as_int

Vector = tuple[int, ...]


class QuadricContext(NamedTuple):
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


class Matrix:
    """Immutable square integer matrix, stored sparse.

    The rows are {column: value} dicts of their nonzero entries, so the
    representation is unique; equality and hashing compare it regardless of
    the order columns were filled in.  Rows are never mutated, so matrices may
    share them.  _product_rows and _shift_diagonal are the only code that
    writes them.
    """

    __slots__ = ("size", "_rows", "_sel")

    def __init__(self, rows):
        rows = [[as_int(v) for v in row] for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        self.size, self._sel = len(rows), None
        self._rows = tuple({j: v for j, v in enumerate(row) if v} for row in rows)

    @staticmethod
    def _exact(size: int, rows) -> "Matrix":
        """The matrix of rows, {column: value} dicts without zeros, unchecked."""
        m = Matrix.__new__(Matrix)
        m.size, m._rows, m._sel = size, tuple(rows), None
        return m

    @staticmethod
    def identity(size: int) -> "Matrix":
        return Matrix._exact(size, [{i: 1} for i in range(size)])

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Dense view: every entry, row by row; built on each read."""
        return tuple(tuple(row.get(j, 0) for j in range(self.size)) for row in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple(frozenset(row.items()) for row in self._rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"Matrix[{body}]"

    def int_form(self) -> tuple[Mapping[int, int], ...]:
        """The rows, as {column: value} dicts of their nonzero entries.  The
        dicts are the matrix's own and may be shared with other matrices:
        read them only."""
        return self._rows

    def _selections(self):
        """The rows in the form _product_rows reads, formed on first use and
        kept, since the rows never change."""
        if self._sel is None:
            self._sel = _row_selections(self._rows)
        return self._sel

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("size mismatch")
        rows, scale = _product_rows(self._selections(), other._rows, [1] * self.size)
        rows, _ = _shift_diagonal(rows, scale, 0)
        return Matrix._exact(self.size, rows)

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

    def scale(self, c: int) -> "Matrix":
        """c * self, for an integer c; anything else raises TypeError."""
        c = index(c)
        if c == 1:
            rows = self._rows  # rows are never mutated, so they can be shared
        else:
            rows = [{j: v * c for j, v in row.items()} if c else {} for row in self._rows]
        return Matrix._exact(self.size, rows)

    def apply(self, vec) -> Vector:
        """Matrix-vector product of an integer vector, exact: each entry of
        vec goes through as_int, and each output entry is an int."""
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        w = list(map(as_int, vec))
        return tuple(sum(v * w[j] for j, v in row.items()) for row in self._rows)


def _row_selections(rows) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, tuple]]]:
    """The {column: value} rows of an integer matrix C in the form that
    _product_rows reads: the column t that each row with a single pair (t, x)
    selects (0 for any other row), the (row, x) of each single pair with
    x != 1, and the (row, pairs) of each row with zero or several pairs."""
    targets, scaled, merged = [], [], []
    for i, row in enumerate(rows):
        if len(row) == 1:
            ((t, x),) = row.items()
            if x != 1:
                scaled.append((i, x))
        else:
            t = 0
            merged.append((i, tuple(row.items())))
        targets.append(t)
    return targets, scaled, merged


def _product_rows(a, b, scale) -> tuple[list, list[int]]:
    """The package's one sparse product kernel: the rows of C*D, for C given
    as _row_selections(rows of C) and the rows of D given as scale[t] * b[t],
    an integer multiplier times a {column: value} dict.

    The rows of C*D come back in the same form.  Row i is the sum of
    x * scale[t] * b[t] over the pairs (t, x) of row i of C.  A single pair
    shares b[t] itself under the multiplier x * scale[t], so no row may ever
    be mutated; any other row is merged into a new dict under multiplier 1.
    A product costs one multiply per single pair with x != 1, plus the
    nonzeros of the other rows of C times the length of the rows of D they
    select; the shared rows and their multipliers are gathered in bulk.
    """
    targets, scaled, merged = a
    rows = list(map(b.__getitem__, targets))
    out = list(map(scale.__getitem__, targets))
    for i, x in scaled:
        out[i] *= x
    for i, pairs in merged:
        acc: dict[int, int] = {}
        for t, x in pairs:
            x *= scale[t]
            for j, v in b[t].items():
                acc[j] = acc.get(j, 0) + x * v
        rows[i] = acc if all(acc.values()) else {j: v for j, v in acc.items() if v}
        out[i] = 1
    return rows, out


def _shift_diagonal(rows: list, scale: list[int], c: int) -> tuple[list, list[int]]:
    """The package's one diagonal-shift kernel: scale[i] * rows[i] + c*I, as
    {column: value} dicts without zeros under unit multipliers.

    A row under a multiplier other than 1 is multiplied out into a new dict.
    Then each diagonal entry gains c, and a zero is dropped; the list may be
    updated in place, but each changed row is a copy, since a row may be
    shared with another matrix.  c = 0 only multiplies out.
    """
    if scale.count(1) < len(rows):
        rows = [
            row if x == 1 else {j: x * v for j, v in row.items()} for row, x in zip(rows, scale)
        ]
    if c:
        for i, row in enumerate(rows):
            row = rows[i] = row.copy()
            x = row.get(i, 0) + c
            if x:
                row[i] = x
            else:
                del row[i]
    return rows, [1] * len(rows)


def basis_vector(ctx: QuadricContext, p: int) -> Vector:
    """Coordinate vector of the basis class t_p."""
    check_index(ctx, p)
    return tuple(int(i == p) for i in range(ctx.basis_size))


def chevalley_column(ctx: QuadricContext, p: int) -> tuple[tuple[int, int], ...]:
    """t_1 * t_p at unit quantum parameter, as its (degree, coefficient) pairs.

    The product raises degree by one, doubles when crossing the middle
    (p = n-1), and wraps at the top: t_{2n-2} maps to t_{2n-1} + t_0 and the
    point class maps back to t_1.
    """
    check_index(ctx, p)
    dim = ctx.dim
    if p == dim:
        return ((1, 1),)
    if p == dim - 1:
        return ((0, 1), (dim, 1))
    if p == ctx.n - 1:
        return ((ctx.n, 2),)
    return ((p + 1, 1),)


@lru_cache(maxsize=None)
def _operators(ctx: QuadricContext) -> list[Matrix]:
    """The operators A_0 = I, A_1, ... of ctx formed so far; build_ap extends
    the list only as far as the degree it is asked for.

    Column p of A_1 holds the pairs chevalley_column(ctx, p), which go
    straight into the integer rows: O(N) work, with no dense column.  Every
    coefficient must be a nonzero integer; anything else raises ValueError.
    """
    rows = [{} for _ in range(ctx.basis_size)]
    for p in range(ctx.basis_size):
        for i, v in chevalley_column(ctx, p):
            if not isinstance(v, int) or not v:
                raise ValueError(f"Chevalley coefficients must be nonzero integers, got {v!r}")
            rows[i][p] = v
    return [Matrix.identity(ctx.basis_size), Matrix._exact(ctx.basis_size, rows)]


def build_a1(ctx: QuadricContext) -> Matrix:
    """The 2n x 2n matrix of multiplication by the degree-one class, built
    from chevalley_column once per context."""
    return _operators(ctx)[1]


def _halved(m: Matrix, p: int) -> list[dict[int, int]]:
    """The rows of m / 2, for m = A_1^p; an odd entry raises ArithmeticError
    naming p, since the operators are integer matrices (see the module docstring)."""
    rows = m.int_form()
    if any(v & 1 for row in rows for v in row.values()):
        raise ArithmeticError(f"A_1^{p} has an odd entry, so t_{p} has no integer operator")
    return [{j: v >> 1 for j, v in row.items()} for row in rows]


def build_ap(ctx: QuadricContext, p: int) -> Matrix:
    """The matrix of multiplication by the basis class t_p.

    The Chevalley rule gives A_p = A_1 * A_(p-1), except that the product
    is 2 A_n at the middle degree and A_(2n-1) + I at the top.  So t_0 acts
    as the identity, and each operator is formed once per context from the
    one before it: halved at p = n, which is exact (see _halved), and minus
    the identity at the point class.  An A_p off those two degrees shares
    all but two rows with A_(p-1).
    """
    check_index(ctx, p)
    ops = _operators(ctx)
    while len(ops) <= p:
        q, mat = len(ops), ops[1] * ops[-1]
        if q == ctx.n:
            mat = Matrix._exact(mat.size, _halved(mat, q))
        elif q == ctx.dim:
            rows, _ = _shift_diagonal(list(mat.int_form()), [1] * mat.size, -1)
            mat = Matrix._exact(mat.size, rows)
        ops.append(mat)
    return ops[p]


def star_multiply(ctx: QuadricContext, a, b) -> Vector:
    """Product of two integer classes written in basis coordinates, each
    coordinate taken through as_int.

    Bilinear extension of the operator action: (sum_p a_p A_p) applied to b.
    Commutativity and associativity are properties of the ring, exercised by
    the test suite rather than assumed here.
    """
    if len(a) != ctx.basis_size or len(b) != ctx.basis_size:
        raise ValueError(f"class vectors must have length {ctx.basis_size}")
    b = tuple(map(as_int, b))
    out = [0] * ctx.basis_size
    for p, coeff in enumerate(a):
        coeff = as_int(coeff)
        if not coeff:
            continue
        image = build_ap(ctx, p).apply(b)
        for i, v in enumerate(image):
            out[i] += coeff * v
    return tuple(out)
