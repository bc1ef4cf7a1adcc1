"""Exact univariate polynomials over the integers.

A polynomial is num[0] + num[1] x + ... for integer coefficients num,
ascending by degree with trailing zeros trimmed; the zero polynomial is
num = (0,).  The representation is unique, so equality compares it directly.
Poly is a value to compare and read, with no operator algebra: charpoly
writes characteristic polynomials coefficient by coefficient, and the rest of
the package reads them.  The one computation is a primitive-PRS gcd and Yun's
squarefree decomposition, run in Z[x] by pseudo-division; they back the
repeated-root analysis.  Every polynomial the package forms is monic, and by
Gauss's lemma so is every factor Yun takes from it.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd


def as_int(v) -> int:
    """The int equal to v, for an integral value of any numeric type.

    Fixed-width integers (numpy's included) go through int, so the arithmetic
    stays arbitrary precision.  A value with no integer equal to it, such as
    1/2, 0.5, nan or inf, raises ValueError.
    """
    if type(v) is int:
        return v
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise ValueError(f"not an integer: {v!r}")
    return i


# Integer coefficient lists, ascending by degree; a nonzero list has a
# nonzero last entry and the zero polynomial is [0].

def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a or [0]


def _sub(a, b) -> list[int]:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _derivative(a) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _divmod_ints(a, b) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s*a = q*b + r, deg r < deg b and s a power of b's leading
    coefficient; s grows only at the steps where that coefficient does not
    divide exactly, so s = 1 whenever b is monic or divides a in Z[x]."""
    db, lead = len(b) - 1, b[-1]
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    rem = list(a)
    q = [0] * max(1, len(a) - db)
    s = 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f, r = divmod(c, lead)
        if r:
            rem = [lead * v for v in rem]
            q = [lead * v for v in q]
            s *= lead
            f = c
        q[i - db] = f
        for j, y in nonzero:
            rem[i - db + j] -= f * y
    return q, _trim(rem[:db]), s


def _primitive(a) -> list[int]:
    """a divided by its content, signed so the leading coefficient is positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [v // g for v in a]


def _exact_quo(a, b) -> list[int]:
    """The quotient a / b in Z[x]; exact when b is primitive and divides a over Q."""
    q, r, s = _divmod_ints(a, b)
    if s != 1 or any(r):
        raise ValueError("division is not exact")
    return q


def _gcd_ints(a, b) -> list[int]:
    """Primitive gcd of integer polynomials by the primitive PRS; a is nonzero."""
    a, b = _primitive(a), _primitive(b) if any(b) else b
    if len(a) < len(b):
        a, b = b, a
    while any(b):
        _, r, _ = _divmod_ints(a, b)
        a, b = b, _primitive(r) if any(r) else r
    return a


class Poly:
    __slots__ = ("_num",)

    def __init__(self, coeffs):
        self._num = tuple(_trim([as_int(c) for c in coeffs]))

    @staticmethod
    def from_ints(num) -> "Poly":
        """The polynomial sum(num[k] x^k) for integers num, unchecked."""
        f = Poly.__new__(Poly)
        f._num = tuple(_trim(list(num)))
        return f

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The integer coefficients, ascending by degree: the stored tuple."""
        return self._num

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return self._num == (0,)

    @property
    def is_monic(self) -> bool:
        return self._num[-1] == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._num == other._num

    def __hash__(self) -> int:
        return hash(self._num)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self._num]})"

    def derivative(self) -> "Poly":
        return Poly.from_ints(_derivative(self._num))

    def strip_zero_roots(self) -> tuple[int, "Poly"]:
        """Split off the power-of-the-variable factor: (k, g) with self = x^k * g,
        k the multiplicity of the root 0 (the index of the lowest nonzero
        coefficient)."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no root multiplicities")
        k = next(i for i, c in enumerate(self._num) if c)
        return k, Poly.from_ints(self._num[k:])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd in Z[x], by the primitive PRS: primitive, with a positive
    leading coefficient, so monic whenever a or b is monic (Gauss's lemma).

    The gcd of f and zero is the primitive part of f, and of two zero
    polynomials zero.
    """
    if a.is_zero:
        a, b = b, a
    if a.is_zero:
        return a
    return Poly.from_ints(_gcd_ints(a._num, b._num))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition f = prod g_i^i with each g_i monic and squarefree.

    Requires a monic nonconstant input.  Factors of multiplicity i come out in
    increasing i, each with positive degree; multiplicities account for the
    whole of f.  Runs in Z[x]: every divisor is a primitive gcd, so by Gauss's
    lemma each quotient is integral and each divisor monic; a divisor that is
    not monic raises ArithmeticError.
    """
    if not f.is_monic:
        raise ValueError("squarefree decomposition requires a monic polynomial")
    if f.degree < 1:
        raise ValueError("squarefree decomposition requires a nonconstant polynomial")
    b, d = list(f._num), _derivative(f._num)
    out = []
    i = 0  # pass 0 divides out gcd(f, f'); pass i >= 1 takes the factor of multiplicity i
    while len(b) > 1:
        g = _gcd_ints(b, d)
        if g[-1] != 1:
            raise ArithmeticError("a divisor of a monic polynomial is not monic")
        if i and len(g) > 1:
            out.append((Poly.from_ints(g), i))
        b = _exact_quo(b, g)
        d = _sub(_exact_quo(d, g), _derivative(b))
        i += 1
    return out
