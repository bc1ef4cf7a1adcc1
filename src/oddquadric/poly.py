"""Dense univariate polynomials over exact rationals, stored over the integers.

A polynomial is (1/den) * (num[0] + num[1] x + ... ) for a positive integer
den and integer coefficients num, ascending by degree with trailing zeros
trimmed, in lowest terms (den shares no factor with all of num); the zero
polynomial is num = (0,) over 1.  The representation is unique, so equality
compares it directly, and all arithmetic runs on the integers.  Includes a
primitive-PRS gcd and Yun's squarefree decomposition over Z[x], which back
the repeated-root analysis elsewhere.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm


def as_fraction(v) -> Fraction:
    """Exact coercion to Fraction.

    Fixed-width integer scalars (numpy's included) register as Integral and
    would be stored raw inside Fraction, overflowing silently; route them
    through int to keep the arithmetic arbitrary precision.
    """
    if isinstance(v, numbers.Integral) and not isinstance(v, int):
        return Fraction(int(v))
    return Fraction(v)


# Integer coefficient lists, ascending by degree; a nonzero list has a
# nonzero last entry and the zero polynomial is [0].

def _trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a or [0]


def _mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return out


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
    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, int) else as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> None:
        """Store (1/den) * num in lowest terms, trimmed, with a positive denominator."""
        if den == 0:
            raise ZeroDivisionError("polynomial with denominator 0")
        num = _trim(num)
        if den < 0:
            den, num = -den, [-v for v in num]
        if den > 1:
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = [v // g for v in num]
        self._num = tuple(num)
        self._den = den

    @staticmethod
    def from_ints(num, den: int = 1) -> "Poly":
        """The polynomial (1/den) * sum(num[k] x^k) for integers num and den."""
        f = Poly.__new__(Poly)
        f._set(list(num), den)
        return f

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every coefficient as a Fraction, ascending by degree; built on each read."""
        den = self._den
        return tuple(Fraction(v, den) for v in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return self._num == (0,)

    @property
    def leading(self) -> Fraction:
        return Fraction(self._num[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return self._num[-1] == self._den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __neg__(self) -> "Poly":
        return Poly.from_ints([-v for v in self._num], self._den)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, den = self._num, other._num, self._den
        if other._den != den:
            den = lcm(den, other._den)
            a = [v * (den // self._den) for v in a]
            b = [v * (den // other._den) for v in b]
        return Poly.from_ints([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly.from_ints(_mul(self._num, other._num), self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        return Poly.from_ints([c.numerator * v for v in self._num], c.denominator * self._den)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial powers are not supported")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s*a = q*b + r on the numerators: self = q*den_b/(s*den_a) * other + r/(s*den_a).
        q, r, s = _divmod_ints(self._num, other._num)
        den = s * self._den
        return Poly.from_ints([v * other._den for v in q], den), Poly.from_ints(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        return Poly.from_ints(self._num, self._num[-1])

    def derivative(self) -> "Poly":
        return Poly.from_ints(_derivative(self._num), self._den)

    def __call__(self, x):
        """Horner evaluation; works for Fraction, float and complex arguments."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def zero_root_multiplicity(self) -> int:
        """Multiplicity of the root 0 (index of the lowest nonzero coefficient)."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no root multiplicities")
        return next(i for i, c in enumerate(self._num) if c)

    def strip_zero_roots(self) -> tuple[int, "Poly"]:
        """Split off the power-of-the-variable factor: (k, g) with self = x^k * g."""
        k = self.zero_root_multiplicity()
        return k, Poly.from_ints(self._num[k:], self._den)


#: The indeterminate, for building polynomials by arithmetic.
X = Poly((0, 1))


def _monic(a) -> Poly:
    return Poly.from_ints(a, a[-1])


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals, by the primitive PRS on the integer numerators.

    The gcd of two zero polynomials is zero.
    """
    if a.is_zero or b.is_zero:
        f = b if a.is_zero else a
        return f if f.is_zero else f.monic()
    return _monic(_gcd_ints(a._num, b._num))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's decomposition f = prod g_i^i with each g_i monic and squarefree.

    Requires a monic nonconstant input.  Factors of multiplicity i come out in
    increasing i, each with positive degree; multiplicities account for the
    whole of f.  Runs in Z[x] on the primitive part of f's numerator: every
    divisor is a primitive gcd, so by Gauss's lemma each quotient is integral.
    """
    if not f.is_monic:
        raise ValueError("squarefree decomposition requires a monic polynomial")
    if f.degree < 1:
        raise ValueError("squarefree decomposition requires a nonconstant polynomial")
    num = _primitive(f._num)
    dnum = _derivative(num)
    a = _gcd_ints(num, dnum)
    b = _exact_quo(num, a)
    c = _exact_quo(dnum, a)
    d = _sub(c, _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _gcd_ints(b, d)
        if len(g) > 1:
            out.append((_monic(g), i))
        b = _exact_quo(b, g)
        c = _exact_quo(d, g)
        d = _sub(c, _derivative(b))
        i += 1
    return out
