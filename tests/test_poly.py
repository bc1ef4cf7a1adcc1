"""Exact polynomial values, gcd, and squarefree machinery."""

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coefficient_lists import mul
from oddquadric import (
    Matrix,
    Poly,
    basis_vector,
    make_context,
    poly,
    poly_gcd,
    squarefree_decomposition,
    star_multiply,
)
from oddquadric.charpoly import closed_form_charpoly
from oddquadric.serialize import poly_json

small_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=6)
small_polys = st.builds(Poly, small_lists)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)


def test_trailing_zeros_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == (Fraction(0),)
    assert Poly([]).is_zero


def test_degree_and_leading():
    f = Poly([3, 0, 1])
    assert f.degree == 2
    assert f.coeffs[-1] == 1
    assert f.is_monic


def test_scale_and_monic():
    # a monic form of 2 + 4x^2 would have the coefficient 1/2, which no Poly holds
    with pytest.raises(AttributeError):
        Poly([2, 0, 4]).monic()
    with pytest.raises(ValueError):
        Poly([Fraction(1, 2), 0, 1])


def test_derivative():
    f = Poly([5, 3, 0, 2])
    assert f.derivative().coeffs == (3, 0, 6)
    assert Poly([7]).derivative().is_zero


def test_zero_root_multiplicity():
    assert Poly([0, 0, 0, 1]).strip_zero_roots() == (3, Poly([1]))
    assert Poly([2, 1]).strip_zero_roots() == (0, Poly([2, 1]))
    with pytest.raises(ValueError):
        Poly([0]).strip_zero_roots()


def test_gcd_known_values():
    x_minus_1, cubic = [-1, 1], [-4, 0, 0, 1]
    f = Poly(mul(x_minus_1, x_minus_1, [2, 1]))
    g = Poly(mul(x_minus_1, [3, 1]))
    assert poly_gcd(f, g) == Poly(x_minus_1)
    assert poly_gcd(Poly(cubic), Poly([0, 0, 3])).degree == 0
    assert poly_gcd(f, Poly([0])) == f


def test_gcd_is_primitive_with_a_positive_leading_coefficient():
    assert poly_gcd(Poly([1, 2]), Poly([2, 4])) == Poly([1, 2])
    assert poly_gcd(Poly([6, 6]), Poly([4, 4])) == Poly([1, 1])
    assert poly_gcd(Poly([-6, 0, -4]), Poly([0])) == Poly([3, 0, 2])
    assert poly_gcd(Poly([0]), Poly([-6, 0, -4])) == Poly([3, 0, 2])
    assert poly_gcd(Poly([0]), Poly([0])) == Poly([0])


def test_squarefree_decomposition_known():
    x_minus_1, x_plus_1, cubic = [-1, 1], [1, 1], [-4, 0, 0, 1]
    f = Poly(mul(x_minus_1, x_minus_1, x_minus_1, x_plus_1))
    assert squarefree_decomposition(f) == [(Poly(x_plus_1), 1), (Poly(x_minus_1), 3)]

    g = Poly(mul(cubic, cubic, cubic))
    assert squarefree_decomposition(g) == [(Poly(cubic), 3)]

    h = Poly(cubic)
    assert squarefree_decomposition(h) == [(h, 1)]


def test_squarefree_decomposition_requires_monic_nonconstant():
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly([1, 2]))
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly([1]))


def test_squarefree_decomposition_refuses_a_divisor_that_is_not_monic(monkeypatch):
    # 2x + 1 is primitive, but no divisor of the monic x^2 - 1
    monkeypatch.setattr(poly, "_gcd_ints", lambda a, b: [1, 2])
    with pytest.raises(ArithmeticError, match="not monic"):
        squarefree_decomposition(Poly([-1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(a=small_lists, b=small_lists)
def test_product_rule(a, b):
    da, db = (list(Poly(cs).derivative().coeffs) for cs in (a, b))
    rhs = [x + y for x, y in zip_longest(mul(da, b), mul(a, db), fillvalue=0)]
    assert Poly(mul(a, b)).derivative() == Poly(rhs)


@settings(max_examples=40, deadline=None)
@given(f=nonzero_polys, g=nonzero_polys)
def test_gcd_divides_both(f, g):
    d = list(poly_gcd(f, g).coeffs)
    assert _ref_divmod(list(f.coeffs), d)[1] == [0]
    assert _ref_divmod(list(g.coeffs), d)[1] == [0]


@settings(max_examples=30, deadline=None)
@given(cs=small_lists)
def test_squarefree_decomposition_reassembles(cs):
    m = Poly(cs + [1])
    factors = [list(g.coeffs) for g, mult in squarefree_decomposition(m) for _ in range(mult)]
    assert Poly(mul(*factors)) == m


# A plain Fraction reference for the integer core: ascending coefficient
# lists with trailing zeros trimmed, the zero polynomial being [0].

def _ref_trim(cs):
    cs = [Fraction(c) for c in cs] or [Fraction(0)]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_divmod(a, b):
    rem, db = _ref_trim(a), len(b) - 1
    q = [Fraction(0)] * max(1, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        factor = rem[i] / b[-1]
        q[i - db] = factor
        for j, c in enumerate(b):
            rem[i - db + j] -= factor * c
    return _ref_trim(q), _ref_trim(rem[:db])


def _ref_monic(a):
    return [c / a[-1] for c in a]


def _ref_primitive(a):
    """The primitive form of a Fraction list: integers without a common
    factor, with a positive leading coefficient; [0] stays [0]."""
    a = [c * math.lcm(*(c.denominator for c in a)) for c in a]
    g = math.gcd(*(c.numerator for c in a)) or 1
    if a[-1] < 0:
        g = -g
    return [int(c / g) for c in a]


def _ref_gcd(a, b):
    a, b = _ref_trim(a), _ref_trim(b)
    while b != [0]:
        a, b = b, _ref_divmod(a, b)[1]
    return a if a == [0] else _ref_monic(a)


def _ref_derivative(a):
    return _ref_trim([i * c for i, c in enumerate(a)][1:])


def _ref_sub(a, b):
    n = max(len(a), len(b))
    return _ref_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_yun(f):
    df = _ref_derivative(f)
    a = _ref_gcd(f, df)
    b, c = _ref_divmod(f, a)[0], _ref_divmod(df, a)[0]
    d = _ref_sub(c, _ref_derivative(b))
    out, i = [], 1
    while len(b) > 1:
        g = _ref_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = _ref_divmod(b, g)[0], _ref_divmod(d, g)[0]
        d = _ref_sub(c, _ref_derivative(b))
        i += 1
    return out


int_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(poly._trim)
#: Wider than int_lists, so a gcd often has a content to divide out.
wide_lists = st.lists(st.integers(-30, 30), min_size=1, max_size=7)
monic_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(lambda cs: cs + [1])


@settings(max_examples=80, deadline=None)
@given(a=int_lists, b=int_lists.filter(any))
def test_divmod_and_exact_div_match_fraction_reference(a, b):
    """The pseudo-division under gcd and Yun: s*a = q*b + r with deg r < deg b,
    the Fraction quotient and remainder scaled by s; and the exact quotient."""
    q, r, s = poly._divmod_ints(a, b)
    qb_plus_r = [x + y for x, y in zip_longest(mul(q, b), r, fillvalue=0)]
    assert poly._trim(qb_plus_r) == [s * v for v in a]
    assert r == [0] or len(r) < len(b)
    rq, rr = _ref_divmod(a, b)
    assert ([Fraction(v, s) for v in q], [Fraction(v, s) for v in r]) == (rq, rr)
    assert poly._exact_quo(mul(a, b), b) == _ref_divmod(mul(a, b), b)[0] == a


@settings(max_examples=80, deadline=None)
@given(a=wide_lists, b=wide_lists)
def test_gcd_matches_fraction_reference(a, b):
    assert list(poly_gcd(Poly(a), Poly(b)).coeffs) == _ref_primitive(_ref_gcd(a, b))


@settings(max_examples=60, deadline=None)
@given(g=wide_lists, h=wide_lists)
def test_gcd_of_products_matches_fraction_reference(g, h):
    a, b = Poly(mul(g, h, g)), Poly(mul(g, h, [h[0] + 1] + h[1:]))
    assert list(poly_gcd(a, b).coeffs) == _ref_primitive(_ref_gcd(list(a.coeffs), list(b.coeffs)))


@settings(max_examples=60, deadline=None)
@given(cs=monic_lists, k=st.integers(1, 3), extra=monic_lists)
def test_squarefree_matches_fraction_reference(cs, k, extra):
    f = Poly(mul(*[cs] * k, extra))
    got = [(list(g.coeffs), i) for g, i in squarefree_decomposition(f)]
    assert got == [(_ref_primitive(g), i) for g, i in _ref_yun(list(f.coeffs))]
    assert all(g.is_monic for g, _ in squarefree_decomposition(f))


@pytest.mark.parametrize("n", range(2, 21))
def test_closed_form_yun_is_one_binomial(n):
    ctx = make_context(n)
    for p in range(1, 2 * n):
        _, g = closed_form_charpoly(ctx, p).strip_zero_roots()
        if p == 2 * n - 1:
            assert squarefree_decomposition(g) == [(Poly([1, 1]), 1), (Poly([-1, 1]), 2 * n - 1)]
            continue
        d = ctx.d(p)
        m = (2 * n - 1) // d
        e = 2 * p // d if p < n else (2 * p - (2 * n - 1)) // d
        assert squarefree_decomposition(g) == [(Poly([-(2**e)] + [0] * (m - 1) + [1]), d)]


@settings(max_examples=60, deadline=None)
@given(cs=wide_lists)
def test_views_match_the_fraction_coefficients(cs):
    """coeffs is the stored tuple of ints; repr, hash, == and the JSON round
    trip read as they did over Fraction tuples."""
    f = Poly(cs)
    ref = tuple(_ref_trim(cs))
    assert f.coeffs == ref and all(type(c) is int for c in f.coeffs)
    assert f.coeffs is f.coeffs
    assert repr(f) == f"Poly({[str(c) for c in ref]})"
    assert hash(f) == hash(ref)
    assert f == Poly(list(ref) + [0, 0]) and f != Poly(list(ref) + [1])
    assert poly_json(f) == {"coeffs_ascending": [str(c) for c in ref]}
    assert Poly([int(s) for s in poly_json(f)["coeffs_ascending"]]) == f


_CTX = make_context(2)
_E0 = basis_vector(_CTX, 0)
#: Every way a value enters the exact layer, each returning the int it became.
ENTRY_POINTS = {
    "Poly": lambda v: Poly([v, 1]).coeffs[0],
    "Matrix": lambda v: Matrix([[v, 0], [0, 1]]).rows[0][0],
    "apply": lambda v: Matrix.identity(2).apply([v, 0])[0],
    "star_multiply-a": lambda v: star_multiply(_CTX, (v, 0, 0, 0), _E0)[0],
    "star_multiply-b": lambda v: star_multiply(_CTX, _E0, (v, 0, 0, 0))[0],
}


@pytest.mark.parametrize(
    "value, expected",
    [
        (7, 7),
        (np.int64(7), 7),
        (Fraction(4, 2), 2),
        (3.0, 3),
        (Fraction(1, 2), None),
        (0.5, None),
        (math.nan, None),
        (math.inf, None),
    ],
    ids=repr,
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_values_enter_through_as_int(entry, value, expected):
    """An integral value of any numeric type becomes an int; anything else
    raises ValueError, never OverflowError."""
    if expected is None:
        with pytest.raises(ValueError, match="not an integer"):
            ENTRY_POINTS[entry](value)
    else:
        got = ENTRY_POINTS[entry](value)
        assert got == expected and type(got) is int
