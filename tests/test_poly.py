"""Exact polynomial arithmetic, gcd, and squarefree machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddquadric import Poly, X, make_context, poly_gcd, squarefree_decomposition
from oddquadric.charpoly import closed_form_charpoly
from oddquadric.poly import exact_div
from oddquadric.serialize import frac_str, poly_from_json, poly_json

small_polys = st.builds(
    Poly,
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)


def test_trailing_zeros_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == (Fraction(0),)
    assert Poly([]).is_zero


def test_degree_and_leading():
    f = Poly([3, 0, 1])
    assert f.degree == 2
    assert f.leading == 1
    assert f.is_monic


def test_arithmetic_basics():
    f = X**2 - Poly([1])
    g = (X - Poly([1])) * (X + Poly([1]))
    assert f == g
    assert f - g == Poly([0])
    assert (f + g).coeffs == (-2, 0, 2)


def test_scale_and_monic():
    f = Poly([2, 0, 4])
    assert f.monic().coeffs == (Fraction(1, 2), 0, 1)
    assert f.scale(Fraction(1, 2)).coeffs == (1, 0, 2)
    with pytest.raises(ValueError):
        Poly([0]).monic()


def test_divmod_known():
    f = X**3 - Poly([1])
    q, r = divmod(f, X - Poly([1]))
    assert q == X**2 + X + Poly([1])
    assert r.is_zero
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly([0]))


def test_exact_div_rejects_remainder():
    with pytest.raises(ValueError):
        exact_div(X**2, X + Poly([1]))


def test_evaluate_matches_direct():
    f = Poly([1, -4, 0, 0, 1])
    for x in (0, 1, Fraction(3, 2), -2.0, 1 + 1j):
        assert f(x) == 1 - 4 * x + x**4


def test_derivative():
    f = Poly([5, 3, 0, 2])
    assert f.derivative().coeffs == (3, 0, 6)
    assert Poly([7]).derivative().is_zero


def test_zero_root_multiplicity():
    assert Poly([0, 0, 0, 1]).zero_root_multiplicity() == 3
    assert Poly([2, 1]).zero_root_multiplicity() == 0
    with pytest.raises(ValueError):
        Poly([0]).zero_root_multiplicity()


def test_gcd_known_values():
    f = (X - Poly([1])) ** 2 * (X + Poly([2]))
    g = (X - Poly([1])) * (X + Poly([3]))
    assert poly_gcd(f, g) == X - Poly([1])
    assert poly_gcd(X**3 - Poly([4]), Poly([3]) * X**2).degree == 0
    assert poly_gcd(f, Poly([0])) == f.monic()


def test_squarefree_decomposition_known():
    f = (X - Poly([1])) ** 3 * (X + Poly([1]))
    assert squarefree_decomposition(f) == [(X + Poly([1]), 1), (X - Poly([1]), 3)]

    g = (X**3 - Poly([4])) ** 3
    assert squarefree_decomposition(g) == [(X**3 - Poly([4]), 3)]

    h = X**3 - Poly([4])
    assert squarefree_decomposition(h) == [(h, 1)]


def test_squarefree_decomposition_requires_monic_nonconstant():
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly([1, 2]))
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly([1]))


@settings(max_examples=60, deadline=None)
@given(f=small_polys, g=nonzero_polys)
def test_divmod_identity(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=60, deadline=None)
@given(f=small_polys, g=small_polys)
def test_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(f=nonzero_polys, g=nonzero_polys)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    assert (f % d).is_zero
    assert (g % d).is_zero


@settings(max_examples=30, deadline=None)
@given(f=nonzero_polys.filter(lambda f: f.degree >= 1))
def test_squarefree_decomposition_reassembles(f):
    m = f.monic()
    product = Poly([1])
    for factor, mult in squarefree_decomposition(m):
        product = product * factor**mult
    assert product == m


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


rationals = st.fractions(-5, 5, max_denominator=6)
rational_lists = st.lists(rationals, min_size=1, max_size=7)
#: Monic with at least one non-integral coefficient, so the integer core
#: must carry a denominator through Yun.
nonintegral_monic = st.lists(rationals, min_size=1, max_size=6).map(lambda cs: cs + [1]).filter(
    lambda cs: any(c.denominator > 1 for c in cs)
)


@settings(max_examples=80, deadline=None)
@given(a=rational_lists, b=rational_lists.filter(lambda cs: any(cs)))
def test_divmod_and_exact_div_match_fraction_reference(a, b):
    q, r = divmod(Poly(a), Poly(b))
    rq, rr = _ref_divmod(a, _ref_trim(b))
    assert (list(q.coeffs), list(r.coeffs)) == (rq, rr)
    assert exact_div(Poly(a) * Poly(b), Poly(b)) == Poly(a)


@settings(max_examples=80, deadline=None)
@given(a=rational_lists, b=rational_lists)
def test_gcd_matches_fraction_reference(a, b):
    assert list(poly_gcd(Poly(a), Poly(b)).coeffs) == _ref_gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(g=rational_lists, h=rational_lists)
def test_gcd_of_products_matches_fraction_reference(g, h):
    common = Poly(g) * Poly(h)
    a, b = common * Poly(g), common * (Poly(h) + Poly([1]))
    assert list(poly_gcd(a, b).coeffs) == _ref_gcd(list(a.coeffs), list(b.coeffs))


@settings(max_examples=60, deadline=None)
@given(cs=nonintegral_monic, k=st.integers(1, 3), extra=nonintegral_monic)
def test_squarefree_matches_fraction_reference(cs, k, extra):
    f = Poly(cs) ** k * Poly(extra)
    got = [(list(g.coeffs), i) for g, i in squarefree_decomposition(f)]
    assert got == _ref_yun(list(f.coeffs))
    assert all(g.is_monic for g, _ in squarefree_decomposition(f))


@pytest.mark.parametrize("n", range(2, 21))
def test_closed_form_yun_is_one_binomial(n):
    ctx = make_context(n)
    for p in range(1, 2 * n):
        _, g = closed_form_charpoly(ctx, p).strip_zero_roots()
        if p == 2 * n - 1:
            assert squarefree_decomposition(g) == [(X + Poly([1]), 1), (X - Poly([1]), 2 * n - 1)]
            continue
        d = ctx.d(p)
        m = (2 * n - 1) // d
        e = 2 * p // d if p < n else (2 * p - (2 * n - 1)) // d
        assert squarefree_decomposition(g) == [(X**m - Poly([2**e]), d)]


@settings(max_examples=60, deadline=None)
@given(cs=rational_lists)
def test_views_match_the_fraction_coefficients(cs):
    """repr, hash, == and the JSON round trip read as they did over Fraction tuples."""
    f = Poly(cs)
    ref = tuple(_ref_trim(cs))
    assert f.coeffs == ref and all(type(c) is Fraction for c in f.coeffs)
    assert repr(f) == f"Poly({[str(c) for c in ref]})"
    assert hash(f) == hash(ref)
    assert f == Poly(list(ref) + [0, 0]) and f != Poly(list(ref) + [1])
    assert poly_json(f) == {"coeffs_ascending": [frac_str(c) for c in ref]}
    assert poly_from_json(poly_json(f)) == f
