"""Exact symbolic kernel: weights, characters, polynomials, Euler classes."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bowvariety import algebra, brane, envelope, errors, tangent, tie
from bowvariety.algebra import (
    Character,
    FactoredClass,
    Poly,
    RationalFn,
    Weight,
    exact_divide,
    h,
    integer_ratio_mod_h,
    poly_parse,
    t,
)
from conftest import EXAMPLE_3BLUE, FIXTURES, TSTAR_P1

# ---------------------------------------------------------------------------
# weights


def test_weight_arithmetic():
    w = t(1, 3) - t(2, 3) + h(3)
    assert w.a == (1, -1, 0)
    assert w.m == 1
    assert (-w).render() == "-t1+t2-h"
    assert (w - w).is_zero()


def test_weight_render():
    assert t(2, 2).render() == "t2"
    assert (t(1, 2) - t(2, 2)).render() == "t1-t2"
    w = t(1, 2)
    assert Weight(w.a, w.m + 2).render() == "t1+2*h"
    assert Weight((0, 0), 0).render() == "0"


def test_weight_involution():
    w = t(1, 2) - t(2, 2) + h(2)
    assert w.involution() == t(2, 2) - t(1, 2)
    assert w.involution().involution() == w


def test_weight_substitute_is_torus_twist():
    w = t(1, 3) - t(3, 3)
    assert w.substitute(1, 1) == Weight(w.a, w.m + 1)
    assert w.substitute(3, 1) == Weight(w.a, w.m - 1)
    assert w.substitute(2, 1) == w


def is_difference(w):
    """The shape check of chamber_split and Weight.render: the A-part is
    t_i - t_j for some i != j."""
    return sorted(w.a) == [-1, *[0] * (len(w.a) - 2), 1]


def test_weight_difference_shape():
    w = t(2, 3) - t(3, 3) + h(3)
    assert is_difference(w) and (w.a.index(1) + 1, w.a.index(-1) + 1) == (2, 3)
    for other in (t(1, 3), t(1, 3) + t(2, 3) - t(3, 3), h(3), Weight((2, -2, 0), 0)):
        assert not is_difference(other)
        tc = tangent.TangentCharacter("X", Character.from_weights(3, [other]))
        with pytest.raises(errors.DegenerateWeight):
            tangent.chamber_split(tc, (1, 2, 3))
    tc = tangent.TangentCharacter("X", Character.from_weights(3, [w, -w]))
    split = tangent.chamber_split(tc, (3, 1, 2))
    assert split.plus.weights() == [-w] and split.minus.weights() == [w]


def general_render(w):
    """Weight.render without its shortcut for t_i - t_j + m*h."""
    if w.is_zero():
        return "0"
    parts = [(x, f"t{k + 1}") for k, x in enumerate(w.a) if x]
    if w.m:
        parts.append((w.m, "h"))
    out = ""
    for coeff, name in parts:
        body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if not out:
            out = body if coeff > 0 else f"-{body}"
        else:
            out += f"{'-' if coeff < 0 else '+'}{body}"
    return out


def test_weight_render_matches_general_path():
    # every weight with coefficients in -2..2 and m in -3..3 over up to
    # three variables, and the weights of T*P^1 and the three-blue example
    rendered = 0
    for n in range(4):
        for a in itertools.product(range(-2, 3), repeat=n):
            for m in range(-3, 4):
                w = Weight(a, m)
                assert w.render() == general_render(w), (a, m)
                rendered += is_difference(w)
    assert rendered == 7 * (2 + 6)
    for diagram in (EXAMPLE_3BLUE, TSTAR_P1):
        for t_ in tie.enumerate_tie_diagrams(brane.parse(diagram)):
            for w in tangent.tangent_character(t_, "D").char.terms:
                assert w.render() == general_render(w)


def test_weight_mixed_nvars_rejected():
    with pytest.raises(ValueError):
        t(1, 2) + t(1, 3)


# ---------------------------------------------------------------------------
# characters


def test_character_multiset_semantics():
    c = Character.from_weights(2, [t(1, 2), t(1, 2), t(2, 2)])
    assert c.total() == 3
    assert c.terms[t(1, 2)] == 2
    assert sorted(c.weights(), key=Weight.sort_key) == c.weights()
    assert c.weights() == [t(2, 2), t(1, 2), t(1, 2)]
    assert (c - c).total() == 0
    assert not (c - c)


def test_character_effectiveness():
    a = Character.from_weights(2, [t(1, 2)])
    b = Character.from_weights(2, [t(2, 2)])
    assert a.is_effective()
    assert not (a - b).is_effective()


def test_character_involution_image():
    a = Character.from_weights(2, [t(1, 2) - t(2, 2), t(2, 2) - t(1, 2) + h(2)])
    assert a.involution_image() == a


# ---------------------------------------------------------------------------
# polynomials and the expression grammar


def test_poly_parse_basic():
    p = poly_parse("t1-t2+h", 2)
    assert p == (t(1, 2) - t(2, 2) + h(2)).to_poly()


def test_poly_parse_precedence_and_power():
    assert poly_parse("2*t1^2 + 3", 2) == (
        Poly.variable(2, 1) ** 2 * 2 + Poly.const(2, 3)
    )
    assert poly_parse("(t1+h)^3", 1) == poly_parse("t1+h", 1) ** 3
    assert poly_parse("t1 - 2*t2*h", 2) == poly_parse("t1", 2) - poly_parse(
        "t2", 2
    ) * poly_parse("h", 2) * 2


def test_poly_parse_leading_minus():
    assert poly_parse("-t1+t2", 2) == -poly_parse("t1-t2", 2)


def test_poly_parse_errors():
    with pytest.raises(errors.SyntaxError):
        poly_parse("t1 +", 2)
    with pytest.raises(errors.SyntaxError):
        poly_parse("(t1", 2)
    with pytest.raises(errors.SyntaxError):
        poly_parse("t1 t2", 2)
    with pytest.raises(errors.UnknownVariable):
        poly_parse("t3", 2)


def test_poly_render_round_trip_golden():
    p = poly_parse("(t1-t3)*(t3-t2+h)", 3)
    assert poly_parse(p.render(), 3) == p


def test_poly_homogeneity_and_degree():
    assert poly_parse("t1*t2 + h^2", 2).is_homogeneous(2)
    assert not poly_parse("t1 + h^2", 2).is_homogeneous()
    assert poly_parse("t1^3", 1).degree() == 3
    assert Poly.zero(2).degree() == -1


def test_poly_mod_h():
    p = poly_parse("t1^2 + t1*h + h^2", 1)
    assert p.mod_h() == poly_parse("t1^2", 1)
    assert algebra.mod_h(poly_parse("h*(t1+t2)", 2)).is_zero()


def test_exact_divide():
    p = poly_parse("(t1-t2)*(t1+t2+h)", 2)
    assert exact_divide(p, poly_parse("t1-t2", 2)) == poly_parse("t1+t2+h", 2)
    with pytest.raises(errors.NotDivisible):
        exact_divide(poly_parse("t1^2+1", 2), poly_parse("t1-t2", 2))
    with pytest.raises(ZeroDivisionError):
        exact_divide(poly_parse("t1", 1), Poly.zero(1))


# ---------------------------------------------------------------------------
# factored classes, integer ratios, rational functions


def test_factored_class_expand():
    char = Character.from_weights(2, [t(1, 2) - t(2, 2), t(2, 2) - t(1, 2) + h(2)])
    e = FactoredClass.from_character(char)
    assert e.expand() == poly_parse("(t1-t2)*(t2-t1+h)", 2)
    assert e.degree() == 2


def test_factored_class_rejects_virtual_characters():
    virtual = Character.from_weights(2, [t(1, 2)]) - Character.from_weights(
        2, [t(2, 2)]
    )
    with pytest.raises(errors.NonEffective):
        FactoredClass.from_character(virtual)


def test_integer_ratio_mod_h():
    e = FactoredClass(2, 1, [(t(1, 2) - t(2, 2) + h(2), 1)])
    assert integer_ratio_mod_h(poly_parse("3*t1-3*t2", 2), e) == 3
    assert integer_ratio_mod_h(poly_parse("h^2", 2), e) == 0
    with pytest.raises(errors.NotProportional):
        integer_ratio_mod_h(poly_parse("t1+t2", 2), e)
    with pytest.raises(errors.NotProportional):
        # proportional only with a non-integer constant
        e2 = FactoredClass(2, 2, [(t(1, 2) - t(2, 2), 1)])
        integer_ratio_mod_h(poly_parse("t1-t2", 2), e2)


def test_rational_fn_cancellation():
    num = poly_parse("(t1-t2)*(t1-t2+h)", 2)
    den = FactoredClass(2, 1, [(t(1, 2) - t(2, 2), 1)])
    r = RationalFn(num, den)
    assert r.is_polynomial()
    assert r == poly_parse("t1-t2+h", 2)
    with pytest.raises(ZeroDivisionError):  # a zero weight makes the class zero
        RationalFn(num, FactoredClass(2, 1, [(Weight((0, 0), 0), 1)]))


def test_rational_fn_arithmetic():
    den1 = FactoredClass(2, 1, [(t(1, 2) - t(2, 2), 1)])
    den2 = FactoredClass(2, 1, [(t(2, 2) - t(1, 2), 1)])
    one = Poly.const(2, 1)
    # 1/(t1-t2) + 1/(t2-t1) = 0
    total = RationalFn(one, den1) + RationalFn(one, den2)
    assert total.is_zero()
    assert (RationalFn(one, den1) * poly_parse("t1-t2", 2)) == 1


# ---------------------------------------------------------------------------
# property tests

exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
polys = st.dictionaries(
    exponents, st.integers(min_value=-9, max_value=9), max_size=5
).map(lambda terms: Poly(2, {e: Fraction(c) for e, c in terms.items()}))


@settings(max_examples=60, deadline=None)
@given(polys)
def test_poly_render_parse_round_trip(p):
    assert poly_parse(p.render(), 2) == p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_poly_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_exact_divide_inverts_multiplication(p, q):
    if q.is_zero():
        return
    assert exact_divide(p * q, q) == p


# exact division by a linear form (the synthetic-division path)


@st.composite
def poly_and_linear(draw):
    """(p, w, g) over 2 or 3 variables: a polynomial p, a nonzero linear form
    w and a nonzero constant-free cofactor g (so w*g is not linear)."""
    nvars = draw(st.integers(min_value=1, max_value=2))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * (nvars + 1))
    coeffs = st.integers(min_value=-9, max_value=9)

    def poly(terms):
        return Poly(nvars, {e: Fraction(c) for e, c in terms.items()})

    p = poly(draw(st.dictionaries(exps, coeffs, max_size=6)))
    kind = draw(st.sampled_from(["weight", "h", "any"]))
    if kind == "weight":  # t_i - t_j + m*h; the h term leads, so c = m
        i, j = draw(st.lists(st.integers(1, nvars), min_size=2, max_size=2))
        m = draw(st.sampled_from([-1, 1, 2, -2, 0]))
        w = Poly.variable(nvars, i) - Poly.variable(nvars, j) + Poly.variable(nvars, 0) * m
    elif kind == "h":
        w = Poly.variable(nvars, 0) * draw(st.sampled_from([1, -1, 2]))
    else:
        w = sum(
            (Poly.variable(nvars, k) * draw(coeffs) for k in range(nvars + 1)),
            Poly.zero(nvars),
        )
    assume(not w.is_zero())
    g = poly(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))
    g = g - g.constant_value()
    assume(not g.is_zero())
    return p, w, g


def test_exact_divide_linear_cases():
    # the leading term (h where present) has coefficient c = 2, -1 or -2,
    # so every synthetic-division step divides by c
    p = poly_parse("t1^2 - 3*t1*h + 5", 2)
    for w in ("2*h + t1 - t2", "-h + t1", "t2 - t1", "h", "-2*h"):
        wp = poly_parse(w, 2)
        assert exact_divide(p * wp, wp) == p
        assert exact_divide(Poly.zero(2), wp).is_zero()
        with pytest.raises(errors.NotDivisible):
            exact_divide(p * wp + 1, wp)
    half = exact_divide(poly_parse("t1 - t2", 2), poly_parse("2*t1 - 2*t2", 2))
    assert half == Poly.const(2, Fraction(1, 2))
    with pytest.raises(errors.NotDivisible):
        exact_divide(poly_parse("t1^2*t2", 2), poly_parse("t1 + t2", 2))


@settings(max_examples=150, deadline=None)
@example((Poly.zero(2), Poly.variable(2, 0), Poly.variable(2, 1)))
@given(poly_and_linear())
def test_exact_divide_by_linear_form(pwg):
    p, w, _ = pwg
    assert exact_divide(p * w, w) == p
    with pytest.raises(errors.NotDivisible):
        exact_divide(p * w + 1, w)


@settings(max_examples=150, deadline=None)
@given(poly_and_linear())
def test_linear_path_matches_generic_loop(pwg):
    # w*g is not linear, so dividing by it runs the generic loop
    p, w, g = pwg
    f = p * w * g
    generic = exact_divide(f, w * g)
    assert generic == p
    assert exact_divide(f, w) == generic * g
    with pytest.raises(errors.NotDivisible):
        exact_divide((p * w + 1) * g, w * g)


# coefficients stay ints; a Fraction appears only where a division leaves a
# remainder


def assert_clean(p):
    """Every coefficient of p is an int or a Fraction that is not integral."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def weight(nvars, i, j, m):
    d = t(i, nvars) - t(j, nvars)
    return Weight(d.a, d.m + m)


mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
mixed_polys = st.dictionaries(exponents, mixed_coeffs, max_size=5).map(
    lambda terms: Poly(2, terms)
)
weights2 = st.builds(
    weight,
    st.just(2),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(-2, 2),
).filter(lambda w: not w.is_zero())


@settings(max_examples=100, deadline=None)
@given(mixed_polys, mixed_polys, st.integers(min_value=0, max_value=3))
def test_ring_operations_keep_coefficients_clean(p, q, k):
    for r in (p, q, p + q, p - q, p * q, -p, p**k, p + 1, p * Fraction(4, 2)):
        assert_clean(r)
    assert_clean(Poly.const(2, Fraction(6, 3)))
    assert type(Poly.const(2, Fraction(6, 3)).constant_value()) is int


@settings(max_examples=60, deadline=None)
@given(polys, weights2, st.integers(min_value=0, max_value=2))
def test_parse_and_expand_keep_int_coefficients(p, w, k):
    assert_clean(poly_parse(p.render(), 2))
    e = FactoredClass(2, Fraction(-6, 3), [(w, k + 1), (t(1, 2) - t(2, 2), 1)])
    assert type(e.constant) is int
    assert all(type(c) is int for c in e.expand().terms.values())
    assert all(type(c) is int for c in w.to_poly().terms.values())


@settings(max_examples=100, deadline=None)
@given(polys, st.sampled_from([2, -1]), st.booleans())
def test_exact_divide_keeps_coefficients_clean(p, c, generic):
    # leading coefficient c of the divisor: c*h leads a linear form, and
    # c*h*t1 leads the nonlinear divisor of the generic loop; 3^40 + 1 is past
    # a float's 53-bit mantissa, so a float quotient anywhere comes out wrong
    p = p * (3**40 + 1) + 3**40
    q = poly_parse(f"{c}*h + t1 - t2", 2)
    if generic:
        q = q * poly_parse("t1 + 1", 2)
    assert exact_divide(p * q, q) == p
    assert_clean(exact_divide(p * q, q))
    half = exact_divide(p * q, q * 2)  # p / 2: Fractions where p is odd
    assert half * 2 == p
    assert_clean(half)
    with pytest.raises(errors.NotDivisible):
        exact_divide(p * q + 1, q)


@settings(max_examples=60, deadline=None)
@given(
    polys,
    weights2,
    st.sampled_from([1, 2, -1, Fraction(4, 2), Fraction(1, 3)]),
    st.integers(min_value=0, max_value=2),
)
def test_rational_functions_keep_coefficients_clean(p, w, c, k):
    den = FactoredClass(2, c, [(w, 1), (t(1, 2) - t(2, 2) + h(2), 1)])
    r = RationalFn(p * w.to_poly() ** k, den)
    s = RationalFn(p + 1, FactoredClass(2, 1, [(w, 2)]))
    for x in (r, s, r + s, r * s, r * 3, r + Fraction(1, 2)):
        assert_clean(x.num)
        assert x.den.constant == 1 and type(x.den.constant) is int


def test_tstar_envelopes_and_gram_have_int_coefficients():
    def ints(p):
        return all(type(c) is int for c in p.terms.values())

    data = envelope.load_attraction_data(FIXTURES / "tstar_p2_chamber123.json")
    op_data = envelope.load_attraction_data(FIXTURES / "tstar_p2_chamber321.json")
    stabs = envelope.stable_envelopes(data)
    op_stabs = envelope.stable_envelopes(op_data)
    for s in stabs + op_stabs:
        assert all(ints(p) for p in s.restrictions.values()), s.point
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    for row in gram:
        for entry in row:
            assert ints(entry.num) and type(entry.den.constant) is int


# trial division during cancellation is quiet


@settings(max_examples=100, deadline=None)
@given(
    polys,
    st.integers(min_value=-9, max_value=9).filter(bool),
    weights2,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_cancellation_keeps_exactly_the_uncancelled_factors(base, c, w, k, j):
    wp = w.to_poly()
    p = base * wp + c  # remainder c != 0, so w does not divide p
    r = RationalFn(p * wp**k, FactoredClass(2, 1, [(w, j)]))
    assert r.den.factors == (((w, j - k),) if j > k else ())
    assert r.num == p * wp ** max(k - j, 0)


def test_not_divisible_message_is_unchanged():
    w = poly_parse("t1 - t2 + h", 2)
    p = poly_parse("t1^2 + 3*h", 2)
    with pytest.raises(errors.NotDivisible) as exc:
        exact_divide(p * w + 1, w)
    assert str(exc.value) == (
        "(h*t1^2 + t1^3 - t1^2*t2 + 3*h^2 + 3*h*t1 - 3*h*t2 + 1) / (h + t1 - t2)"
    )
