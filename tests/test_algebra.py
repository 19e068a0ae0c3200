"""Exact symbolic kernel: weights, characters, polynomials, Euler classes."""

import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass
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
    integer_ratio_mod_h,
    poly_parse,
    render_weight,
    unpack,
    weight_poly,
    weight_sort_key,
)
from conftest import (
    DATA,
    EXAMPLE_3BLUE,
    FIXTURES,
    TSTAR_P1,
    hw_twist,
    involution_image,
    pack,
    reference_expand,
    reference_render_factored,
    tstar_module,
)

# ---------------------------------------------------------------------------
# weights: (i, j, m) keys against a general linear form


@dataclass(frozen=True)
class Linear:
    """Reference: the integral linear form sum(a[k] * t_{k+1}) + m*h in full,
    with the rendering, order and twist that weights had before they became
    (i, j, m) keys."""

    a: tuple
    m: int

    @classmethod
    def of(cls, w, nvars):
        i, j, m = w
        a = [0] * nvars
        if i != j:
            a[i - 1], a[j - 1] = 1, -1
        return cls(tuple(a), m)

    def render(self):
        parts = [(x, f"t{k + 1}") for k, x in enumerate(self.a) if x]
        if self.m:
            parts.append((self.m, "h"))
        out = ""
        for coeff, name in parts:
            body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            if not out:
                out = body if coeff > 0 else f"-{body}"
            else:
                out += f"{'-' if coeff < 0 else '+'}{body}"
        return out or "0"

    def sort_key(self):
        return (self.m, self.a)

    def to_poly(self):
        n = len(self.a)
        p = Poly(n)
        for k, x in enumerate((*self.a, self.m)):
            p = p + Poly.variable(n, (k + 1) % (n + 1)) * x
        return p

    def substitute(self, k, dm):
        """t_k -> t_k + dm*h."""
        return Linear(self.a, self.m + dm * self.a[k - 1])

    def involution(self):
        return Linear(tuple(-x for x in self.a), 1 - self.m)


# every t_i - t_j + m*h with i != j <= 4 and m in -3..3, and m*h itself
KEYS = [
    (i, j, m)
    for i in range(1, 5)
    for j in range(1, 5)
    for m in range(-3, 4)
    if i != j
] + [(0, 0, m) for m in range(-3, 4)]


def only_weight(char):
    (w,) = char.terms
    return w


def test_weight_arithmetic():
    assert weight_poly((1, 2, 1), 3) == poly_parse("t1 - t2 + h", 3)
    assert weight_poly((2, 1, -1), 3) == -weight_poly((1, 2, 1), 3)
    assert weight_poly((3, 1, 0), 3) - weight_poly((2, 1, 0), 3) == weight_poly((3, 2, 0), 3)
    assert weight_poly((0, 0, -2), 2) == poly_parse("-2*h", 2)
    assert weight_poly((0, 0, 0), 2).is_zero()


def test_weight_render():
    assert render_weight((1, 2, 0)) == "t1-t2"
    assert render_weight((2, 1, -1)) == "-t1+t2-h"
    assert render_weight((1, 3, 2)) == "t1-t3+2*h"
    assert [render_weight((0, 0, m)) for m in (1, -2, 0)] == ["h", "-2*h", "0"]


def test_weight_involution():
    for w in KEYS:
        image = only_weight(involution_image(Character(4, {w: 1})))
        assert Linear.of(image, 4) == Linear.of(w, 4).involution(), w
        assert only_weight(involution_image(Character(4, {image: 1}))) == w


def test_weight_substitute_is_torus_twist():
    # the Hanany-Witten twist t_k -> t_k + dm*h moves m by dm*([i == k] - [j == k])
    for w, k, dm in itertools.product(KEYS, range(1, 5), (1, -1)):
        image = only_weight(hw_twist(Character(4, {w: 1}), k, dm))
        assert Linear.of(image, 4) == Linear.of(w, 4).substitute(k, dm), (w, k, dm)
    char = Character(3, Counter([(1, 3, 0), (1, 3, 0), (2, 1, 1)]))
    assert hw_twist(char, 1, 1).terms == {(1, 3, 1): 2, (2, 1, 0): 1}


def test_weight_difference_shape():
    """chamber_split reads (i, j) from the key and rejects a zero A-part."""
    for m in (-1, 0, 2):
        tc = tangent.TangentCharacter("X", Character(3, Counter([(2, 3, 1), (0, 0, m)])))
        with pytest.raises(errors.DegenerateWeight) as exc:
            tangent.chamber_split(tc, (1, 2, 3))
        assert str(exc.value) == render_weight((0, 0, m))
    w, minus_w = (2, 3, 1), (3, 2, -1)
    tc = tangent.TangentCharacter("X", Character(3, Counter([w, minus_w])))
    split = tangent.chamber_split(tc, (3, 1, 2))
    assert split.plus.weights() == [minus_w] and split.minus.weights() == [w]


def test_weight_render_matches_general_path():
    # render, order and polynomial of every key against the linear form, and
    # the weights of T*P^1 and the three-blue example
    for w in KEYS:
        assert render_weight(w) == Linear.of(w, 4).render(), w
        assert weight_poly(w, 4) == Linear.of(w, 4).to_poly(), w
    by_key = sorted(KEYS, key=weight_sort_key)
    assert by_key == sorted(KEYS, key=lambda w: Linear.of(w, 4).sort_key())
    assert len({weight_sort_key(w) for w in KEYS}) == len(KEYS) == 4 * 3 * 7 + 7
    for diagram in (EXAMPLE_3BLUE, TSTAR_P1):
        d = brane.parse(diagram)
        for t_ in tie.enumerate_tie_diagrams(d):
            for w in tangent.tangent_character(t_, "D").char.terms:
                assert render_weight(w) == Linear.of(w, d.n_blue).render()


def test_weight_mixed_nvars_rejected():
    # t3 does not exist over two variables
    with pytest.raises(ValueError):
        weight_poly((1, 3, 0), 2)
    with pytest.raises(ValueError):
        FactoredClass(2, 1, [((3, 1, 1), 1)]).expand()


def test_factored_classes_refuse_weights_past_nvars():
    # the class refuses t3 over two variables itself, so a rational function
    # over it raises whether its numerator is 0 (never divided) or not
    message = "weight -t1\\+t3 over 2 variables"
    with pytest.raises(ValueError, match=message):
        FactoredClass(2, 1, [((3, 1, 0), 1)])
    for num in (Poly(2), poly_parse("t1 - t2", 2)):
        with pytest.raises(ValueError, match=message):
            RationalFn(num, FactoredClass(2, 1, [((3, 1, 0), 1)]))
    assert FactoredClass(3, 1, [((3, 1, 0), 1)]).render() == "(-t1+t3)"
    # tangent.euler_class sets the factors of its in-range character directly
    char = Character(3, {(3, 1, 0): 1, (1, 2, 1): 2})
    assert tangent.euler_class(char).factors == tuple(char.terms.items())


# ---------------------------------------------------------------------------
# characters


def test_character_multiset_semantics():
    t1, t2 = (1, 2, 0), (2, 1, 0)  # t1 - t2 and t2 - t1
    c = Character(2, Counter([t1, t1, t2]))
    assert c.total() == 3
    assert c.terms[t1] == 2
    assert sorted(c.weights(), key=weight_sort_key) == c.weights()
    assert c.weights() == [t2, t1, t1]
    assert Character(2, {t1: 0}).terms == {}


def test_character_effectiveness():
    assert Character(2, {(1, 2, 0): 1}).is_effective()
    assert not Character(2, {(1, 2, 0): 1, (2, 1, 0): -1}).is_effective()


def test_character_involution_image():
    a = Character(2, Counter([(1, 2, 0), (2, 1, 1)]))
    assert involution_image(a) == a


# ---------------------------------------------------------------------------
# polynomials and the expression grammar


def test_poly_parse_basic():
    p = poly_parse("t1-t2+h", 2)
    assert p == weight_poly((1, 2, 1), 2)


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
    # a leading '-' negates its first term only, at every level of parentheses
    for text, terms, rendered in (
        (
            "-(t1-t2)*(t2+h)",
            {(1, 1, 0): -1, (1, 0, 1): -1, (0, 2, 0): 1, (0, 1, 1): 1},
            "-h*t1 + h*t2 - t1*t2 + t2^2",
        ),
        ("(-(-(t1)))", {(1, 0, 0): 1}, "t1"),
        ("-0", {}, "0"),
        ("-(t1-t2)^2", {(2, 0, 0): -1, (1, 1, 0): 2, (0, 2, 0): -1}, "-t1^2 + 2*t1*t2 - t2^2"),
        ("1^3*(-1)^5", {(0, 0, 0): -1}, "-1"),
    ):
        p = poly_parse(text, 2)
        assert {unpack(e, 2): c for e, c in p.terms.items()} == terms, text
        assert p.render() == rendered, text
    for text, message in (
        ("-", "unexpected end of expression (at position 1)"),
        ("-)", "unexpected character ')' (at position 1)"),
        ("-*t1", "unexpected character '*' (at position 1)"),
    ):
        with pytest.raises(errors.SyntaxError) as raised:
            poly_parse(text, 2)
        assert (str(raised.value), raised.value.position) == (message, 1), text


def test_poly_parse_errors():
    with pytest.raises(errors.SyntaxError):
        poly_parse("t1 +", 2)
    with pytest.raises(errors.SyntaxError):
        poly_parse("(t1", 2)
    with pytest.raises(errors.SyntaxError):
        poly_parse("t1 t2", 2)
    with pytest.raises(errors.UnknownVariable):
        poly_parse("t3", 2)
    # '²' passes str.isdigit, but int() does not read it
    for text, problem in (
        ("t²", "expected a digit"),
        ("t1^²", "expected a digit"),
        ("²", "unexpected character"),
    ):
        with pytest.raises(errors.SyntaxError, match=problem):
            poly_parse(text, 2)
    # each level of parentheses is four frames: 300 raised RecursionError
    n = algebra.MAX_NESTING
    for text in ("(" * (n + 1) + "t1" + ")" * (n + 1), "(" * 5000 + "t1" + ")" * 5000):
        with pytest.raises(errors.SyntaxError, match=f"nested more than {n} deep .at position {n}"):
            poly_parse(text, 2)


def test_poly_parse_rejects_coefficients_python_cannot_print():
    # every parsed Poly renders: a coefficient |c| >= 10^MAX_DIGITS is rejected
    past = f"a coefficient of more than {algebra.MAX_DIGITS} digits"
    largest = "9" * algebra.MAX_DIGITS
    assert poly_parse(f"{largest}*t1", 2).render() == f"{largest}*t1"
    assert poly_parse("-10^4299*9", 2).render() == "-9" + "0" * 4299
    assert poly_parse("2^14284", 2).constant_value() == 2**14284
    with pytest.raises(errors.SyntaxError, match=f"integer of more than {algebra.MAX_DIGITS}"):
        poly_parse("9" + largest, 2)
    # a power is decided before it is computed when an extreme coefficient
    # alone passes the limit (3^4000000 took 1.7 s in full)
    for text in ("3^4000000", "3^100000000", "(t1+10^4000)^255"):
        start = time.perf_counter()
        with pytest.raises(errors.SyntaxError, match=past):
            poly_parse(text, 2)
        assert time.perf_counter() - start < 1.0, text
    for text in ("2^20000*t1", "2^14285", "10^4299*10", "(10^4299*9+10^4299)"):
        with pytest.raises(errors.SyntaxError, match=past):
            poly_parse(text, 2)
    # a product is checked as it is made, not only the whole expression
    with pytest.raises(errors.SyntaxError, match=r"digits \(at position 10\)"):
        poly_parse("10^4299*10+t1", 2)


def test_poly_parse_decides_a_power_by_the_sum_of_its_coefficients():
    # the extreme coefficients of (t1^2 + 10^4000*t1*t2 + t2^2) are 1, but
    # each coefficient of its n-th power is at most (sum |c|)^n, and its
    # middle ones grow towards 10^508000: the full power ran for minutes
    past = f"a coefficient of more than {algebra.MAX_DIGITS} digits"
    for text in ("(t1^2+10^4000*t1*t2+t2^2)^127", "(t1-10^2000*t2+h)^3"):
        start = time.perf_counter()
        with pytest.raises(errors.SyntaxError, match=past):
            poly_parse(text, 2)
        assert time.perf_counter() - start < 1.0, text
    # a constant power is exact, and 1^n is 1 for any n
    assert poly_parse("(t1-10^2000*t2+h)^2", 2) == poly_parse("t1-10^2000*t2+h", 2) ** 2
    assert poly_parse("1^100000000*(-1)^100000001", 2) == poly_parse("-1", 2)


def test_poly_parse_decides_products_and_powers_by_the_expected_degree():
    # (t1+...+t5+h)^24 has 118,755 terms and took 6.9 s in full
    start = time.perf_counter()
    with pytest.raises(errors.HomogeneityViolation, match="^degree 24 is past 4$"):
        poly_parse("(t1+t2+t3+t4+t5+h)^24", 5, 4)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(errors.HomogeneityViolation, match="^degree 5 is past 4$"):
        poly_parse("(t1+h)^2*(t2-t3)^3", 5, 4)
    # the limit of the packed fields comes first, and only products and
    # powers are bounded: a sum of degree 5 is left to the caller
    top = algebra.MAX_DEGREE
    with pytest.raises(errors.DegreeLimit, match=f"^degree {top + 1} is past the limit {top}$"):
        poly_parse(f"t1^{top + 1}", 5, 4)
    assert poly_parse("(t1+h)^2*(t2-t3)^2 + t4", 5, 4).degree() == 4
    assert poly_parse("t1^5 + h", 5, 5).degree() == 5


def test_poly_parse_refuses_products_past_the_term_limit():
    # without a degree, (t1+...+t5+h)^18 built 33,649 terms in 0.75 s and ^255
    # did not finish: a power of T terms has at most C(T+n-1, n) of them, and
    # a product at most T_p*T_q, so both are refused before they are computed
    limit = algebra.MAX_TERMS
    s = "(t1+t2+t3+t4+t5+h)"
    for text in (f"{s}^18", f"{s}^255", f"{s}^14", "(t1+t2)^100*(t3+t4)^99"):
        start = time.perf_counter()
        with pytest.raises(errors.SyntaxError, match=f"more than {limit} terms"):
            poly_parse(text, 5)
        assert time.perf_counter() - start < 1.0
    # both bounds are reached: by a sum of variables, and by factors in
    # disjoint variables
    assert math.comb(6 + 13 - 1, 13) == len(poly_parse(f"{s}^13", 5).terms) <= limit
    assert len(poly_parse("(t1+t2)^99*(t3+t4)^99", 5).terms) == 100 * 100 == limit


def test_poly_parse_reads_parentheses_up_to_the_nesting_limit():
    # depth is the parentheses open at once, not all of them
    n = algebra.MAX_NESTING
    assert poly_parse("(" * n + "t1-t2" + ")" * n, 2) == poly_parse("t1-t2", 2)
    assert poly_parse("+".join(["(" * n + "t1" + ")" * n] * 3), 2) == poly_parse("3*t1", 2)


def test_poly_render_round_trip_golden():
    p = poly_parse("(t1-t3)*(t3-t2+h)", 3)
    assert poly_parse(p.render(), 3) == p


def test_poly_homogeneity_and_degree():
    assert poly_parse("t1*t2 + h^2", 2).is_homogeneous(2)
    assert not any(poly_parse("t1 + h^2", 2).is_homogeneous(d) for d in range(4))
    assert poly_parse("t1^3", 1).is_homogeneous(3)
    assert Poly(2).is_homogeneous(5)


def test_poly_mod_h():
    p = poly_parse("t1^2 + t1*h + h^2", 1)
    assert p.mod_h() == poly_parse("t1^2", 1)
    assert poly_parse("h*(t1+t2)", 2).mod_h().is_zero()


def reference_divide(p, q):
    """Generic long division: the r with p = q*r, or None.  It recomputes the
    leading term of the remainder at every step, so it is quadratic in the
    number of terms; ``algebra._divide`` is checked against it."""
    r = Poly(p.nvars)
    rem = p
    qe = max(q.terms)
    qc = q.terms[qe]
    while not rem.is_zero():
        re = max(rem.terms)
        rc = rem.terms[re]
        e = tuple(x - y for x, y in zip(unpack(re, p.nvars), unpack(qe, p.nvars)))
        if any(x < 0 for x in e):
            return None
        mono = Poly(p.nvars, {pack(e): algebra._coeff(rc, qc)})
        r = r + mono
        rem = rem - mono * q
    return r


def test_exact_divide():
    p, q = poly_parse("(t1-t2)*(t1+t2+h)", 2), poly_parse("t1+t2+h", 2)
    assert algebra._divide(p, (1, 2, 0)) == reference_divide(p, poly_parse("t1-t2", 2)) == q
    assert algebra._divide(p, (2, 1, 0)) == reference_divide(p, poly_parse("t2-t1", 2)) == -q
    assert algebra._divide(poly_parse("t1^2+1", 2), (1, 2, 0)) is None
    assert reference_divide(poly_parse("t1^2+1", 2), poly_parse("t1-t2", 2)) is None


# ---------------------------------------------------------------------------
# factored classes, integer ratios, rational functions


def test_factored_class_expand():
    char = Character(2, Counter([(1, 2, 0), (2, 1, 1)]))
    e = tangent.euler_class(char)
    assert e.expand() == poly_parse("(t1-t2)*(t2-t1+h)", 2)
    assert e.expand().is_homogeneous(2)


def test_factored_class_rejects_virtual_characters():
    virtual = Character(2, {(1, 2, 0): 1, (2, 1, 0): -1})
    with pytest.raises(errors.NonEffective):
        tangent.euler_class(virtual)


def test_integer_ratio_mod_h():
    e = FactoredClass(2, 1, [((1, 2, 1), 1)])
    assert integer_ratio_mod_h(poly_parse("3*t1-3*t2", 2), e) == 3
    assert integer_ratio_mod_h(poly_parse("h^2", 2), e) == 0
    with pytest.raises(errors.NotProportional):
        integer_ratio_mod_h(poly_parse("t1+t2", 2), e)
    with pytest.raises(errors.NotProportional):
        # proportional only with a non-integer constant
        e2 = FactoredClass(2, 2, [((1, 2, 0), 1)])
        integer_ratio_mod_h(poly_parse("t1-t2", 2), e2)


def reference_integer_ratio_mod_h(p, e):
    """Expand-then-divide: the integer ratio computed by long division of
    modH(p) by the expanded modH(e), as before it divided by linear factors."""
    den = e.expand().mod_h()
    if den.is_zero():
        raise ValueError("denominator vanishes mod h")
    num = p.mod_h()
    if num.is_zero():
        return 0
    q = reference_divide(num, den)
    if q is None:
        raise errors.NotProportional(f"{num.render()} vs {den.render()}")
    if not q.is_constant():
        raise errors.NotProportional(f"ratio {q.render()} is not constant")
    c = q.constant_value()
    if c.denominator != 1:
        raise errors.NotProportional(f"ratio {c} is not an integer")
    return int(c)


def recorded_ratio_calls(monkeypatch):
    """Every (p, e) that stable_envelopes passes to integer_ratio_mod_h on the
    fixtures, the perturbed test data and T*P^1..T*P^4 in both chambers."""
    calls = []
    original = algebra.integer_ratio_mod_h

    def record(p, e):
        calls.append((p, e))
        return original(p, e)

    monkeypatch.setattr(algebra, "integer_ratio_mod_h", record)
    tstar = tstar_module()
    sources = sorted(FIXTURES.glob("*.json")) + sorted(DATA.glob("*_perturbed.json"))
    sources += [tstar.attraction_data(n, opposite=o) for n in range(2, 6) for o in (False, True)]
    for source in sources:
        envelope.stable_envelopes(envelope.load_attraction_data(source))
    monkeypatch.undo()
    return calls


def perturbed_ratio_cases(p, e, rng):
    """(p, e) and variations of it that reach every exit of the ratio: an
    integer, a multiple of h, a random extra monomial, a non-constant or a
    non-integer ratio, a squared or no weight, and a denominator that
    vanishes mod h."""
    n = e.nvars
    den = e.expand()
    degree = sum(exp for _, exp in e.factors)
    exps = [0] * (n + 1)
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    mono = Poly(n, {pack(exps): rng.choice([-2, -1, 1, 3])})
    h = Poly.variable(n, 0)
    yield p, e
    yield p * 2 + h * mono, e
    yield p + den * rng.choice([-1, 2]), e
    yield p + mono, e
    yield p + den * poly_parse(f"t1 - t{n}", n) * Fraction(1, 2), e
    yield p + den * Fraction(1, 2), e
    yield p, e * 2
    w = e.factors[0][0]  # a squared factor
    yield p * weight_poly(w, n), FactoredClass(n, e.constant, e.factors + ((w, 1),))
    yield p, FactoredClass(n, 3)
    yield h * mono - 6, FactoredClass(n, -3)
    yield p, FactoredClass(n, 1, e.factors + (((0, 0, 1), 1),))
    yield p, FactoredClass(n, 0, e.factors)


def test_integer_ratio_matches_expand_then_divide(monkeypatch):
    def outcome(ratio, p, e):
        try:
            a = ratio(p, e)
        except (errors.NotProportional, ValueError) as exc:
            return type(exc), str(exc)
        assert type(a) is int
        return a

    calls = recorded_ratio_calls(monkeypatch)
    assert len(calls) == 62  # one per pair q < p: 10 + 2 + 6 fixtures, 4 perturbed, 2 * 20 T*P
    rng = random.Random(20261018)
    kinds = Counter()
    for p, e in calls:
        for case in perturbed_ratio_cases(p, e, rng):
            expected = outcome(reference_integer_ratio_mod_h, *case)
            assert outcome(integer_ratio_mod_h, *case) == expected, case
            if type(expected) is int:
                kinds["nonzero" if expected else "zero"] += 1
            else:  # "... vs ...", "... is not constant", "... an integer", "... mod h"
                kinds["vs" if " vs " in expected[1] else expected[1].split()[-1]] += 1
    assert kinds.keys() == {"zero", "nonzero", "vs", "constant", "integer", "h"}, kinds


def test_rational_fn_cancellation():
    num = poly_parse("(t1-t2)*(t1-t2+h)", 2)
    den = FactoredClass(2, 1, [((1, 2, 0), 1)])
    r = RationalFn(num, den)
    assert r.is_polynomial()
    assert r == poly_parse("t1-t2+h", 2)
    with pytest.raises(ZeroDivisionError):  # a zero weight makes the class zero
        RationalFn(num, FactoredClass(2, 1, [((0, 0, 0), 1)]))


def test_rational_fn_arithmetic():
    den1 = FactoredClass(2, 1, [((1, 2, 0), 1)])
    den2 = FactoredClass(2, 1, [((2, 1, 0), 1)])
    one = Poly.const(2, 1)
    # 1/(t1-t2) + 1/(t2-t1) = 0
    total = RationalFn(one, den1) + RationalFn(one, den2)
    assert total == 0
    assert RationalFn(one * poly_parse("t1-t2", 2), den1) == 1


def test_rational_fn_is_unhashable():
    # 1/(t1-t2) and -1/(t2-t1) are equal, but their (num, den) differ, so
    # no hash of (num, den) could agree with ==
    one = Poly.const(2, 1)
    a = RationalFn(one, FactoredClass(2, 1, [((1, 2, 0), 1)]))
    b = RationalFn(-one, FactoredClass(2, 1, [((2, 1, 0), 1)]))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a, b}
    # nothing keys a set or a memo by a Poly or a FactoredClass, so neither
    # defines a hash beside its ==
    for value in (one, a.den, FactoredClass(2, 3, [((1, 2, 1), 2)])):
        with pytest.raises(TypeError):
            hash(value)


# ---------------------------------------------------------------------------
# property tests

exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
polys = st.dictionaries(
    exponents, st.integers(min_value=-9, max_value=9), max_size=5
).map(lambda terms: Poly(2, {pack(e): Fraction(c) for e, c in terms.items()}))


character_terms = st.dictionaries(
    st.sampled_from(KEYS), st.integers(min_value=-3, max_value=3), max_size=12
).map(Counter)


def in_canonical_order(char):
    return list(char.terms) == sorted(char.terms, key=weight_sort_key)


@settings(max_examples=80, deadline=None)
@given(character_terms, st.integers(min_value=1, max_value=4), st.permutations((1, 2, 3, 4)))
def test_character_terms_iterate_in_canonical_order(terms, k, pi):
    # every Character keeps the weight_sort_key order that its readers
    # (render, weights, to_json, FactoredClass) rely on without sorting
    char = Character(4, terms)
    assert in_canonical_order(char) and 0 not in char.terms.values()
    assert char.terms == {w: n for w, n in terms.items() if n}
    assert in_canonical_order(involution_image(char))
    assert in_canonical_order(hw_twist(char, k, 1))
    tc = tangent.TangentCharacter("X", Character(4, {w: n for w, n in terms.items() if w[0]}))
    split = tangent.chamber_split(tc, pi)
    assert in_canonical_order(split.plus) and in_canonical_order(split.minus)
    effective = Character(4, {w: abs(n) for w, n in terms.items()})
    # the sorted construction that euler_class skipped
    sorted_class = FactoredClass(4, 1, list(effective.terms.items()))
    assert tangent.euler_class(effective) == sorted_class


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
    assert reference_divide(p * q, q) == p


# exact division by a weight (the synthetic-division path)


@st.composite
def poly_and_weight(draw):
    """(p, w, g) over 1 to 3 variables t_i and h: a polynomial p with int and
    Fraction coefficients, a weight key w of every kind (i < j, i > j, m*h) and
    a nonzero constant-free cofactor g (so w*g is not linear)."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * (nvars + 1))
    coeffs = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
    )

    def poly(terms):
        return Poly(nvars, {pack(e): c for e, c in terms.items()})

    p = poly(draw(st.dictionaries(exps, coeffs, max_size=6)))
    kind = draw(st.sampled_from(["i<j", "i>j", "h"] if nvars > 1 else ["h"]))
    if kind == "h":
        w = (0, 0, draw(st.sampled_from([1, -1, 2, -2])))
    else:
        pair = draw(st.lists(st.integers(1, nvars), min_size=2, max_size=2, unique=True))
        i, j = sorted(pair, reverse=kind == "i>j")
        w = (i, j, draw(st.sampled_from([-1, 1, 2, -2, 0])))
    g = poly(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))
    g = g - g.constant_value()
    assume(not g.is_zero())
    return p, w, g


def test_exact_divide_linear_cases():
    # one weight of each kind and scale: the quotient is divided by the scale
    # 1, -1 or m last
    p = poly_parse("t1^2 - 3*t1*h + 5", 2)
    for w in ((1, 2, 2), (2, 1, -1), (2, 1, 0), (0, 0, 1), (0, 0, -2)):
        wp = weight_poly(w, 2)
        assert algebra._divide(p * wp, w) == p
        assert algebra._divide(Poly(2), w).is_zero()
        assert algebra._divide(p * wp + 1, w) is None
    assert algebra._divide(poly_parse("h", 2), (0, 0, 2)) == Poly.const(2, Fraction(1, 2))
    assert algebra._divide(poly_parse("t1^2*t2", 2), (1, 2, 0)) is None
    with pytest.raises(ValueError, match="weight -t1\\+t3 over 2 variables"):
        algebra._divide(p, (3, 1, 0))


@settings(max_examples=150, deadline=None)
@example((Poly(2), (0, 0, 1), Poly.variable(2, 1)))
@given(poly_and_weight())
def test_exact_divide_by_linear_form(pwg):
    p, w, _ = pwg
    wp = weight_poly(w, p.nvars)
    assert algebra._divide(p * wp, w) == p
    assert algebra._divide(p * wp + 1, w) is None


@settings(max_examples=150, deadline=None)
@given(poly_and_weight())
def test_linear_path_matches_generic_loop(pwg):
    p, w, g = pwg
    wp = weight_poly(w, p.nvars)
    f = p * wp * g
    generic = reference_divide(f, wp * g)
    assert generic == p
    assert algebra._divide(f, w) == reference_divide(f, wp) == generic * g
    assert reference_divide((p * wp + 1) * g, wp * g) is None


# coefficients stay ints; a Fraction appears only where a division leaves a
# remainder


def assert_clean(p):
    """Every coefficient of p is an int or a Fraction that is not integral."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def weight(i, j, m):
    """The key of t_i - t_j + m*h."""
    return (i, j, m) if i != j else (0, 0, m)


mixed_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
mixed_polys = st.dictionaries(exponents, mixed_coeffs, max_size=5).map(
    lambda terms: Poly(2, {pack(e): c for e, c in terms.items()})
)
weights2 = st.builds(
    weight,
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(-2, 2),
).filter(lambda w: w != (0, 0, 0))


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
    e = FactoredClass(2, Fraction(-6, 3), [(w, k + 1), ((1, 2, 0), 1)])
    assert type(e.constant) is int
    assert all(type(c) is int for c in e.expand().terms.values())
    assert all(type(c) is int for c in weight_poly(w, 2).terms.values())


@settings(max_examples=100, deadline=None)
@given(polys, st.sampled_from([(1, 2, 2), (2, 1, -1), (0, 0, 2), (0, 0, -2)]), st.booleans())
def test_exact_divide_keeps_coefficients_clean(p, w, generic):
    # w = scale*H(key) with scale 1, -1, 2 or -2, and c*h leads it with c = 2,
    # -1, 2 or -2; c*h*t1 leads the nonlinear divisor of the reference loop;
    # 3^40 + 1 is past a float's 53-bit mantissa, so a float quotient anywhere
    # comes out wrong
    p = p * (3**40 + 1) + 3**40
    key, scale = algebra.hyperplane(w)
    g = poly_parse("t1 + 1", 2) if generic else Poly.const(2, 1)
    q = weight_poly(w, 2) * g

    def divide(f):  # f / q
        return reference_divide(f, q) if generic else algebra._divide(f, w)

    assert divide(p * q) == p
    assert_clean(divide(p * q))
    part = divide(p * weight_poly(key, 2) * g)  # p / scale: Fractions where p is odd
    assert part * scale == p
    assert_clean(part)
    assert divide(p * q + 1) is None


@settings(max_examples=60, deadline=None)
@given(
    polys,
    weights2,
    st.sampled_from([1, 2, -1, Fraction(4, 2), Fraction(1, 3)]),
    st.integers(min_value=0, max_value=2),
)
def test_rational_functions_keep_coefficients_clean(p, w, c, k):
    den = FactoredClass(2, c, [(w, 1), ((1, 2, 1), 1)])
    r = RationalFn(p * weight_poly(w, 2) ** k, den)
    s = RationalFn(p + 1, FactoredClass(2, 1, [(w, 2)]))
    # products are built in the numerator and the denominator
    r_s, r_3 = RationalFn(r.num * s.num, r.den * s.den), RationalFn(r.num * 3, r.den)
    for x in (r, s, r + s, r_s, r_3, r + Fraction(1, 2)):
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
    wp = weight_poly(w, 2)
    p = base * wp + c  # remainder c != 0, so w does not divide p
    r = RationalFn(p * wp**k, FactoredClass(2, 1, [(w, j)]))
    assert r.den.factors == (((w, j - k),) if j > k else ())
    assert r.num == p * wp ** max(k - j, 0)


# hyperplanes and restriction to them


def all_weights(n=4, ms=range(-3, 4)):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return [(i, j, m) for i, j in pairs for m in ms] + [(0, 0, m) for m in ms if m]


def test_hyperplane_key_and_scale():
    for w in all_weights():
        key, scale = algebra.hyperplane(w)
        assert weight_poly(w, 4) == scale * weight_poly(key, 4), w
        assert key[0] < key[1] or key == (0, 0, 1)
        i, j, m = w
        if i != j:
            assert algebra.hyperplane((j, i, -m)) == (key, -scale)
    assert algebra.hyperplane((0, 0, -3)) == ((0, 0, 1), -3)


def test_restrict_kills_its_hyperplane_and_restricts_weights():
    keys = {algebra.hyperplane(w)[0] for w in all_weights()}
    for key in keys:
        assert algebra.restrict(weight_poly(key, 4), key).is_zero(), key
        for w in all_weights(ms=range(-2, 3)):
            image = algebra.restrict(weight_poly(w, 4), key)
            assert image == weight_poly(algebra.restrict_weight(w, key), 4), (w, key)
            # the image is free of the eliminated variable t_i (or of h)
            slot = key[0] - 1 if key[0] != key[1] else 4
            assert all(unpack(e, 4)[slot] == 0 for e in image.terms)
    assert algebra.restrict_weight((1, 2, 3), (1, 2, 3)) == (0, 0, 0)


keys2 = st.sampled_from([(1, 2, 0), (1, 2, 1), (1, 2, -2), (0, 0, 1)])


@settings(max_examples=100, deadline=None)
@given(polys, polys, keys2)
def test_restrict_is_a_ring_homomorphism(p, q, key):
    r = algebra.restrict
    assert r(p * q, key) == r(p, key) * r(q, key)
    assert r(p + q, key) == r(p, key) + r(q, key)
    # restriction along H changes p by a multiple of H
    assert algebra._divide(p - r(p, key), key) is not None


weights3 = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(-2, 2)).filter(
        lambda w: w[0] != w[1]
    ),
    st.tuples(st.just(0), st.just(0), st.sampled_from([1, -1, 2, -2])),
)
polys3 = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 4), mixed_coeffs, max_size=6
).map(lambda terms: Poly(3, {pack(e): c for e, c in terms.items()}))


@settings(max_examples=300, deadline=None)
@example(poly_parse("2*h*t2^2*t3 + h*t3 + t1", 3) * Fraction(1, 2), (0, 0, -1))
@given(polys3, weights3)
def test_restriction_is_the_remainder_of_division(p, w):
    # restrict and _divide read one synthetic division: w divides f exactly
    # when f vanishes on its hyperplane.  Dividing by m*h twice divides
    # polynomials with powers of h of 2 or more
    key, _ = algebra.hyperplane(w)
    wp = weight_poly(w, 3)
    for f in (p, p * wp, p * wp + 1):
        assert (algebra._divide(f, w) is None) == bool(algebra.restrict(f, key)), f
    assert algebra._divide(p * wp, w) == p
    assert algebra._divide(p * wp**2, w) == p * wp
    assert algebra.restrict(p, (0, 0, 1)) == p.mod_h()


def test_restrict_keeps_int_coefficients():
    p = poly_parse("(t1 + 2*h)^3*t2 - 5*t1*h^2", 3)
    image = algebra.restrict(p, (1, 3, -2))  # t1 -> t3 + 2*h
    assert image == poly_parse("(t3 + 4*h)^3*t2 - 5*(t3 + 2*h)*h^2", 3)
    assert all(type(c) is int for c in image.terms.values())


# packed monomials against the tuple-exponent kernel they replaced


def tuple_key(exps):
    """Reference: the canonical term order on exponent tuples (e_1, ..., e_N, e_h),
    graded, then the power of h, then t_1..t_N lexicographically."""
    return (sum(exps), exps[-1], exps[:-1])


def tuple_mul(a, b):
    """Reference: the product of two {exponent tuple: coefficient} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def tuple_restrict(terms, nvars, key):
    """Reference: ``algebra.restrict`` on exponent tuples, Horner's rule on the
    powers of t_i."""
    i, j, m = key
    if i == j:
        return {e: c for e, c in terms.items() if e[-1] == 0}
    i, j, h = i - 1, j - 1, nvars
    levels = {}
    for e, c in terms.items():
        levels.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
    acc = {}
    for k in range(max(levels, default=0), -1, -1):
        nxt = levels.get(k, {})
        for e, c in acc.items():  # nxt += acc * (t_j - m*h)
            for x, d in ((j, c), (h, -m * c)):
                if d:
                    f = e[:x] + (e[x] + 1,) + e[x + 1 :]
                    nxt[f] = nxt.get(f, 0) + d
        acc = nxt
    return {e: c for e, c in acc.items() if c}


def tuple_render(terms):
    """Reference: ``Poly.render`` of a {exponent tuple: coefficient} dict."""
    out = ""
    for e, c in sorted(terms.items(), key=lambda ec: tuple_key(ec[0]), reverse=True):
        parts = ["h" if e[-1] == 1 else f"h^{e[-1]}"] if e[-1] else []
        parts += [f"t{k + 1}" if x == 1 else f"t{k + 1}^{x}" for k, x in enumerate(e[:-1]) if x]
        mono, mag = "*".join(parts), abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


def packed(nvars, terms):
    return Poly(nvars, {pack(e): c for e, c in terms.items()})


def unpacked(p):
    return {unpack(e, p.nvars): c for e, c in p.terms.items()}


def test_a_restriction_is_kept_on_its_poly():
    # a Poly never changes, so restricting it again returns the same object;
    # an equal Poly built apart restricts to an equal one of its own
    terms = {(2, 1, 0, 1): 3, (0, 0, 2, 0): -1, (1, 0, 0, 0): 5, (0, 0, 0, 2): 7}
    p, q = packed(3, terms), packed(3, terms)
    for key in ((1, 3, -2), (2, 1, 1), (0, 0, 1)):
        image = algebra.restrict(p, key)
        assert algebra.restrict(p, key) is image
        assert unpacked(image) == tuple_restrict(terms, 3, key)
        assert algebra.restrict(q, key) == image and algebra.restrict(q, key) is not image


@st.composite
def tuple_polys(draw):
    """Over 1..3 variables t_i and h: two polynomials as {exponent tuple:
    coefficient}, a weight of any kind and a restriction key (i, j, m)."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * (nvars + 1))
    coeffs = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    ).filter(bool)
    a, b = (draw(st.dictionaries(exps, coeffs, max_size=6)) for _ in range(2))
    keys = [(0, 0, 1)] + [
        (i, j, m)
        for i in range(1, nvars + 1)
        for j in range(1, nvars + 1)
        for m in (-2, 0, 1)
        if i != j
    ]
    weights = keys + [(0, 0, m) for m in (-1, 2, -2)]
    return nvars, a, b, draw(st.sampled_from(weights)), draw(st.sampled_from(keys))


@settings(max_examples=200, deadline=None)
@example(  # the weight is h; t1 is eliminated onto t3 - h
    (3, {(0, 0, 3, 1): 1, (0, 3, 0, 1): 2, (1, 0, 0, 0): -1}, {}, (0, 0, 1), (1, 3, 1))
)
@given(tuple_polys())
def test_packed_kernel_matches_tuple_references(case):
    n, a, b, w, key = case
    p, q = packed(n, a), packed(n, b)
    for terms, x in ((a, p), (b, q)):
        assert unpacked(x) == terms
        assert x.render() == tuple_render(terms)
        if terms:
            assert unpack(max(x.terms), n) == max(terms, key=tuple_key)
            assert x.degree() == max(map(sum, terms))
        degrees = {sum(e) for e in terms}
        for deg in degrees | {0}:
            assert x.is_homogeneous(deg) == (degrees <= {deg})
        assert unpacked(algebra.restrict(x, key)) == tuple_restrict(terms, n, key)
        assert unpacked(x.mod_h()) == tuple_restrict(terms, n, (0, 0, 1))
    assert unpacked(p * q) == tuple_mul(a, b)
    # quotients: w divides p * w, and mostly not p * w + q or p (None)
    wp = weight_poly(w, n)
    pw = p * wp
    assert algebra._divide(pw, w) == reference_divide(pw, wp) == p
    for f in (pw + q, p):
        assert algebra._divide(f, w) == reference_divide(f, wp)


def test_pack_and_unpack_are_inverse():
    for n in (1, 2, 4):
        for exps in itertools.product(range(3), repeat=n + 1):
            assert unpack(pack(exps), n) == exps
    assert pack((0, 0, 0)) == 0
    assert sorted(itertools.product(range(3), repeat=4), key=pack) == sorted(
        itertools.product(range(3), repeat=4), key=tuple_key
    )
    with pytest.raises(ValueError):
        pack((1, -1, 0))


def reference_evaluate(p, point):
    """Poly.evaluate before it read exponents in place: every coordinate
    raised to its exponent, 0 included, in every term."""
    return sum(c * math.prod(map(pow, point, unpack(e, p.nvars))) for e, c in p.terms.items())


@st.composite
def polys_and_points(draw):
    """A polynomial over 1 to 4 variables t_i and h with int and Fraction
    coefficients, and a point (t_1, ..., t_N, h) of ints and Fractions, h != 0."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * (nvars + 1))
    coeffs = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
    )
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    coords = st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.fractions(min_value=-50, max_value=50, max_denominator=7),
    )
    ts = draw(st.lists(coords, min_size=nvars, max_size=nvars))
    point = (*ts, draw(coords.filter(bool)))
    return Poly(nvars, {pack(e): c for e, c in terms.items()}), point


@settings(max_examples=200, deadline=None)
@example((Poly.const(2, 5), (0, Fraction(1, 2), 7)))
@given(polys_and_points())
def test_evaluate_matches_the_formula_over_every_coordinate(case):
    p, point = case
    assert p.evaluate(point) == reference_evaluate(p, point)


def test_products_past_the_degree_limit_raise():
    top = algebra.MAX_DEGREE
    t1, t2, h = (Poly.variable(2, i) for i in (1, 2, 0))
    p = t1 ** (top - 55) * t2**55
    assert p.degree() == top and p.render() == f"t1^{top - 55}*t2^55"
    assert (t1**top).render() == f"t1^{top}"
    # t1^(top + 1) would carry out of t1's field into h's
    for x, y in ((p, t1), (t1**128, t1**128), (t1**top, h + t1)):
        with pytest.raises(errors.DegreeLimit) as exc:
            x * y
        assert str(exc.value) == f"degree {top + 1} is past the limit {top}"
    with pytest.raises(errors.DegreeLimit):
        t1 ** (top + 1)
    with pytest.raises(errors.DegreeLimit):
        pack((top, 0, 1))
    with pytest.raises(errors.DegreeLimit):
        poly_parse(f"t1^{top - 1} * (t2 + h)^2", 2)


def test_equal_factored_classes_share_one_expansion():
    # the expansion memo is keyed by value: equal classes built apart return
    # one Poly, and a class over more variables its own
    a = FactoredClass(3, 2, [((1, 2, 0), 1), ((2, 3, 1), 2)])
    b = FactoredClass(3, 2, [((2, 3, 1), 1), ((1, 2, 0), 1), ((2, 3, 1), 1)])
    assert a == b and a is not b
    assert a.expand() is b.expand()
    assert a.expand() == reference_expand(a) == reference_expand(b)
    assert a.render() == b.render() == reference_render_factored(b) == "2*(t1-t2)*(t2-t3+h)^2"
    wider = FactoredClass(4, 2, a.factors)
    assert wider.expand().nvars == 4 and wider.expand() != a.expand()
    assert wider.expand().render() == a.expand().render()


def test_cached_poly_render_matches_a_fresh_one():
    # each Poly keeps its own rendering: polynomials of equal shape, and the
    # sums made from them, render as fresh ones do
    cases = {
        "0": ("0", "0"),
        "7": ("7", "14"),
        "t1-t2+h": ("h + t1 - t2", "2*h + 2*t1 - 2*t2"),
        "t2-t3+h": ("h + t2 - t3", "2*h + 2*t2 - 2*t3"),
        "-t1^2*h + 5": ("-h*t1^2 + 5", "-2*h*t1^2 + 10"),
    }
    polys = {text: poly_parse(text, 3) for text in cases}
    for _ in range(2):
        for text, (once, twice) in cases.items():
            p = polys[text]
            assert p.render() == once == Poly(3, dict(p.terms)).render()
            assert p.render() is p.render()
            assert (p + p).render() == twice and (p * 1).render() == once
