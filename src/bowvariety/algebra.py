"""Exact symbolic kernel: weights, characters, polynomials, Euler classes.

Coefficients are Python ints; a ``fractions.Fraction`` appears only where a
division leaves a remainder, and there is no floating point anywhere in the
package.  The base ring is Q[t_1, ..., t_N, h].  Every torus weight of a
tangent space is ``t_i - t_j + m*h``, and a *weight* is the plain tuple key
``(i, j, m)`` for it; a weight of zero A-part is keyed ``(0, 0, m)``.  A
*character* is a finite multiset of weights with (possibly negative,
mid-computation) integer multiplicities, written additively.  A polynomial
maps packed monomials to coefficients: each monomial is one int, so that
multiplying two monomials is one integer add and comparing two is the term
order.  Factored classes are products of weights, and rational functions
cancel weights from their denominators.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import errors

# ---------------------------------------------------------------------------
# weights


def weight_sort_key(w):
    """Sort key of the weight ``(i, j, m)``: the order of ``(m, a)``, with
    ``a`` the coefficient vector of t_1..t_N, read off without building it."""
    i, j, m = w
    if i < j:  # a = (0.., 1 at i, 0.., -1 at j, 0..)
        return (m, 1, -i, j)
    if i > j:  # a = (0.., -1 at j, 0.., 1 at i, 0..)
        return (m, -1, j, -i)
    return (m, 0, 0, 0)


# Each output memo below keeps at most this many values: a flag pass renders
# 84 weights in 168 terms 45,360 times, a sweep pass expands 338 Euler classes
OUTPUT_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=OUTPUT_CACHE_SIZE)
def render_weight(w):
    """``t1-t3+2*h``, ``-t1+t2-h``; a zero A-part prints ``h``, ``-2*h``, ``0``."""
    i, j, m = w
    out = "" if i == j else f"t{i}-t{j}" if i < j else f"-t{j}+t{i}"
    if m:
        body = "h" if m in (1, -1) else f"{abs(m)}*h"
        out += f"-{body}" if m < 0 else f"+{body}" if out else body
    return out or "0"


@functools.lru_cache(maxsize=OUTPUT_CACHE_SIZE)
def _term_text(w, n, factor=False):
    """The term ``n*(w)`` of a character, or the ``factor`` ``(w)^n`` of a product."""
    text = render_weight(w)
    if factor:
        return f"({text})" if n == 1 else f"({text})^{n}"
    return text if n == 1 else f"{n}*({text})"


def weight_poly(w, nvars):
    """The weight ``(i, j, m)`` as a polynomial in t_1..t_N, h (N = nvars)."""
    i, j, m = w
    if max(i, j) > nvars:
        raise ValueError(f"weight {render_weight(w)} over {nvars} variables")
    terms = {_unit(nvars, 0): m}
    if i != j:
        terms[_unit(nvars, i)], terms[_unit(nvars, j)] = 1, -1
    return Poly(nvars, terms)


def hyperplane(w):
    """``(key, scale)`` with ``w = scale * H(key)``: ``(i, j, m)`` and ``(j, i, -m)``
    share the key with ``i < j``, and ``(0, 0, m)`` is ``m`` times h, keyed ``(0, 0, 1)``."""
    i, j, m = w
    return (w, 1) if i < j else ((j, i, -m), -1) if i > j else ((0, 0, 1), m)


def restrict_weight(w, key):
    """The weight ``w`` on the hyperplane ``H(key) = 0``, again a weight key;
    ``(0, 0, 0)`` when ``w`` is a multiple of ``H(key)``."""
    i, j, m = w
    a, b, c = key
    if a == b:  # h -> 0
        return (i, j, 0) if i != j else (0, 0, 0)
    if i == a:  # t_a -> t_b - c*h
        i, m = b, m - c
    if j == a:
        j, m = b, m + c
    return (i, j, m) if i != j else (0, 0, m)


def restrict(p, key):
    """``p`` on the hyperplane ``H(key) = 0`` (``t_i -> t_j - m*h`` for the key
    ``(i, j, m)``, ``h -> 0`` for ``(0, 0, 1)``): the remainder of :func:`_horner`.
    A Poly never changes, so each restriction is kept on ``p``, once per key."""
    if not hasattr(p, "_restrictions"):
        p._restrictions = {}
    if key not in p._restrictions:
        p._restrictions[key] = Poly(p.nvars, _horner(p, key)[0])
    return p._restrictions[key]


def _horner(p, key):
    """Synthetic division of ``p = sum_k x^k P_k`` by ``H(key) = x - s``, x its
    first variable (t_i, or h for ``(0, 0, 1)``): ``S_{k-1} = P_k + s*S_k`` from
    the top power down, and ``R = P_0 + s*S_0 = p|_H``, so that
    ``p = H(key) * sum_k x^{k-1} S_{k-1} + R``.  Returns the levels, filled in
    place: ``levels[0]`` is R and ``levels[k]`` is S_{k-1}, each a dict of
    monomials free of x that may hold zeros."""
    i, j, m = key
    n = p.nvars
    shift, x, tj, h = (n - i) * WIDTH, _unit(n, i), _unit(n, j), _unit(n, 0)
    levels = {0: {}}
    for e, c in p.terms.items():
        k = e >> shift & MAX_DEGREE
        levels.setdefault(k, {})[e - k * x] = c
    if i == j:  # x = h and s = 0: the grouping by powers of h is the division
        return levels
    acc = {}
    for k in range(max(levels), -1, -1):
        nxt = levels.setdefault(k, {})
        for e, c in acc.items():  # nxt += acc * (t_j - m*h)
            for f, d in ((e + tj, c), (e + h, -m * c)):
                if d:
                    nxt[f] = nxt.get(f, 0) + d
        acc = nxt
    return levels


def _divide(p, w):
    """``p / w`` for a weight ``w = scale * H(key)``, or None when ``w`` does not
    divide ``p``: ``sum_k x^{k-1} S_{k-1} / scale`` from :func:`_horner` when its
    remainder is 0.  No coefficient is divided before the scale."""
    if max(w[:2]) > p.nvars:
        raise ValueError(f"weight {render_weight(w)} over {p.nvars} variables")
    key, scale = hyperplane(w)
    levels = _horner(p, key)
    if any(levels.pop(0).values()):
        return None
    x, quotient = _unit(p.nvars, key[0]), {}
    for k, level in levels.items():
        for e, c in level.items():
            quotient[e + (k - 1) * x] = _coeff(c, scale)
    return Poly(p.nvars, quotient)


# ---------------------------------------------------------------------------
# characters


class Character:
    """Finite integer-multiplicity multiset of weights (additive notation).

    Negative multiplicities are legal mid-computation (virtual characters);
    finished tangent characters must be effective.  ``terms`` holds no zero
    and keeps the canonical order of :func:`weight_sort_key`, sorted once
    here: its readers rely on it, and code that writes ``terms`` keeps it.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = {w: terms[w] for w in sorted(terms, key=weight_sort_key) if terms[w]}

    def __eq__(self, other):
        return isinstance(other, Character) and self.terms == other.terms

    def is_effective(self):
        return all(m > 0 for m in self.terms.values())

    def total(self):
        """Total multiplicity = dimension of the represented space."""
        return sum(self.terms.values())

    def weights(self):
        """All weights with multiplicity, canonically sorted."""
        return [w for w, n in self.terms.items() for _ in range(n)]

    def render(self):
        return " + ".join(itertools.starmap(_term_text, self.terms.items())) or "0"

    def __repr__(self):
        return f"Character({self.render()})"


# ---------------------------------------------------------------------------
# polynomials

# A monomial h^e_h * t_1^e_1 * ... * t_N^e_N is one int of WIDTH-bit fields,
# [degree | e_h | e_1 | ... | e_N] from the most significant down.  Each
# field is at most the degree, and the degree at most MAX_DEGREE, so adding
# two monomials multiplies them.  Comparing the ints compares the degree, then
# the power of h, then t_1..t_N lexicographically: the canonical term order.

WIDTH = 8
MAX_DEGREE = (1 << WIDTH) - 1


def _unit(nvars, i):
    """The packed t_i for i in 1..N, or h for i = 0: one in its field and the degree."""
    return 1 << (nvars + 1) * WIDTH | 1 << (nvars - i) * WIDTH


def unpack(e, nvars):
    """The exponent tuple ``(e_1, ..., e_N, e_h)`` of the packed monomial ``e``."""
    return tuple(e >> (nvars - i) * WIDTH & MAX_DEGREE for i in (*range(1, nvars + 1), 0))


def _coeff(a, c=1):
    """The coefficient a / c, exactly: an int when it is integral, else a Fraction."""
    if type(a) is int and type(c) is int and not a % c:
        return a // c
    f = Fraction(a) / c
    return f.numerator if f.denominator == 1 else f


class Poly:
    """Exact polynomial in t_1..t_N, h over Q: packed monomial -> nonzero coefficient.
    Nothing writes ``terms`` after ``__init__``, so a Poly is shared and keeps
    its rendering and its restrictions to hyperplanes (:func:`restrict`)."""

    __slots__ = ("nvars", "terms", "_text", "_restrictions")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = out = {}
        for e, c in terms.items() if terms else ():
            if type(c) is not int:
                c = _coeff(c)
            if c:
                out[e] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {0: c})

    @classmethod
    def variable(cls, nvars, i):
        """t_i for i in 1..N, or h for i = 0."""
        return cls(nvars, {_unit(nvars, i): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return self.terms.keys() <= {0}

    def constant_value(self):
        return self.terms.get(0, 0)

    def degree(self):
        """The total degree (0 for the zero polynomial)."""
        return max(self.terms, default=0) >> (self.nvars + 1) * WIDTH

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        degree = self.degree() + other.degree()
        if degree > MAX_DEGREE:
            raise errors.DegreeLimit(f"degree {degree} is past the limit {MAX_DEGREE}")
        out = {}
        get = out.get
        pairs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        degree = self.degree() * n
        if degree > MAX_DEGREE:
            raise errors.DegreeLimit(f"degree {degree} is past the limit {MAX_DEGREE}")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def mod_h(self):
        """Substitute h -> 0 (delete every monomial containing h)."""
        shift = self.nvars * WIDTH
        terms = {e: c for e, c in self.terms.items() if not e >> shift & MAX_DEGREE}
        return Poly(self.nvars, terms)

    def is_homogeneous(self, d):
        """Every term has degree d (so the zero polynomial has every degree)."""
        shift = (self.nvars + 1) * WIDTH
        return all(e >> shift == d for e in self.terms)

    def evaluate(self, point):
        """The exact value at ``point`` = (t_1, ..., t_N, h), ints or Fractions."""
        n = self.nvars
        return sum(c * math.prod(map(pow, point, unpack(e, n))) for e, c in self.terms.items())

    def _render_monomial(self, e):
        *ts, h = unpack(e, self.nvars)
        parts = []
        if h:
            parts.append("h" if h == 1 else f"h^{h}")
        for k, exp in enumerate(ts):
            if exp:
                parts.append(f"t{k + 1}" if exp == 1 else f"t{k + 1}^{exp}")
        return "*".join(parts)

    def render(self):
        """Canonical rendering in the expression grammar.

        Terms appear in descending canonical order; the heaviest variable h
        is written first inside each monomial.
        """
        if hasattr(self, "_text"):
            return self._text
        out = ""
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = self._render_monomial(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not out:
                out = body if c > 0 else f"-{body}"
            else:
                out += f" + {body}" if c > 0 else f" - {body}"
        self._text = out or "0"
        return self._text

    def __repr__(self):
        return f"Poly({self.render()})"


# ---------------------------------------------------------------------------
# expression parser
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' uint)?
# atom   := int | 't' uint | 'h' | '(' expr ')'
#
# The optional leading '-' is a strict extension of the grammar so that
# canonical renderings (which may start with a negative term) round-trip.
#
# Python converts ints to and from text only up to MAX_DIGITS digits (its
# default limit), so the parser rejects a longer literal or coefficient, and
# every Poly it returns renders.  It also refuses a product or power that
# could have more than MAX_TERMS terms before computing it: p*q has at most
# T_p*T_q terms, and p^n at most C(T_p+n-1, n), T_p being the terms of p.
# Each level of parentheses costs four frames of Python's recursion limit
# (1,000 by default), so nesting past MAX_NESTING is refused as well.
MAX_DIGITS = 4300
MAX_TERMS = 10_000
MAX_NESTING = 100
_COEFF_BOUND = 10**MAX_DIGITS
_COEFF_BITS = _COEFF_BOUND.bit_length()


class _Tokens:
    def __init__(self, src, degree):
        self.src = src
        self.pos = 0
        self.degree = degree
        self.depth = 0  # of the parentheses open at pos

    def peek(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.src):
            return None
        return self.src[self.pos]

    def error(self, message):
        raise errors.SyntaxError(message, self.pos)

    def take_uint(self):
        start = self.pos
        while self.pos < len(self.src) and "0" <= self.src[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected a digit")
        if self.pos - start > MAX_DIGITS:
            raise errors.SyntaxError(f"an integer of more than {MAX_DIGITS} digits", start)
        return int(self.src[start : self.pos])

    def check_degree(self, degree):
        """Refuse a product or power of this degree before it is computed
        (past MAX_DEGREE, Poly raises DegreeLimit itself)."""
        if self.degree < degree <= MAX_DEGREE:
            raise errors.HomogeneityViolation(f"degree {degree} is past {self.degree}")

    def check_terms(self, bound):
        """Refuse a product or power that could have more than MAX_TERMS terms."""
        if bound > MAX_TERMS:
            self.error(f"a product that could have more than {MAX_TERMS} terms")

    def bounded(self, p):
        """p, unless a coefficient has more than MAX_DIGITS digits."""
        if any(abs(c) >= _COEFF_BOUND for c in p.terms.values()):
            self.error(f"a coefficient of more than {MAX_DIGITS} digits")
        return p


def _parse_expr(tok, nvars):
    negate = tok.peek() == "-"
    tok.pos += negate  # past the sign
    p = _parse_term(tok, nvars)
    if negate:
        p = -p
    while tok.peek() in ("+", "-"):
        op = tok.peek()
        tok.pos += 1
        q = _parse_term(tok, nvars)
        p = p + q if op == "+" else p - q
    return p


def _parse_term(tok, nvars):
    p = _parse_factor(tok, nvars)
    while tok.peek() == "*":
        tok.pos += 1
        q = _parse_factor(tok, nvars)
        tok.check_degree(p.degree() + q.degree())
        tok.check_terms(len(p.terms) * len(q.terms))
        p = tok.bounded(p * q)
    return p


def _parse_factor(tok, nvars):
    p = _parse_atom(tok, nvars)
    if tok.peek() == "^":
        tok.pos += 1
        n = tok.take_uint()
        tok.check_degree(p.degree() * n)
        # a coefficient of p^n is at most s^n, s the sum of the |c| of p, and
        # s^n >= 2^((bits(s) - 1) * n): s^n is computed only if it is short
        s = sum(map(abs, p.terms.values()))
        if s > 1 and ((s.bit_length() - 1) * n >= _COEFF_BITS or s**n >= _COEFF_BOUND):
            tok.error(f"a coefficient of more than {MAX_DIGITS} digits")
        tok.check_terms(math.comb(len(p.terms) + n - 1, n))
        return p**n
    return p


def _parse_atom(tok, nvars):
    c = tok.peek()
    if c is None:
        tok.error("unexpected end of expression")
    if c == "(":
        if tok.depth == MAX_NESTING:
            tok.error(f"parentheses nested more than {MAX_NESTING} deep")
        tok.pos += 1
        tok.depth += 1
        p = _parse_expr(tok, nvars)
        if tok.peek() != ")":
            tok.error("expected ')'")
        tok.pos += 1
        tok.depth -= 1
        return p
    if c == "h":
        tok.pos += 1
        return Poly.variable(nvars, 0)
    if c == "t":
        tok.pos += 1
        i = tok.take_uint()
        if not 1 <= i <= nvars:
            raise errors.UnknownVariable(f"'t{i}' is not a variable (N={nvars})")
        return Poly.variable(nvars, i)
    if "0" <= c <= "9":
        return Poly.const(nvars, tok.take_uint())
    tok.error(f"unexpected character {c!r}")


def poly_parse(expr, nvars, degree=MAX_DEGREE):
    """Parse an expression in t1..tN, h into canonical :class:`Poly` form.
    A product or power of degree past ``degree`` raises HomogeneityViolation,
    and input past MAX_DIGITS, MAX_TERMS or MAX_NESTING SyntaxError."""
    tok = _Tokens(expr, degree)
    p = _parse_expr(tok, nvars)
    if tok.peek() is not None:
        tok.error("trailing input")
    return tok.bounded(p)


# ---------------------------------------------------------------------------
# factored classes and rational functions


class FactoredClass:
    """constant * product of weights ``(i, j, m)`` with positive exponents.

    Houses Euler classes; kept factored so that rational-function
    cancellation never needs a multivariate GCD.
    """

    __slots__ = ("nvars", "constant", "factors")

    def __init__(self, nvars, constant=1, factors=()):
        self.nvars = nvars
        self.constant = _coeff(constant)
        merged = {}
        for w, exp in factors:
            if exp < 0:
                raise ValueError("factor exponents must be positive")
            if exp:
                merged[w] = merged.get(w, 0) + exp
        self.factors = tuple(
            sorted(merged.items(), key=lambda we: weight_sort_key(we[0]))
        )

    def is_zero(self):
        return self.constant == 0 or any(i == j and not m for (i, j, m), _ in self.factors)

    def expand(self):
        return _expand(self.nvars, self.constant, self.factors)

    def evaluate(self, point):
        """The exact value at ``point`` = (t_1, ..., t_N, h)."""
        ts, h = (0, *point[:-1]), point[-1]
        values = ((ts[i] - ts[j] + m * h) ** n for (i, j, m), n in self.factors)
        return self.constant * math.prod(values)

    def __mul__(self, other):
        if isinstance(other, FactoredClass):
            return FactoredClass(
                self.nvars,
                self.constant * other.constant,
                self.factors + other.factors,
            )
        return FactoredClass(self.nvars, self.constant * _coeff(other), self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, FactoredClass)
            and self.constant == other.constant
            and self.factors == other.factors
        )

    def render(self):
        if self.is_zero():
            return "0"
        parts = [str(self.constant)] if self.constant != 1 or not self.factors else []
        return "*".join(parts + [_term_text(w, exp, True) for w, exp in self.factors])

    def __repr__(self):
        return f"FactoredClass({self.render()})"


@functools.lru_cache(maxsize=OUTPUT_CACHE_SIZE)
def _expand(nvars, constant, factors):
    p = Poly.const(nvars, constant)
    for w, exp in factors:
        p = p * weight_poly(w, nvars) ** exp
    return p


def integer_ratio_mod_h(p, e):
    """The integer a with modH(p) = a * modH(expand(e)) (Cor-style ratio).

    Mod h every weight t_i - t_j + m*h of e is the linear form t_i - t_j,
    and :class:`RationalFn` cancels these forms from modH(p).  Raises
    :class:`errors.NotProportional` when no such integer exists.
    """
    if not e.constant or any(i == j for (i, j, _), _ in e.factors):
        raise ValueError("denominator vanishes mod h")
    num = p.mod_h()
    forms = [((i, j, 0), exp) for (i, j, _), exp in e.factors]
    q = RationalFn(num, FactoredClass(e.nvars, e.constant, forms))
    if not q.is_polynomial():
        raise errors.NotProportional(f"{num.render()} vs {e.expand().mod_h().render()}")
    if not q.num.is_constant():
        raise errors.NotProportional(f"ratio {q.num.render()} is not constant")
    c = q.num.constant_value()
    if c.denominator != 1:
        raise errors.NotProportional(f"ratio {c} is not an integer")
    return int(c)


class RationalFn:
    """numerator / factored denominator, with each power of a weight of the
    denominator that divides the numerator cancelled by :func:`_divide`."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FactoredClass(num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        kept = []
        for w, exp in den.factors:
            while exp and not num.is_zero():
                quotient = _divide(num, w)
                if quotient is None:
                    break
                num, exp = quotient, exp - 1
            if exp:
                kept.append((w, exp))
        if num.is_zero():
            kept = []
        if den.constant != 1:
            num = num * _coeff(1, den.constant)
        self.num = num
        self.den = FactoredClass(num.nvars, 1, kept)

    def is_polynomial(self):
        return not self.den.factors

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.num.nvars, other)
        return RationalFn(other) if isinstance(other, Poly) else other

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.num * other.den.expand()) == (other.num * self.den.expand())

    __hash__ = None  # equality cross-multiplies, so no hash of (num, den) agrees

    def __add__(self, other):
        other = self._coerce(other)
        num = self.num * other.den.expand() + other.num * self.den.expand()
        return RationalFn(num, self.den * other.den)

    def render(self):
        if self.is_polynomial():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RationalFn({self.render()})"
