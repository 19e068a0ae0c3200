"""Stable envelopes from attraction data.

Restriction matrices of attracting-cell closures are *input* (JSON
fixtures): computing them requires per-chart geometry that does not reduce to
the diagram combinatorics.  Everything downstream is exact: the recursion
producing stable-envelope coefficient vectors, the three envelope axioms, the
virtual intersection pairing, orthogonality and order-duality checks.

Pairings are decided one hyperplane at a time.  Any class, an envelope or
a test class, that is one polynomial at every point of a hyperplane factors
out of the residue there, and a gram entry shown free of poles has degree 0,
so it is the constant read off one exact evaluation.  Where the data shows
neither, the residue is summed from products, or the entry in full.

Both are certified factor by factor where the data allows.  An entry of R
that parses as a product of weights keeps that product on its Poly
(:func:`algebra.factored`), and an envelope entry that the recursion forms
keeps the integer combination of such products.  Restricted to a hyperplane
term by term (:meth:`algebra.FactoredSum.restrict`), these show a class to be
0 there, or one polynomial, with none expanded or divided.  A class they
cannot decide on a hyperplane, an entry that is no such product (a caller's
class, an edited envelope) or a sum whose terms differ between points, is
restricted exactly there, so every verdict and value is the same.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import algebra, brane, errors, tangent, tie


@dataclass
class AttractionData:
    diagram: brane.BraneDiagram
    chamber: tuple
    points: dict  # id -> TieDiagram
    order: list  # ids, minimal first
    restrictions: dict  # p -> q -> Poly  (R[p][q] = restriction of [L_p] at q)
    minus_euler: dict  # id -> FactoredClass e(T_q^-)
    full_euler: dict  # id -> FactoredClass e(T_q)
    dim: int

    @property
    def nvars(self):
        return self.diagram.n_blue

    def rank(self, p):
        return self.order.index(p)

    @functools.cached_property
    def hyperplanes(self):
        """``(simple, repeated)`` of :func:`_hyperplanes`, computed on first use."""
        return _hyperplanes(self)

    @functools.cached_property
    def flat(self):
        """Whether sum_p M_p = 0 on each simple hyperplane, decided on first use."""
        return {key: not sum(ms.values()) for key, ms in self.hyperplanes[0].items()}


def _is_list_of(value, kind):
    """A JSON list whose items are all of ``kind`` (booleans are not ints)."""
    return isinstance(value, list) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in value
    )


def load_attraction_data(source):
    """Load and validate attraction data from a file (a path or its name as
    a string) or from a dict.

    Structural validation: one point per tie diagram of the diagram,
    triangularity of R against the declared order, diagonal entries equal to
    the computed e(T^-), homogeneity of degree dim/2 for every nonzero entry,
    decided for a product or power of higher degree before it is computed.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise errors.SchemaError(f"malformed JSON: {exc}")
        except OSError as exc:
            raise errors.SchemaError(f"cannot read {source}: {exc.strerror}")
        except ValueError as exc:  # a NUL byte in the name
            raise errors.SchemaError(f"cannot read {source!r}: {exc}")
    else:
        raw = source
    if not isinstance(raw, dict):
        raise errors.SchemaError("top level must be an object")
    for key in ("diagram", "chamber", "points", "order", "restrictions"):
        if key not in raw:
            raise errors.SchemaError(f"missing key {key!r}")

    if not isinstance(raw["diagram"], str):
        raise errors.SchemaError("diagram must be a DSL string")
    try:
        diagram = brane.parse(raw["diagram"])
    except errors.BowError as exc:
        raise errors.SchemaError(f"bad diagram: {exc}")
    nvars = diagram.n_blue
    if not _is_list_of(raw["chamber"], int):
        raise errors.SchemaError("chamber must be a list of integers")
    chamber = tuple(raw["chamber"])
    if sorted(chamber) != list(range(1, nvars + 1)):
        raise errors.SchemaError(f"chamber {chamber} is not a permutation of 1..{nvars}")

    if not isinstance(raw["points"], list) or not raw["points"]:
        raise errors.SchemaError("points must be a non-empty list")
    fixed = {t.ties: t for t in tie.enumerate_tie_diagrams(diagram)}  # in enumeration order
    points, owners = {}, {}  # owners: ties -> the first point id that carries them
    for entry in raw["points"]:
        if not isinstance(entry, dict) or "id" not in entry or "ties" not in entry:
            raise errors.SchemaError("each point needs 'id' and 'ties'")
        pid = entry["id"]
        if not isinstance(pid, str):
            raise errors.SchemaError(f"point id {pid!r} must be a string")
        if pid in points:
            raise errors.SchemaError(f"duplicate point id {pid!r}")
        try:
            t = tie.from_names(diagram, entry["ties"])
        except (LookupError, TypeError, ValueError) as exc:
            raise errors.SchemaError(f"point {pid} ties: {exc}")
        if t.ties not in fixed:  # no tie diagram: is_valid names the broken axioms
            raise errors.SchemaError(f"point {pid}: {'; '.join(tie.is_valid(t).messages)}")
        if owners.setdefault(t.ties, pid) != pid:
            raise errors.SchemaError(f"duplicate tie diagram: points {owners[t.ties]!r} and {pid!r}")
        points[pid] = t
    for ties, t in fixed.items():
        if ties not in owners:
            raise errors.SchemaError(f"missing tie diagram: {t.named_ties()}")

    if not _is_list_of(raw["order"], str):
        raise errors.SchemaError("order must be a list of point ids")
    order = list(raw["order"])
    if sorted(order) != sorted(points):
        raise errors.SchemaError("order must list every point id exactly once")

    tangents = {p: tangent.tangent_character(t, p) for p, t in points.items()}
    dims = {tc.char.total() for tc in tangents.values()}
    if len(dims) != 1:
        raise errors.InconsistentDimension(str(sorted(dims)))
    dim = dims.pop()

    if not isinstance(raw["restrictions"], dict):
        raise errors.SchemaError("restrictions must be an object")
    unknown = sorted(set(raw["restrictions"]) - set(order), key=str)
    if unknown:
        raise errors.SchemaError(f"restrictions has rows for unknown points {unknown}")
    restrictions = {}
    for p in order:
        row = raw["restrictions"].get(p, {})
        if not isinstance(row, dict):
            raise errors.SchemaError(f"restrictions[{p}] must be an object")
        out = {}
        for q in order:
            expr = row.get(q, "0")
            if not isinstance(expr, str):
                raise errors.SchemaError(f"restrictions[{p}][{q}] must be a string")
            try:
                out[q] = entry = algebra.poly_parse(expr, nvars, dim // 2)
            except (errors.SyntaxError, errors.DegreeLimit) as exc:
                raise errors.SchemaError(f"restrictions[{p}][{q}]: {exc}")
            except errors.HomogeneityViolation:
                entry = None
            if entry is None or not entry.is_homogeneous(dim // 2):
                raise errors.HomogeneityViolation(  # quoted as the file writes it
                    f"R[{p}][{q}] = {expr} is not homogeneous of degree {dim // 2}"
                )
        unknown = sorted(set(row) - set(order), key=str)
        if unknown:
            raise errors.SchemaError(f"restrictions[{p}] mentions unknown points {unknown}")
        restrictions[p] = out

    minus_euler, full_euler = {}, {}
    for p, tc in tangents.items():
        split = tangent.chamber_split(tc, chamber)
        minus_euler[p] = tangent.euler_class(split.minus)
        full_euler[p] = tangent.euler_class(tc.char)

    for pi, p in enumerate(order):
        for q in order[pi + 1 :]:
            if not restrictions[p][q].is_zero():
                raise errors.TriangularityViolation(f"R[{p}][{q}] != 0")
        if restrictions[p][p] != minus_euler[p].expand():
            raise errors.DiagonalMismatch(
                f"R[{p}][{p}] = {restrictions[p][p].render()}, "
                f"e(T^-) = {minus_euler[p].expand().render()}"
            )

    return AttractionData(
        diagram=diagram,
        chamber=chamber,
        points=points,
        order=order,
        restrictions=restrictions,
        minus_euler=minus_euler,
        full_euler=full_euler,
        dim=dim,
    )


@dataclass
class StabClass:
    point: str
    coeffs: dict  # q -> int, support below the point
    restrictions: dict  # q -> Poly

    def to_json(self):
        return {
            "point": self.point,
            "coeffs": {q: c for q, c in self.coeffs.items() if c},
            "restrictions": {q: p.render() for q, p in self.restrictions.items()},
        }


def stable_envelopes(data, order=None):
    """Run the envelope recursion for every fixed point.

    Starting from gamma = [L_p], repeatedly subtract the integer multiple of
    [L_q] (q descending below p) that kills the h-free part of the restriction
    at q, where [L_q] is not 0; other entries stay R's Polys, restrictions and
    all.  The three axioms (normalization, support, smallness) are verified.
    """
    if order is None:
        order = data.order
    elif sorted(order) != sorted(data.order):
        raise ValueError("order must be a permutation of the data's points")
    stabs = []
    for i, p in enumerate(order):
        coeffs = {p: 1}
        gamma = dict(data.restrictions[p])
        formed = set()  # the r where gamma[r] is no longer R[p][r]
        for j in range(i, 0, -1):
            q = order[j - 1]
            try:
                a = algebra.integer_ratio_mod_h(gamma[q], data.minus_euler[q])
            except errors.NotProportional as exc:
                raise errors.IntegralityFailure(
                    f"point {p}, step {q}: {exc}"
                ) from exc
            if a:
                coeffs[q] = coeffs.get(q, 0) - a
                for r, entry in data.restrictions[q].items():
                    if entry:
                        gamma[r] = gamma[r] - a * entry
                        formed.add(r)
        stab = StabClass(point=p, coeffs=coeffs, restrictions=gamma)
        _verify_axioms(stab, data)
        for r in formed:
            rows = [(c, data.restrictions[q][r]) for q, c in coeffs.items()]
            parts = [(c, algebra.factored(e)) for c, e in rows if e]
            if all(fs is not None for _, fs in parts):  # gamma[r] = sum_q coeffs[q] * R[q][r]
                gamma[r]._factored = algebra.FactoredSum(
                    (c * k, f) for c, fs in parts for k, f in fs.terms
                )
        stabs.append(stab)
    key = {p: k for k, p in enumerate(data.order)}
    stabs.sort(key=lambda s: key[s.point])
    return stabs


def _verify_axioms(stab, data):
    p = stab.point
    rank = data.rank(p)
    if stab.restrictions[p] != data.minus_euler[p].expand():
        raise errors.AxiomFailure(f"normalization fails at {p}")
    for q, c in stab.coeffs.items():
        if c and data.rank(q) > rank:
            raise errors.AxiomFailure(f"support of Stab({p}) reaches above: {q}")
    for q, entry in stab.restrictions.items():
        if data.rank(q) > rank and not entry.is_zero():
            raise errors.AxiomFailure(f"Stab({p}) restricts nontrivially at {q}")
        if data.rank(q) < rank and not entry.mod_h().is_zero():
            raise errors.AxiomFailure(f"smallness fails for Stab({p}) at {q}")


def virtual_pairing(u, v, data, points=None):
    """Virtual intersection pairing of two restriction vectors:
    sum over fixed points p of u_p * v_p / e(T_p) (over ``points`` if given)."""
    total = algebra.RationalFn(algebra.Poly.const(data.nvars, 0))
    for p in data.order if points is None else points:
        num = u[p] * v[p]
        if not num.is_zero():
            total = total + algebra.RationalFn(num, data.full_euler[p])
    return total


def gram_matrix(stabs, op_stabs, data, op_data):
    """All pairwise pairings of envelopes from opposite chambers.

    Rows and columns are both indexed by data.order, so the orthogonality
    theorem asserts the identity matrix; deviations mean the two data files
    are inconsistent (reported by the caller's checks).

    An entry is certified when it is a polynomial, with no pole on a simple
    hyperplane (:func:`_residue_vanishes`) or a repeated one, and when every
    restriction is homogeneous of degree dim/2 and every e(T_p) has degree
    dim, so that each term u_p * v_p / e(T_p) has degree 0.  A polynomial of
    degree 0 is a constant: its value at any rational point off the zeros of
    the e(T_p) (:func:`_evaluation_point`), one Fraction (sum_p a_p * b_p *
    L / e_p) / L of the values a_p, b_p, e_p of u_p, v_p, e(T_p) there, L the
    lcm of the e_p, all ints.  Every other entry is the :func:`virtual_pairing` sum.  The
    hyperplanes, kept on ``data``, the restrictions, kept on each Poly, and
    the residue rule, under which Stab(p) and Stab_op(q) factor like any
    class, are shared with :func:`check_polynomiality`.

    Factor by factor: an envelope whose entries have :func:`algebra.factored`
    forms is decided on each simple hyperplane by :func:`_on_hyperplanes`.
    An entry without that form, and a hyperplane the forms leave undecided,
    is restricted exactly, and only where a residue needs it.
    """
    _check_paired(data, op_data)
    by_point = {s.point: s.restrictions for s in stabs}
    op_by_point = {s.point: s.restrictions for s in op_stabs}
    us = [by_point[p] for p in data.order]
    vs = [op_by_point[q] for q in data.order]
    simple, repeated = data.hyperplanes
    flat = data.flat
    point = _evaluation_point(data)
    euler = {p: e.evaluate(point) for p, e in data.full_euler.items()}
    degrees = {sum(n for _, n in e.factors) for e in data.full_euler.values()}
    lcm = math.lcm(*euler.values()) if all(type(e) is int for e in euler.values()) else 0
    exact = degrees == {data.dim} and lcm != 0  # not where some e(T_p) is 0 or not an int

    def values(vec):  # None unless every entry is homogeneous of degree dim/2
        if exact and all(r.is_homogeneous(data.dim // 2) for r in vec.values()):
            return {p: vec[p].evaluate(point) for p in data.order}
        return None

    rows = [(u, values(u), _on_hyperplanes(u, simple, flat)) for u in us]
    columns = [(v, values(v), _on_hyperplanes(v, simple, flat)) for v in vs]
    gram = []
    for u, a, u_h in rows:
        gram.append([])
        for v, b, v_h in columns:
            live = u_h.keys() & v_h.keys()  # the residue is 0 where u or v is 0 at every point
            classes = ((u, u_h), (v, v_h))
            pole = not all(_residue_vanishes(key, simple[key], classes, flat) for key in live)
            if a is None or b is None or pole or _repeated_pole(u, v, data, repeated):
                gram[-1].append(virtual_pairing(u, v, data))
            else:
                value = Fraction(sum(a[p] * b[p] * (lcm // euler[p]) for p in data.order), lcm)
                gram[-1].append(algebra.RationalFn(algebra.Poly.const(data.nvars, value)))
    return gram


def _evaluation_point(data):
    """``(t_1, ..., t_N, h) = (1000, 1000^2, ..., 1000^N, h)`` for the least
    h >= 7 at which no factor t_i - t_j + m*h of any e(T_p) vanishes.  With
    m != 0 a factor vanishes at one h at most, with m = 0 at none (t_i != t_j)
    unless it is the zero weight, which no h misses."""
    ts = [0] + [1000**i for i in range(1, data.nvars + 1)]
    factors = {w for e in data.full_euler.values() for w, _ in e.factors}
    roots = {Fraction(ts[j] - ts[i], m) for i, j, m in factors if m}
    return (*ts[1:], next(h for h in itertools.count(7) if h not in roots))


def _check_paired(data, op_data):
    """Refuse data that do not pair, such as an id that names two tie diagrams:
    the opposite restrictions are read at the points of ``data.hyperplanes``."""
    if data.diagram != op_data.diagram:
        raise errors.ChamberMismatch("different diagrams")
    if sorted(data.points) != sorted(op_data.points):
        raise errors.ChamberMismatch("different point sets")
    for p in data.order:
        if data.points[p] != op_data.points[p]:
            raise errors.ChamberMismatch(
                f"point {p} has ties {data.points[p].named_ties()} and "
                f"{op_data.points[p].named_ties()} in the opposite data"
            )
    if tuple(reversed(data.chamber)) != op_data.chamber:
        raise errors.ChamberMismatch(
            f"chambers {data.chamber} and {op_data.chamber} are not opposite"
        )


def check_polynomiality(stabs, op_stabs, data, op_data, gammas=None):
    """Check that (Stab(p) * gamma, Stab_op(q)) is a polynomial for every
    p, q and every test class gamma.

    gamma defaults to 1 together with the restriction vector of each
    attracting-cell closure [L_r].

    One hyperplane H at a time: by localization only the points whose e(T_p)
    contains H can give a pole along H.  If each carries H once, the residue
    of Stab(p), gamma and Stab_op(q) decides (:func:`_residue_vanishes`),
    and each of the three factors out of it where it is one polynomial on
    H.  On a hyperplane that some e(T_p) carries twice, the sum over its
    points must keep no H in its denominator.  Failures are summed in full.

    Whether a class is 0 or one polynomial on H is certified factor by
    factor (:func:`_on_hyperplanes`) for every class whose entries have
    :func:`algebra.factored` forms: the envelopes and the default [L_r] on
    product data.  The constant 1, a caller's gamma and any hyperplane that
    the forms leave undecided are restricted exactly, once per entry and H,
    and only where a residue needs them.
    """
    _check_paired(data, op_data)
    if gammas is None:
        one = {p: algebra.Poly.const(data.nvars, 1) for p in data.order}
        gammas = [one] + [dict(data.restrictions[r]) for r in data.order]
    simple, repeated = data.hyperplanes
    flat = data.flat
    s_on = [_on_hyperplanes(s.restrictions, simple, flat) for s in stabs]
    o_on = [_on_hyperplanes(o.restrictions, simple, flat) for o in op_stabs]
    g_on = [_on_hyperplanes(gamma, simple, flat) for gamma in gammas]
    report = errors.CheckResult("polynomiality")
    for s, s_h in zip(stabs, s_on):
        for k, (gamma, g_h) in enumerate(zip(gammas, g_on)):
            u = None
            for o, o_h in zip(op_stabs, o_on):
                live = s_h.keys() & g_h.keys() & o_h.keys()
                classes = ((s.restrictions, s_h), (gamma, g_h), (o.restrictions, o_h))
                ok = all(_residue_vanishes(key, simple[key], classes, flat) for key in live)
                if repeated or not ok:
                    if u is None:
                        u = {p: s.restrictions[p] * gamma[p] for p in data.order}
                    ok = ok and not _repeated_pole(u, o.restrictions, data, repeated)
                if not ok:
                    pairing = virtual_pairing(u, o.restrictions, data)
                    report.fail(
                        f"(Stab({s.point})*gamma[{k}], Stab_op({o.point})) = "
                        f"{pairing.render()} is not polynomial"
                    )
    return report


def _on_hyperplanes(vec, simple, flat):
    """What the :func:`algebra.factored` forms of ``vec``, restricted term by
    term (:meth:`algebra.FactoredSum.restrict`), decide of it on each simple
    hyperplane H.

    H is left out where every point on it gives 0.  ``vec`` is True on H where
    every point gives the same sum of one product (one polynomial, not 0), or
    of several where H is ``flat`` (one polynomial, and sum_p M_p = 0 makes the
    residue 0 whatever it is).  Elsewhere it is False: undecided, and left to
    the exact restrictions of :func:`_residue_vanishes`."""
    sums, out = {p: algebra.factored(r) for p, r in vec.items()}, {}
    for key, points in simple.items():
        views = [s and s.restrict(key) for s in map(sums.get, points)]
        if views[0] is None or views.count(views[0]) != len(views):
            out[key] = False
        elif views[0]:
            out[key] = len(views[0]) == 1 or flat[key]
    return out


def _repeated_pole(u, v, data, repeated):
    """Whether the pairing of ``u`` and ``v``, summed over the points of each
    repeated hyperplane, keeps that hyperplane in its denominator."""
    return any(
        algebra.hyperplane(w)[0] == key
        for key, points in repeated.items()
        for w, _ in virtual_pairing(u, v, data, points).den.factors
    )


def _hyperplanes(data):
    """The hyperplanes through the fixed points, split by pole order.

    ``simple`` maps each hyperplane H that no e(T_p) carries twice to
    ``{p: M_p}`` over its points.  With e(T_p) = s_p * H * F_p, their terms
    N_p / e(T_p) have no pole along H iff sum_p N_p / (s_p * F_p) vanishes on
    H, i.e. iff sum_p N_p|_H * M_p = 0 for M_p = c * L / (s_p * F_p|_H), with L
    the lcm of the F_q|_H (products of linear forms) and an integer c clearing
    the scalars.  ``repeated`` maps every other hyperplane to its points.
    Each F_p|_H is kept as its scalar and its linear forms keyed as
    hyperplanes, so L is a maximum of exponents, and M_p is the integer c /
    s_p wherever F_p|_H is L, as on GKM data, with nothing expanded.
    """
    on = {}  # key -> p -> multiplicity of H(key) in e(T_p)
    for p in data.order:
        for w, exp in data.full_euler[p].factors:
            points = on.setdefault(algebra.hyperplane(w)[0], {})
            points[p] = points.get(p, 0) + exp
    simple, repeated = {}, {}
    for key, points in on.items():
        if max(points.values()) > 1:
            repeated[key] = list(points)
            continue
        rest = {}  # p -> (s_p times the scalar of F_p|_H, {its linear forms: exponent})
        for p in points:
            s, forms = data.full_euler[p].constant, {}
            for w, exp in data.full_euler[p].factors:
                form, scale = algebra.hyperplane(w)
                if form != key:
                    form, scale = algebra.hyperplane(algebra.restrict_weight(w, key))
                    forms[form] = forms.get(form, 0) + exp
                s *= scale**exp
            rest[p] = (s, forms)
        lcm = {}
        for _, forms in rest.values():
            for form, n in forms.items():
                lcm[form] = max(n, lcm.get(form, 0))
        clear = math.lcm(*(abs(s.numerator) for s, _ in rest.values()))
        simple[key] = ms = {}
        for p, (s, forms) in rest.items():
            c = clear // s.numerator * s.denominator  # clear / s_p, an int as s_p.numerator | clear
            if forms == lcm:
                ms[p] = algebra.Poly.const(data.nvars, c)
            else:
                quotient = [(w, n - forms.get(w, 0)) for w, n in lcm.items()]  # L / F_p|_H
                ms[p] = algebra.FactoredClass(data.nvars, c, quotient).expand()
    return simple, repeated


def _residue_vanishes(key, points, classes, flat):
    """Whether the residue on the simple hyperplane H(key) of the pairing of
    the product of ``classes`` is zero: sum_p c_1|_p * ... * c_k|_p * M_p,
    with ``points`` mapping each point p on H to M_p.  Each class is a vector
    with what :func:`_on_hyperplanes` gives for it, which this completes where
    it is undecided (False): H is dropped where every exact restriction is 0,
    and the value is the one polynomial they are, or ``{p: vec[p] on H}``.

    Where each class is one polynomial g_i != 0 on H, that is g_1 * ... *
    g_k * sum_p M_p, and polynomials on H form an integral domain: it is zero
    iff sum_p M_p is: ``flat[key]``, decided once per hyperplane, with no
    product formed.  A global class agrees so along each torus-invariant
    curve (the GKM condition), but classes are input: where one does not
    agree, the products are summed, and a single nonzero one is never zero.
    """
    for vec, c in classes:
        if c[key] is False:
            on = [algebra.restrict(vec[p], key) for p in points]
            if not any(on):
                del c[key]
                return True
            c[key] = on[0] if all(r == on[0] for r in on) else dict(zip(points, on))
    on = [c[key] for _, c in classes]
    if not any(isinstance(r, dict) for r in on):
        return flat[key]
    terms = [  # a class that is True on H is restricted here, at each point
        (m, [r[p] if isinstance(r, dict) else algebra.restrict(vec[p], key) if r is True else r
             for (vec, _), r in zip(classes, on)])
        for p, m in points.items()
    ]
    live = [(m, rs) for m, rs in terms if all(rs)]
    return len(live) != 1 and not sum(math.prod(rs, start=m) for m, rs in live)


def opposite_order_check(data, op_data):
    """The partial order read off the R-support of one chamber must be the
    exact reverse of the other chamber's."""
    _check_paired(data, op_data)
    report = errors.CheckResult("order")

    def support(d):
        return {(p, q) for p in d.order for q in d.order if p != q and d.restrictions[p][q]}

    fwd = support(data)
    bwd = {(q, p) for p, q in support(op_data)}
    for pair in sorted(fwd - bwd):
        report.fail(f"relation {pair[1]} < {pair[0]} has no opposite counterpart")
    for pair in sorted(bwd - fwd):
        report.fail(f"opposite relation {pair[0]} < {pair[1]} has no counterpart")
    return report
