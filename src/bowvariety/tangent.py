"""Equivariant tangent characters at fixed points, chamber splits, Euler
classes.

The tangent character is computed by hamiltonian-reduction bookkeeping over
the fiber characters: triangle slots and red slots contribute Hom-characters,
the moment-map target carries an extra h, and the gauge directions are
subtracted at weights 0 and h.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, brane, butterfly, errors, tie


@dataclass
class TangentCharacter:
    point: str
    char: algebra.Character

    def weights(self):
        return self.char.weights()

    def to_json(self):
        return {
            "point": self.point,
            "weights": [
                {"a": list(w.a), "m": w.m, "mult": m}
                for w, m in sorted(
                    self.char.terms.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        }


@dataclass
class ChamberSplit:
    chamber: tuple
    plus: algebra.Character
    minus: algebra.Character


def _add_hom(acc, src, tgt, shifts):
    """Add c times the character of Hom(src, tgt), shifted by m*h, to ``acc``
    for each (m, c) in ``shifts``.  Fibers are Counters of (u, m) meaning
    t_u + m*h; ``acc`` is keyed by (i, j, m) meaning t_i - t_j + m*h, with
    every weight of zero A-part (i == j) filed under (0, 0, m)."""
    tgt = list(tgt.items())
    for m, c in shifts:
        for (a, ma), na in src.items():
            cn, dm = c * na, m - ma
            for (b, mb), nb in tgt:
                key = (b, a, mb + dm) if a != b else (0, 0, mb + dm)
                acc[key] = acc.get(key, 0) + cn * nb


def _character(nvars, acc):
    """The character whose weight t_i - t_j + m*h has multiplicity acc[i, j, m]."""
    terms = {}
    for (i, j, m), mult in acc.items():
        a = [0] * nvars
        if i != j:
            a[i - 1], a[j - 1] = 1, -1
        terms[algebra.Weight(tuple(a), m)] = mult
    return algebra.Character(nvars, terms)


def tangent_character(t, point_id):
    """Tangent character at the fixed point ``point_id`` of a tie diagram.

    Builds the virtual character

        sum over blue U of  [ (1 - h) * W_{U+}^v * W_{U-}
                              + (W_{U-} - t_U) + (t_U + h - W_{U+}) ]
      + sum over red V of   [ h * W_{V+}^v * W_{V-} + W_{V-}^v * W_{V+} ]
      + sum over black X of  ((b_X - 1) * h - 1) * W_X * W_X^v

    from the fiber weights, one Hom product per pair of fibers (b_X counts
    the blue lines U with X = U^- or X = U^+), then checks effectiveness,
    the t_i - t_j + m*h weight form, and stability under w -> h - w.
    """
    d = t.base
    nvars = d.n_blue
    fibers = butterfly.fiber_weights(t)
    blue = [False, *(c == brane.BLUE for c in d.colors), False]
    acc = {}

    for j, w in fibers.items():
        b_x = blue[j - 1] + blue[j]
        _add_hom(acc, w, w, ((0, -1), (1, b_x - 1)) if b_x != 1 else ((0, -1),))
    for u, p in enumerate(d.blue_positions(), start=1):
        wm, wp = fibers[p], fibers[p + 1]
        tu = {(u, 0): 1}
        # the triangle relation B^-A - AB^+ + ab lives in h Hom(W_{U+}, W_{U-})
        _add_hom(acc, wp, wm, ((0, 1), (1, -1)))
        _add_hom(acc, tu, wm, ((0, 1),))
        _add_hom(acc, wp, tu, ((1, 1),))
    for q in d.red_positions():
        wm, wp = fibers[q], fibers[q + 1]
        _add_hom(acc, wp, wm, ((1, 1),))
        _add_hom(acc, wm, wp, ((0, 1),))
    acc = {key: mult for key, mult in acc.items() if mult}

    if any(mult < 0 for mult in acc.values()):
        raise errors.NonEffective(_character(nvars, acc).render())
    for i, j, m in acc:
        if i == j:
            raise errors.BadWeightForm(_character(nvars, {(i, j, m): 1}).render())
    if any(acc.get((j, i, 1 - m)) != mult for (i, j, m), mult in acc.items()):
        raise errors.BrokenSymplecticInvolution(_character(nvars, acc).render())
    return TangentCharacter(point_id, _character(nvars, acc))


def dimension(d):
    """Tangent dimension of the bow variety, read off at the fixed points.

    All fixed points must agree; disagreement signals corrupted input.
    """
    points = tie.enumerate_tie_diagrams(d)
    if not points:
        raise ValueError("diagram has no tie diagrams")
    dims = set()
    for k, t in enumerate(points, start=1):
        dims.add(tangent_character(t, f"D{k}").char.total())
    if len(dims) != 1:
        raise errors.InconsistentDimension(f"{sorted(dims)} on {d!r}")
    return dims.pop()


def check_chamber(pi, nvars):
    """Raise :class:`errors.BadChamber` unless pi is a permutation of 1..nvars."""
    if sorted(pi) != list(range(1, nvars + 1)):
        raise errors.BadChamber(f"chamber {tuple(pi)} is not a permutation of 1..{nvars}")


def chamber_split(tc, pi):
    """Split a tangent character into attracting/repelling parts for the
    chamber t_{pi(1)} > ... > t_{pi(N)}.

    The weight t_i - t_j + m*h is attracting iff t_i > t_j on the chamber,
    i.e. iff i appears before j in pi.
    """
    pi = tuple(pi)
    nvars = tc.char.nvars
    check_chamber(pi, nvars)
    rank = [pi.index(i) for i in range(1, nvars + 1)]  # rank[i - 1]: place of t_i
    plus = algebra.Character(nvars)
    minus = algebra.Character(nvars)
    for w, mult in tc.char.terms.items():
        a = w.a
        if a.count(0) + 2 != len(a) or max(a) != 1 or min(a) != -1:  # not t_i - t_j
            raise errors.DegenerateWeight(w.render())
        if rank[a.index(1)] < rank[a.index(-1)]:
            plus.terms[w] = mult
        else:
            minus.terms[w] = mult
    return ChamberSplit(pi, plus, minus)


def euler_class(char):
    """Equivariant Euler class of an effective character: the product of its
    weights, kept in factored form."""
    return algebra.FactoredClass.from_character(char)
