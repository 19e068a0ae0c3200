"""Equivariant tangent characters at fixed points, chamber splits, Euler
classes.

The tangent character is computed by hamiltonian-reduction bookkeeping over
the fiber characters: triangle slots and red slots contribute Hom-characters,
the moment-map target carries an extra h, and the gauge directions are
subtracted at weights 0 and h.  Weights are the ``(i, j, m)`` keys of
:mod:`algebra`, meaning t_i - t_j + m*h, from the bookkeeping to the Euler
classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import algebra, brane, butterfly, errors, tie


@dataclass
class TangentCharacter:
    point: str
    char: algebra.Character  # keyed by weights (i, j, m): t_i - t_j + m*h

    def weights(self):
        return self.char.weights()

    def to_json(self):
        weights = []
        for (i, j, m), n in self.char.sorted_terms():
            a = [0] * self.char.nvars
            if i != j:
                a[i - 1], a[j - 1] = 1, -1
            weights.append({"a": a, "m": m, "mult": n})
        return {"point": self.point, "weights": weights}


@dataclass
class ChamberSplit:
    chamber: tuple
    plus: algebra.Character
    minus: algebra.Character


PLAN_CACHE_SIZE = 128  # a sweep pass meets 98 color sequences, flag 1


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(colors):
    """Per black line X: ``(X, sources, u)``.  ``sources`` pairs each fiber
    W_Y in the target sum of W_X with its ``(h-shift, coefficient)`` pairs;
    ``u`` is the blue line with X = U+ (0 if none), whose t_U joins the sum
    and whose Hom(t_U, W_{U-}) is added."""
    padded = (None, *colors, None)  # padded[p]: the line between X_p and X_{p+1}
    blue = {p: u for u, p in enumerate((p for p, c in enumerate(padded) if c == brane.BLUE), 1)}
    plan = []
    for x in range(1, len(colors) + 2):
        left, right = padded[x - 1], padded[x]
        b_x = (left == brane.BLUE) + (right == brane.BLUE)
        sources = [(x, ((0, -1), (1, b_x - 1)) if b_x != 1 else ((0, -1),))]
        if left == brane.BLUE:  # X = U+
            # the triangle relation B^-A - AB^+ + ab lives in h Hom(W_{U+}, W_{U-})
            sources.append((x - 1, ((0, 1), (1, -1))))
        elif left == brane.RED:  # X = V+
            sources.append((x - 1, ((1, 1),)))
        if right == brane.RED:  # X = V-
            sources.append((x + 1, ((0, 1),)))
        plan.append((x, tuple(sources), blue.get(x - 1, 0)))
    return tuple(plan)


def _terms(t):
    """Multiplicities (zeros included) of the tangent character at t by
    weight (i, j, m), zero A-parts filed under (0, 0, m): :func:`_plan` run."""
    fibers = butterfly.fiber_weights(t)
    acc = {}
    get = acc.get
    for x, sources, u in _plan(t.base.colors):
        targets = {(u, 1): 1} if u else {}  # the target sum of W_X: (b, m) is t_b + m*h
        tget = targets.get
        for y, shifts in sources:
            for (b, m), n in fibers[y].items():
                for s, c in shifts:
                    key = b, m + s
                    targets[key] = tget(key, 0) + c * n
        targets = [(b, m, n) for (b, m), n in targets.items() if n]
        for (a, ma), na in fibers[x].items():  # Hom(W_X, targets) = W_X^v * targets
            for b, mb, nb in targets:
                key = (b, a, mb - ma) if a != b else (0, 0, mb - ma)
                acc[key] = get(key, 0) + na * nb
        if u:  # Hom(t_U, W_{U-})
            for (b, mb), nb in fibers[x - 1].items():
                key = (b, u, mb) if b != u else (0, 0, mb)
                acc[key] = get(key, 0) + nb
    return acc


def tangent_character(t, point_id):
    """Tangent character at the fixed point ``point_id`` of a tie diagram.

    Builds the virtual character, with Hom(S, T) = S^v * T,

        sum over blue U of  [ (1 - h) Hom(W_{U+}, W_{U-})
                              + Hom(t_U, W_{U-}) + h Hom(W_{U+}, t_U) ]
      + sum over red V of   [ h Hom(W_{V+}, W_{V-}) + Hom(W_{V-}, W_{V+}) ]
      + sum over black X of ((b_X - 1) h - 1) Hom(W_X, W_X)

    from the fiber weights (b_X counts the blue lines U with X = U^- or
    X = U^+).  The formula is linear in the target, so the terms are grouped
    by source fiber: the targets of W_X, with their h-shifts and
    coefficients, are summed first (across a blue line most of W_{U-}
    cancels against W_{U+}), and W_X is multiplied by that sum once.  Which
    fibers enter each sum depends only on the colors, so it is planned once
    per color sequence (:func:`_plan`) and run in one loop (:func:`_terms`).
    Then checks effectiveness, the t_i - t_j + m*h weight form, and
    stability under w -> h - w.
    """
    char = algebra.Character(t.base.n_blue, _terms(t))
    terms = char.terms
    if not char.is_effective():
        raise errors.NonEffective(char.render())
    bad = [w for w in terms if w[0] == w[1]]
    if bad:
        raise errors.BadWeightForm(algebra.render_weight(min(bad)))
    if any(terms.get((j, i, 1 - m)) != n for (i, j, m), n in terms.items()):
        raise errors.BrokenSymplecticInvolution(char.render())
    return TangentCharacter(point_id, char)


def dimension(d):
    """Tangent dimension of the bow variety, read off at the fixed points.

    All fixed points must agree; disagreement signals corrupted input.
    """
    points = tie.enumerate_tie_diagrams(d)
    if not points:
        raise errors.EmptyVariety(
            f"the variety of {brane.render(d)} is empty: it has no tie diagrams"
        )
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
    rank = [0] * (nvars + 1)  # rank[i]: place of t_i in pi
    for place, i in enumerate(pi):
        rank[i] = place
    plus = algebra.Character(nvars)
    minus = algebra.Character(nvars)
    for w, n in tc.char.terms.items():
        i, j, _ = w
        if i == j:
            raise errors.DegenerateWeight(algebra.render_weight(w))
        (plus if rank[i] < rank[j] else minus).terms[w] = n
    return ChamberSplit(pi, plus, minus)


def euler_class(char):
    """Equivariant Euler class of an effective character: the product of its
    weights, kept in factored form."""
    return algebra.FactoredClass.from_character(char)
