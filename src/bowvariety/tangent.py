"""Equivariant tangent characters at fixed points, chamber splits, Euler
classes.

The tangent character is computed by hamiltonian-reduction bookkeeping over
the fiber characters: triangle slots and red slots contribute Hom-characters,
the moment-map target carries an extra h, and the gauge directions are
subtracted at weights 0 and h.  It is bilinear in the fibers, each a sum of
butterfly columns, so it splits into blocks, one per ordered pair of blue
lines, memoized on the cached plan of the color sequence.  Weights are the
``(i, j, m)`` keys of :mod:`algebra`, meaning t_i - t_j + m*h, from the
bookkeeping to the Euler classes.
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
        for (i, j, m), n in self.char.terms.items():
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
    """``(steps, lattices, rows, shapes)`` for a color sequence.
    ``steps[X - 1]`` pairs each fiber W_Y in the target sum of W_X with its
    ``(h-shift, coefficient)`` pairs.  The block memos of :func:`_terms` live,
    and are bounded, with this cached plan."""
    padded = (None, *colors, None)  # padded[p]: the line between X_p and X_{p+1}
    steps = []
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
        steps.append(tuple(sources))
    return tuple(steps), {}, [], {}


def _columns(colors, J, cc):
    """The butterfly of the blue line U at position J as columns ``{X: {m: 1}}``:
    its part t_U * (sum of h^m) of each fiber W_X, one m per vertex over X."""
    columns = {}
    for x, m in butterfly._lattice(colors, J, cc)[4]:
        columns.setdefault(x, {})[m] = 1
    return columns


def _block(colors, steps, a, b):
    """The ``(m, n)``, n != 0, of the weights t_b - t_a + m*h from the blue
    lines with lattice keys a = (J_a, cover counts) and b: the plan with
    every W_X restricted to a and every target to b, plus Hom(t_a, W_{U_a-})
    restricted to b."""
    fa, fb = _columns(colors, *a), _columns(colors, *b)
    acc = {}
    for x, wx in fa.items():  # Hom(W_X, targets) = W_X^v * targets
        targets = {1: 1} if x == b[0] + 1 else {}  # t_b * h at X = U_b+
        for y, shifts in steps[x - 1]:
            for mb, nb in fb.get(y, {}).items():
                for s, c in shifts:
                    targets[mb + s] = targets.get(mb + s, 0) + c * nb
        for ma, na in wx.items():
            for mb, nb in targets.items():
                acc[mb - ma] = acc.get(mb - ma, 0) + na * nb
    for mb, nb in fb.get(a[0], {}).items():  # Hom(t_a, W_{U_a-})
        acc[mb] = acc.get(mb, 0) + nb
    return tuple((m, n) for m, n in acc.items() if n)


def _terms(t):
    """Multiplicities of the tangent character at t by weight (i, j, m), zero
    A-parts summed under (0, 0, m): one :func:`_block` per ordered pair (a, b)
    of blue lines, memoized at ``rows[index of a][index of b]``, each lattice
    key (J, cover counts) interned to an index.  Few blocks are distinct (3 of
    the 917 of the flag diagram), so each value is kept once, in ``shapes``."""
    colors = t.base.colors
    steps, lattices, rows, shapes = _plan(colors)
    keys = []  # per blue line: (lattice key, interned index)
    for J in t.base.blue_positions():
        key = J, butterfly._cover_counts(t, J)
        if key not in lattices:
            lattices[key] = len(rows)
            rows.append([])
        keys.append((key, lattices[key]))
    acc = {}
    for a, (ka, ia) in enumerate(keys, start=1):
        row = rows[ia]
        for b, (kb, ib) in enumerate(keys, start=1):
            if ib >= len(row):
                row.extend([None] * (ib + 1 - len(row)))
            if row[ib] is None:
                block = _block(colors, steps, ka, kb)
                row[ib] = shapes.setdefault(block, block)
            for m, n in row[ib]:
                w = (b, a, m) if a != b else (0, 0, m)
                acc[w] = acc.get(w, 0) + n
    return acc


def tangent_character(t, point_id):
    """Tangent character at the fixed point ``point_id`` of a tie diagram.

    Builds the virtual character, with Hom(S, T) = S^v * T,

        sum over blue U of  [ (1 - h) Hom(W_{U+}, W_{U-})
                              + Hom(t_U, W_{U-}) + h Hom(W_{U+}, t_U) ]
      + sum over red V of   [ h Hom(W_{V+}, W_{V-}) + Hom(W_{V-}, W_{V+}) ]
      + sum over black X of ((b_X - 1) h - 1) Hom(W_X, W_X)

    from the fiber weights (b_X counts the blue lines U with X = U^- or
    X = U^+).  The formula is linear in the target, so the targets of W_X,
    with their h-shifts and coefficients, are summed first (across a blue line
    most of W_{U-} cancels against W_{U+}), as planned once per color
    sequence (:func:`_plan`).  It is linear in the source too, and each fiber
    is a sum of butterfly columns, so the character is a sum of blocks, one
    per ordered pair (a, b) of blue lines: W_X restricted to t_a, the targets
    to t_b.  A block depends only on the two butterfly lattices and is
    memoized on the cached plan (:func:`_terms`).  Then checks effectiveness,
    the t_i - t_j + m*h weight form, and stability under w -> h - w.
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
        (plus if rank[i] < rank[j] else minus).terms[w] = n  # in canonical order
    return ChamberSplit(pi, plus, minus)


def euler_class(char):
    """Equivariant Euler class of an effective character: the product of its
    weights, kept in factored form."""
    return algebra.FactoredClass.from_character(char)
