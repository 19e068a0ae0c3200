"""Equivariant tangent characters at fixed points, chamber splits, Euler
classes.

A bow variety is a hamiltonian reduction, so the tangent character at a fixed
point is T = M - N - gl(W): the operator spaces, less the moment-map and
triangle equations, less the gauge directions, with the operators and their
height steps read off ``butterfly._OPERATORS``.  T is bilinear in the fibers,
each a sum of butterfly columns, so it splits into blocks, one per ordered
pair of blue lines, memoized on the cached plan of the color sequence.
Weights are the ``(i, j, m)`` keys of :mod:`algebra`, meaning t_i - t_j + m*h,
from the bookkeeping to the Euler classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import algebra, brane, butterfly, errors


@dataclass
class TangentCharacter:
    point: str
    char: algebra.Character  # keyed by weights (i, j, m): t_i - t_j + m*h

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


PLAN_CACHE_SIZE = 128  # a sweep pass meets 98 color sequences, flag 1; 73 targets in all
# one copy of each target (Y, shifts) of the plans, the first met: tuple(t) is t
_shared = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(tuple)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(colors):
    """``(steps, lattices, rows, shapes)`` for a color sequence.
    ``steps[X]`` pairs each target Y of the fiber X with the ``(h-shift,
    coefficient)`` pairs of Hom(W_X, h^shift W_Y) in T.  A fiber is a black line
    X or ``(None, p)``, the external line t_U of the blue line U at position p.
    The block memos of :func:`_terms` live, and are bounded, with this cached plan."""
    # the terms (domain, codomain, h-shift, coefficient) of T = M - N - gl(W):
    # End(W_X) in gl(W), and h End(W_X) in N for the moment map at X
    homs = [(x, x, s, -1) for x in range(1, len(colors) + 2) for s in (0, 1)]
    for p, color in enumerate(colors, start=1):
        fiber = {0: p, 1: p + 1, None: (None, p)}
        for cod, dom, step, _entry in butterfly._OPERATORS[color].values():
            homs.append((fiber[dom], fiber[cod], -step, 1))  # M: h^-step Hom(dom, cod)
        if color == brane.BLUE:  # N: the triangle, in h Hom(W_{U+}, W_{U-})
            homs.append((p + 1, p, 1, -1))
    targets = {}  # source fiber -> target fiber -> h-shift -> coefficient
    for dom, cod, shift, c in homs:
        shifts = targets.setdefault(dom, {}).setdefault(cod, {})
        shifts[shift] = shifts.get(shift, 0) + c
    steps = {
        x: tuple(_shared((y, tuple((s, c) for s, c in sh.items() if c))) for y, sh in ys.items())
        for x, ys in targets.items()
    }
    return steps, {}, [], {}


def _columns(colors, J, cc):
    """The butterfly of the blue line U at position J as columns ``{X: {m: 1}}``:
    its part t_U * (sum of h^m) of each fiber W_X, one m per vertex over X,
    and of the external line, ``(None, J)``, the one vertex (U, 0)."""
    columns = {(None, J): {0: 1}}
    for (i, _jj), m in butterfly._lattice(colors, J, cc).heights.items():
        columns.setdefault(i + J, {})[m] = 1
    return columns


def _block(colors, steps, a, b):
    """The ``(m, n)``, n != 0, of the weights t_b - t_a + m*h from the blue
    lines with lattice keys a = (J_a, cover counts) and b: the plan with
    every source fiber restricted to a and every target to b."""
    fa, fb = _columns(colors, *a), _columns(colors, *b)
    acc = {}
    for x, wx in fa.items():  # Hom(W_X, targets) = W_X^v * targets
        targets = {}
        for y, shifts in steps[x]:
            for mb, nb in fb[y].items() if y in fb else ():  # b's butterfly may miss y
                for s, c in shifts:
                    targets[mb + s] = targets.get(mb + s, 0) + c * nb
        for ma, na in wx.items():
            for mb, nb in targets.items():
                acc[mb - ma] = acc.get(mb - ma, 0) + na * nb
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

    The virtual character T = M - N - gl(W) of the hamiltonian reduction,
    from the fiber weights, with Hom(S, T) = S^v * T:

      M     = sum over the operators (codomain, domain, height step s) of
              ``butterfly._OPERATORS`` of h^-s Hom(W_domain, W_codomain),
              the external fiber of the blue line U being t_U
      N     = sum over blue U of h Hom(W_{U+}, W_{U-})  (the triangle relation)
            + sum over black X of h End(W_X)           (the moment map)
      gl(W) = sum over black X of End(W_X)

    T is linear in the target, so the targets of each fiber are summed first,
    once per color sequence (:func:`_plan`): across a blue line most of
    W_{U-} cancels against W_{U+}.  It is linear in the source too, and each
    fiber is a sum of butterfly columns, so T is a sum of blocks, one per
    ordered pair (a, b) of blue lines: the sources restricted to t_a, the
    targets to t_b.  A block depends only on the two butterfly lattices and is
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
    if not char.is_effective():
        raise errors.NonEffective(char.render())
    e = algebra.FactoredClass(char.nvars)
    e.factors = tuple(char.terms.items())  # distinct, positive, in canonical order
    return e
