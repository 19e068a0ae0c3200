"""Tie diagrams: validation, enumeration, Hanany-Witten fixed-point matching.

A tie diagram on a brane diagram is a set of ties, each joining a red and a
blue colored line, such that every black line X is covered by exactly d_X
ties.  Tie diagrams classify the torus fixed points of the bow variety.

Internally a tie is an ordered pair (l, r) of 1-based colored positions with
l < r; the pair covers the black lines X_{l+1} .. X_r.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import brane, errors


@dataclass(frozen=True)
class TieDiagram:
    base: brane.BraneDiagram
    ties: frozenset  # of (left_pos, right_pos)

    def __post_init__(self):
        object.__setattr__(self, "ties", frozenset(tuple(t) for t in self.ties))
        n = self.base.n_colored
        for l, r in self.ties:  # named_ties reads names by position
            if not 1 <= l < r <= n:
                raise errors.UnknownLine(f"tie {(l, r)} is not (l, r) with 1 <= l < r <= {n}")

    def sorted_ties(self):
        return sorted(self.ties)

    def named_ties(self):
        """Ties as [left name, right name] pairs, canonically sorted (positions 1..n)."""
        names = self.base._tables.names
        return [[names[l - 1], names[r - 1]] for l, r in self.sorted_ties()]

    def cover_count(self, j):
        """Number of ties covering black line X_j."""
        return sum(1 for l, r in self.ties if l < j <= r)

    def to_json(self):
        return {"diagram": brane.render(self.base), "ties": self.named_ties()}

    def __repr__(self):
        return f"TieDiagram({brane.render(self.base)!r}, {self.named_ties()})"


def from_names(base, named):
    """Build a tie diagram from [left name, right name] pairs."""
    ties = set()
    for a, b in named:
        pa, pb = base.position_of(a), base.position_of(b)
        if pa >= pb:
            raise ValueError(f"tie ({a},{b}) is not left-to-right")
        ties.add((pa, pb))
    return TieDiagram(base, frozenset(ties))


def is_valid(t):
    """Check the tie-diagram axioms; returns an :class:`errors.CheckResult`
    named ``tie-diagram`` with one message per violated axiom.

    Axioms: every tie joins one red and one blue line, left strictly before
    right, and each black line X is covered exactly d_X times.
    """
    report = errors.CheckResult("tie-diagram")
    d = t.base
    for l, r in sorted(t.ties):
        if d.color_at(l) == d.color_at(r):
            report.fail(
                f"tie ({d.line_name(l)},{d.line_name(r)}) joins two "
                f"{'red' if d.color_at(l) == brane.RED else 'blue'} lines"
            )
    for j in range(1, len(d.blacks) + 1):
        got = t.cover_count(j)
        if got != d.label(j):
            report.fail(f"black line X{j}: covered {got} times, label is {d.label(j)}")
    return report


PLAN_CACHE_SIZE = 32  # sweep: 220 color sequences, 371 runs, 312 builds (256 entries: 220, 277 KB)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(colors):
    """``(candidates, spans, capacity, width, left, guard)`` of a color
    sequence: the red/blue pairs (l, r) in lexicographic order, the span of
    each (a 1 in the field of every black line it covers), how many cover
    each line, the field width, those counts packed, and the guard bits."""
    pairs = itertools.combinations(range(1, len(colors) + 1), 2)  # lexicographic
    candidates = tuple((l, r) for l, r in pairs if colors[l - 1] != colors[r - 1])
    # (l, r) covers the 0-based black lines l .. r-1
    capacity = tuple(sum(l <= j < r for l, r in candidates) for j in range(len(colors) + 1))
    width = max(capacity).bit_length() + 1
    spans = tuple(sum(1 << j * width for j in range(l, r)) for l, r in candidates)
    guard = sum(1 << j * width + width - 1 for j in range(len(capacity)))
    return candidates, spans, capacity, width, sum(spans), guard


def enumerate_tie_diagrams(d):
    """All tie diagrams of an admissible diagram, canonically ordered.

    Depth-first backtracking over the candidate red/blue pairs in
    lexicographic order, each included before it is left out.  ``need``
    (ties a black line still lacks) and ``left`` (undecided candidates that
    cover it) are ints with one field per black line, each wide enough that
    its counts fit below its top bit, the guard bit g.  A field of
    ``(x | guard) - y`` holds x + g - y, positive as y < g, so no field
    borrows from the next, and it keeps its guard bit iff x >= y: so
    ``(x | guard) - y & guard == guard`` tests x >= y on all fields at once.
    A step includes its candidate if ``need >= span`` and leaves it out if
    ``left - span >= need``.  As ``need <= left`` at every node and a step
    lowers ``left`` only on its candidate's lines, these whole-word tests
    are the line-by-line tests on those lines, so the search tree and its
    order do not change.  The order of the sorted tie lists is the search
    order: two results first differ at a candidate one includes, which
    sorts first unless the other's list ends there, a proper subset of a
    tie diagram with the same cover counts, impossible as every tie covers
    a black line.  A label above its capacity returns ``[]`` unpacked.
    """
    candidates, spans, capacity, width, left, guard = _plan(d.colors)
    if any(x > c for x, c in zip(d.blacks, capacity)):
        return []
    need = sum(x << j * width for j, x in enumerate(d.blacks))
    n_cand = len(candidates)
    found, chosen = [], []

    def rec(i, need, left):
        if i == n_cand:  # 0 <= need <= left = 0 on every black line
            found.append(TieDiagram(d, frozenset(chosen)))
            return
        span = spans[i]
        left -= span
        if (need | guard) - span & guard == guard:  # include
            chosen.append(candidates[i])
            rec(i + 1, need - span, left)
            chosen.pop()
        if (left | guard) - need & guard == guard:  # leave out
            rec(i + 1, need, left)

    rec(0, need, left)
    return found


def hw_match(t, k):
    """The fixed-point matching psi for the HW move at colored positions
    (k, k+1): transform the base diagram and toggle the tie between the two
    moved lines.  An involution."""
    d = t.base
    try:
        new_base = brane.hw_transition(d, k)
    except errors.BowError as exc:
        raise errors.IllegalMove(str(exc)) from exc

    swap = {k: k + 1, k + 1: k}
    new_ties = {tuple(sorted((swap.get(l, l), swap.get(r, r)))) for l, r in t.ties}
    new_ties ^= {(k, k + 1)}  # toggle the tie between the moved lines
    result = TieDiagram(new_base, frozenset(new_ties))
    report = is_valid(result)
    if not report.ok:
        raise errors.IllegalMove("; ".join(report.messages))
    return result


def render_ascii(t):
    """Draw the tie diagram: base line in DSL form, ties with a red left end
    above, ties with a blue left end below."""
    d = t.base
    base_str = brane.render(d)
    # x-coordinate of each colored line inside base_str
    xs = [i for i, c in enumerate(base_str) if c in "/\\"]
    above = [p for p in t.sorted_ties() if d.color_at(p[0]) == brane.RED]
    below = [p for p in t.sorted_ties() if d.color_at(p[0]) == brane.BLUE]

    def arc_row(l, r):
        return " " * xs[l - 1] + "+" + "-" * (xs[r - 1] - xs[l - 1] - 1) + "+"

    lines = [arc_row(l, r) for l, r in reversed(above)]
    lines.append(base_str)
    lines.extend(arc_row(l, r) for l, r in below)
    return "\n".join(lines)
