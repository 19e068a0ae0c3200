"""Tie diagrams: validation, enumeration, Hanany-Witten fixed-point matching.

A tie diagram on a brane diagram is a set of ties, each joining a red and a
blue colored line, such that every black line X is covered by exactly d_X
ties.  Tie diagrams classify the torus fixed points of the bow variety.

Internally a tie is an ordered pair (l, r) of 1-based colored positions with
l < r; the pair covers the black lines X_{l+1} .. X_r.
"""

from __future__ import annotations

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


def enumerate_tie_diagrams(d):
    """All tie diagrams of an admissible diagram, canonically ordered.

    Depth-first backtracking over the candidate red/blue pairs in
    lexicographic order, each included before it is left out.  ``need``
    counts the ties a black line still lacks and ``left`` the undecided
    candidates that cover it; a step changes both only on the lines its
    candidate covers, so only those are checked for being over- or
    under-coverable.  The canonical order, lexicographic on the sorted tie
    list, is the search order: two results first differ at a candidate one
    of them includes, and that one sorts first unless the other's list ends
    there, a proper subset of a tie diagram with the same cover counts,
    which cannot be since every tie covers a black line.
    """
    colors = d.colors
    n = len(colors)
    candidates = [
        (l, r) for l in range(1, n + 1) for r in range(l + 1, n + 1) if colors[l - 1] != colors[r - 1]
    ]
    spans = [range(l, r) for l, r in candidates]  # 0-based black lines X_{l+1} .. X_r
    need = list(d.blacks)
    left = [0] * len(need)
    for span in spans:
        for j in span:
            left[j] += 1
    if any(nd > lf for nd, lf in zip(need, left)):
        return []
    n_cand = len(candidates)
    found, chosen = [], []

    def rec(i):
        if i == n_cand:  # 0 <= need <= left = 0 on every black line
            found.append(TieDiagram(d, frozenset(chosen)))
            return
        span = spans[i]
        for j in span:
            left[j] -= 1
        for j in span:
            if not need[j]:
                break
        else:  # include: each line it covers still lacks a tie
            for j in span:
                need[j] -= 1
            chosen.append(candidates[i])
            rec(i + 1)
            chosen.pop()
            for j in span:
                need[j] += 1
        for j in span:
            if need[j] > left[j]:
                break
        else:  # leave out: the others can still cover each line it covers
            rec(i + 1)
        for j in span:
            left[j] += 1

    rec(0)
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
    width = len(base_str)
    above = [p for p in t.sorted_ties() if d.color_at(p[0]) == brane.RED]
    below = [p for p in t.sorted_ties() if d.color_at(p[0]) == brane.BLUE]

    def arc_row(l, r):
        row = [" "] * width
        for x in range(xs[l - 1], xs[r - 1] + 1):
            row[x] = "-"
        row[xs[l - 1]] = "+"
        row[xs[r - 1]] = "+"
        return "".join(row).rstrip()

    lines = [arc_row(l, r) for l, r in reversed(above)]
    lines.append(base_str)
    lines.extend(arc_row(l, r) for l, r in below)
    return "\n".join(lines)
