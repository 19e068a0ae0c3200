"""Brane diagrams: data model, DSL parser, admissibility, Hanany-Witten moves.

A brane diagram is a sequence of horizontal black lines labeled by
nonnegative integers d_1 .. d_{M+N+1} (first and last zero), separated by
colored lines: '/' (red) and '\\' (blue).  Red lines V_1..V_M are numbered
right-to-left, blue lines U_1..U_N left-to-right.  Black lines are X_1..
X_{M+N+1} left-to-right; the colored line at position k sits between X_k and
X_{k+1}.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

from . import algebra, errors

RED = "r"
BLUE = "b"
_LABEL_BOUND = 10**algebra.MAX_DIGITS  # the least label Python cannot write as text


@dataclass(frozen=True)
class BraneDiagram:
    """Black labels and colors.  The line positions, names and DSL string are
    tabled on first use (:func:`_build_tables`) in the instance ``__dict__``,
    not in a field, so equality and hashing see only ``blacks`` and ``colors``.
    """

    blacks: tuple  # d_1 .. d_{M+N+1}
    colors: tuple  # length M+N, entries RED/BLUE

    def __post_init__(self):
        object.__setattr__(self, "blacks", tuple(int(d) for d in self.blacks))
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.blacks) != len(self.colors) + 1:
            raise ValueError("label/color length mismatch")
        if any(d < 0 for d in self.blacks):
            raise errors.NegativeLabel(str(self.blacks))
        if max(self.blacks) >= _LABEL_BOUND:
            raise errors.LabelLimit(f"a black label of more than {algebra.MAX_DIGITS} digits")
        if self.blacks[0] != 0 or self.blacks[-1] != 0:
            raise errors.BoundaryNotZero(
                f"first and last black labels must be 0: {render(self)}"
            )
        if any(c not in (RED, BLUE) for c in self.colors):
            raise ValueError(f"bad color in {self.colors}")

    # -- sizes ------------------------------------------------------------

    @property
    def n_red(self):
        return self.colors.count(RED)

    @property
    def n_blue(self):
        return self.colors.count(BLUE)

    @property
    def n_colored(self):
        return len(self.colors)

    # -- indexing ---------------------------------------------------------
    # Positions are 1-based indices into the colored-line sequence.

    @functools.cached_property
    def _tables(self):
        return _build_tables(self)

    def red_positions(self):
        """Positions of V_1, V_2, ... (right-to-left numbering)."""
        return list(self._tables.red)

    def blue_positions(self):
        """Positions of U_1, U_2, ... (left-to-right numbering)."""
        return list(self._tables.blue)

    def _index(self, pos):
        if not 1 <= pos <= len(self.colors):
            raise errors.UnknownLine(
                f"{pos!r} is not a colored position of {render(self)} (1..{len(self.colors)})"
            )
        return pos - 1

    def color_at(self, pos):
        return self.colors[self._index(pos)]

    def label(self, j):
        """Black label d_j, 1-based."""
        return self.blacks[j - 1]

    def line_name(self, pos):
        """Name ("U3"/"V1") of the colored line at a 1-based position."""
        return self._tables.names[self._index(pos)]

    def position_of(self, name):
        """Position of a colored line given its name ("U2", "V1")."""
        if not isinstance(name, str):  # an index is not a name: U2, not 2
            raise errors.UnknownLine(f"{name!r} is not a colored line name of {render(self)}")
        kind, idx = name[:1], name[1:]
        table = {"U": self._tables.blue, "V": self._tables.red}.get(kind, ())
        # int() reads at most MAX_DIGITS digits, and no diagram has that many lines
        digits = len(idx) <= algebra.MAX_DIGITS and idx.isascii() and idx.isdigit()
        if not (digits and 1 <= int(idx) <= len(table)):
            raise errors.UnknownLine(f"{name!r} is not a colored line of {render(self)}")
        return table[int(idx) - 1]

    def __repr__(self):
        return f"BraneDiagram({render(self)!r})"


# positions of U_1, U_2, ... and of V_1, V_2, ...; names[pos - 1] of the line at pos
_Tables = collections.namedtuple("_Tables", "blue red names dsl")


def _build_tables(d):
    n = len(d.colors)
    blue = tuple(k for k in range(1, n + 1) if d.colors[k - 1] == BLUE)
    red = tuple(k for k in range(n, 0, -1) if d.colors[k - 1] == RED)
    names = {p: f"U{u}" for u, p in enumerate(blue, 1)} | {p: f"V{v}" for v, p in enumerate(red, 1)}
    marks = ("/" if c == RED else "\\" for c in d.colors)
    dsl = str(d.blacks[0]) + "".join(m + str(x) for m, x in zip(marks, d.blacks[1:]))
    return _Tables(blue, red, tuple(names[p] for p in range(1, n + 1)), dsl)


def parse(src):
    """Parse the diagram DSL, e.g. "0/1\\1/2\\2\\2/0".

    '/' is red and '\\' is blue; 'r' and 'b' are accepted as shell-friendly
    aliases.
    """
    blacks, colors = [], []
    pos = 0
    n = len(src)
    while True:
        start = pos
        while pos < n and "0" <= src[pos] <= "9":
            pos += 1
        if pos == start:
            raise errors.SyntaxError("expected a black-line label", pos)
        if pos - start > algebra.MAX_DIGITS:
            raise errors.SyntaxError(f"a label of more than {algebra.MAX_DIGITS} digits", start)
        blacks.append(int(src[start:pos]))
        if pos == n:
            break
        c = src[pos]
        if c == "/" or c == RED:
            colors.append(RED)
        elif c == "\\" or c == BLUE:
            colors.append(BLUE)
        else:
            raise errors.SyntaxError(f"expected '/', '\\', 'r' or 'b', got {c!r}", pos)
        pos += 1
    if len(blacks) < 2:
        raise errors.SyntaxError("a diagram needs at least one colored line", 0)
    return BraneDiagram(tuple(blacks), tuple(colors))


def render(d):
    """Canonical DSL string of a diagram (inverse of parse)."""
    return d._tables.dsl


def admissible(d):
    """d_j <= d_{j-1} + d_{j+1} + 1 at every red-black-blue or blue-black-red
    junction."""
    b, c = d.blacks, d.colors  # c[i - 1], c[i] flank the black line b[i]
    return all(b[i] <= b[i - 1] + b[i + 1] + 1 for i in range(1, len(c)) if c[i - 1] != c[i])


def sdeg(d):
    """Separation degree: number of (blue, red) pairs with the blue strictly
    left of the red."""
    return sum(d.colors[:k].count(BLUE) for k, c in enumerate(d.colors) if c == RED)


def separated(d):
    return sdeg(d) == 0


def hw_transition(d, k):
    """Hanany-Witten move at colored positions (k, k+1).

    The two positions must carry opposite colors.  Colors swap and the black
    label between them becomes a + b + 1 - d where a, b are the flanking
    black labels.
    """
    if not 1 <= k <= d.n_colored - 1:
        raise errors.NotAdjacentOppositePair(f"position {k} out of range")
    if d.color_at(k) == d.color_at(k + 1):
        raise errors.NotAdjacentOppositePair(f"positions {k},{k + 1} have equal colors")
    a, mid, b = d.label(k), d.label(k + 1), d.label(k + 2)
    new_mid = a + b + 1 - mid
    if new_mid < 0:
        raise errors.NegativeLabel(f"move at {k} gives label {new_mid} (inadmissible input)")
    blacks = list(d.blacks)
    blacks[k] = new_mid
    colors = list(d.colors)
    colors[k - 1], colors[k] = colors[k], colors[k - 1]
    return BraneDiagram(tuple(blacks), tuple(colors))


def separate(d):
    """Apply HW moves at the leftmost blue-red adjacency until sdeg = 0.

    Returns (separated diagram, list of positions moved).  Each move lowers
    sdeg by one, so there are sdeg(d) moves, unless a move would make a label
    negative: then the variety of the admissible diagram d is empty, and
    :class:`errors.EmptyVariety` is raised.
    """
    if not admissible(d):
        raise errors.NegativeLabel("separate requires an admissible diagram")
    moves = []
    cur = d
    while True:
        for k in range(1, cur.n_colored):
            if cur.color_at(k) == BLUE and cur.color_at(k + 1) == RED:
                if cur.label(k + 1) > cur.label(k) + cur.label(k + 2) + 1:
                    raise errors.EmptyVariety(
                        f"the variety of {render(d)} is empty: the move at {k} "
                        "gives a negative label"
                    )
                cur = hw_transition(cur, k)
                moves.append(k)
                break
        else:
            return cur, moves
