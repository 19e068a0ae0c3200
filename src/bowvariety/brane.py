"""Brane diagrams: data model, DSL parser, admissibility, Hanany-Witten moves.

A brane diagram is a sequence of horizontal black lines labeled by
nonnegative integers d_1 .. d_{M+N+1} (first and last zero), separated by
colored lines: '/' (red) and '\\' (blue).  Red lines V_1..V_M are numbered
right-to-left, blue lines U_1..U_N left-to-right.  Black lines are X_1..
X_{M+N+1} left-to-right; the colored line at position k sits between X_k and
X_{k+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors

RED = "r"
BLUE = "b"


@dataclass(frozen=True)
class BraneDiagram:
    blacks: tuple  # d_1 .. d_{M+N+1}
    colors: tuple  # length M+N, entries RED/BLUE

    def __post_init__(self):
        object.__setattr__(self, "blacks", tuple(int(d) for d in self.blacks))
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.blacks) != len(self.colors) + 1:
            raise ValueError("label/color length mismatch")
        if any(d < 0 for d in self.blacks):
            raise errors.NegativeLabel(str(self.blacks))
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

    def red_positions(self):
        """Positions of V_1, V_2, ... (right-to-left numbering)."""
        return [k + 1 for k in reversed(range(len(self.colors))) if self.colors[k] == RED]

    def blue_positions(self):
        """Positions of U_1, U_2, ... (left-to-right numbering)."""
        return [k + 1 for k in range(len(self.colors)) if self.colors[k] == BLUE]

    def color_at(self, pos):
        return self.colors[pos - 1]

    def label(self, j):
        """Black label d_j, 1-based."""
        return self.blacks[j - 1]

    def line_name(self, pos):
        """Name ("U3"/"V1") of the colored line at a 1-based position."""
        if self.color_at(pos) == BLUE:
            return f"U{self.blue_positions().index(pos) + 1}"
        return f"V{self.red_positions().index(pos) + 1}"

    def position_of(self, name):
        """Position of a colored line given its name ("U2", "V1")."""
        kind, idx = name[:1], name[1:]
        table = {"U": self.blue_positions, "V": self.red_positions}.get(kind, list)()
        if not (idx.isascii() and idx.isdigit() and 1 <= int(idx) <= len(table)):
            raise errors.UnknownLine(f"{name!r} is not a colored line of {render(self)}")
        return table[int(idx) - 1]

    def __repr__(self):
        return f"BraneDiagram({render(self)!r})"


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
    out = [str(d.blacks[0])]
    for c, label in zip(d.colors, d.blacks[1:]):
        out.append("/" if c == RED else "\\")
        out.append(str(label))
    return "".join(out)


def admissible(d):
    """d_j <= d_{j-1} + d_{j+1} + 1 at every red-black-blue or blue-black-red
    junction."""
    for j in range(2, len(d.blacks)):
        left, right = d.color_at(j - 1), d.color_at(j)
        if left != right:
            if d.label(j) > d.label(j - 1) + d.label(j + 1) + 1:
                return False
    return True


def sdeg(d):
    """Separation degree: number of (blue, red) pairs with the blue strictly
    left of the red."""
    count = 0
    blues_seen = 0
    for c in d.colors:
        if c == BLUE:
            blues_seen += 1
        else:
            count += blues_seen
    return count


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
        raise errors.NegativeLabel(
            f"move at {k} gives label {new_mid} (inadmissible input)"
        )
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
