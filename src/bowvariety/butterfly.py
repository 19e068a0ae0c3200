"""Butterfly diagrams and explicit fixed-point data.

For each tie diagram D and blue line U there is a butterfly: a lattice of
vertices arranged in columns over the black lines, with colored arrows.  The
direct sum of the butterflies of all blue lines yields the fibers W_X and the
matrices (A_U, B_U^+, B_U^-, a_U, b_U, C_V, D_V) of the torus fixed point
indexed by D.  :func:`verify_fixed_point` checks every algebraic condition
these matrices must satisfy.
"""

from __future__ import annotations

import functools
import itertools
import types
from dataclasses import dataclass

from . import brane, errors, linalg, tie

EXTERNAL = "*"  # the external node of green arrows


@dataclass(frozen=True)
class ButterflyData:
    """The butterfly of one blue line: its lattice, and arrows drawn on read.

    Vertices are (i, j) with i the column position relative to the black
    line U^- (absolute index J) and j the height.  The equivariant height of
    every vertex is j - max(d_{U^-} - 1, 0), one shift for the whole lattice.
    Assembly reads only the heights, stored by column, bottom-up (sorted).
    The ties enter only through the cover counts, so one object, cached by
    :func:`_lattice`, is shared read-only by every tie diagram with the same
    ties at U.
    """

    blue: str  # the name U<u> of the line
    J: int  # absolute index of the black line U^-
    colors: tuple  # the colors of the diagram's lines, by position
    cover_counts: tuple  # d_{D,U,X} per black line, 1-based via [j-1]
    column_bottoms: tuple  # c_{D,U,X} per black line
    heights: types.MappingProxyType  # read-only: vertex -> equivariant height

    @property
    def vertices(self):  # a read-only view
        return self.heights.keys()

    @functools.cached_property
    def arrows(self):
        """The arrows (color, source, target), drawn by assembly's rule: an
        operator (cod, dom, step, _) of line p in ``_OPERATORS`` is an arrow
        from the vertex of height m over X_{p+dom} to the one of height
        m + step over X_{p+cod}, if any; "*", U's external node of height 0,
        is at p = J only.  Sorted by source, then color; the greens last, from "*" first."""
        fibers = {(EXTERNAL, self.J): {0: EXTERNAL}}  # X_j by j: height -> vertex
        for v, m in self.heights.items():
            fibers.setdefault(v[0] + self.J, {})[m] = v
        drawn = set()  # a black arrow is drawn once, for B^+ and B^- alike
        for p, color in enumerate(self.colors, start=1):
            ends = {0: p, 1: p + 1, None: (EXTERNAL, p)}
            for key, (cod, dom, step, _entry) in _OPERATORS[color].items():
                targets = fibers.get(ends[cod], {})
                for m, src in fibers.get(ends[dom], {}).items():
                    if m + step in targets:
                        drawn.add((_ARROW_COLORS.get(key, "green"), src, targets[m + step]))
        rank = [*_ARROW_COLORS.values(), "green"]  # "*" is never compared with a vertex
        return tuple(sorted(
            drawn, key=lambda a: (a[0] == "green", a[1] != EXTERNAL, a[1], rank.index(a[0]))
        ))

    def to_json(self):
        return {
            "blue": self.blue,
            "J": self.J,
            "coverCounts": list(self.cover_counts),
            "columnBottoms": list(self.column_bottoms),
            "vertices": sorted(self.vertices),
            "heights": [
                [list(v), jj] for v, jj in sorted(self.heights.items())
            ],
            "arrows": [
                [color, list(s) if s != EXTERNAL else s, list(t) if t != EXTERNAL else t]
                for color, s, t in self.arrows
            ],
        }


def _cover_counts(t, J):
    """Cover counts of the blue line U at position J: a prefix sum over its ties."""
    steps = [0] * len(t.base.blacks)
    for l, r in t.ties:  # (l, r) covers X_{l+1} .. X_r
        if l == J or r == J:
            steps[l] += 1
            steps[r] -= 1
    return tuple(itertools.accumulate(steps))


LATTICE_CACHE_SIZE = 128  # a sweep diagram needs at most 12 lattices, flag 35


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice(colors, J, cc):
    """The butterfly of the blue line at position J, its lattice only: the
    arrows are drawn on first read (:attr:`ButterflyData.arrows`).  The ties
    enter only through the cover counts cc, so one cached, immutable
    :class:`ButterflyData` is shared by all tie diagrams with the same ties at U.

    An equivariant height is the lattice height less max(d_{U^-} - 1, 0).
    Heights are fixed up to a constant on each connected component of the
    arrows, pinned by the green arrows: the green-in target (top of the U^-
    column, which starts at 0) at 0, the green-out source (at d_{U^-} in the
    U^+ column, which starts at 1 if d_{U^-} = 0) at 1.  This one shift does
    both, and a butterfly is connected, so it serves every vertex.
    """
    n = len(cc)
    cb = [0] * n
    # rightward: columns on the attracting side of U
    for j in range(J + 1, n + 1):
        cb[j - 1] = cc[J] - cc[j - 1] + (1 if cc[J - 1] == 0 else 0)
    # leftward: step across the colored line between X_j and X_{j+1}
    for j in range(J - 1, 0, -1):
        cb[j - 1] = cb[j] - (colors[j - 1] == brane.RED and cc[j - 1] + 1 != cc[j])
    shift = max(cc[J - 1] - 1, 0)
    heights = types.MappingProxyType({  # by column, bottom-up: sorted
        (i, jj): jj - shift
        for i, (b, c) in enumerate(zip(cb, cc), start=1 - J) for jj in range(b, b + c)
    })
    blue = f"U{colors[:J].count(brane.BLUE)}"
    return ButterflyData(blue, J, colors, cc, tuple(cb), heights)


def build_butterfly(t, U):
    """The butterfly of the blue line named U (as "U2") at t: the read-only
    object that :func:`_lattice` caches for the ties at U."""
    d = t.base
    J = d.position_of(U)
    if d.color_at(J) != brane.BLUE:
        raise errors.UnknownLine(f"{U!r} is not a blue line of {brane.render(d)}")
    return _lattice(d.colors, J, _cover_counts(t, J))


@dataclass
class FixedPointData:
    """Assembled fixed-point matrices over the labeled butterfly bases.

    ``bases[j]`` lists the labels (u, i, jj) spanning the fiber W_{X_j},
    ordered by (u, jj), jj being the equivariant height.  ``per_blue["U<u>"]``
    holds A, Bplus, Bminus, a, b; ``per_red["V<m>"]`` holds C and D
    (:func:`verify_fixed_point` tables them by position).  Operators are sparse
    :class:`linalg.Mat` rows with no stored zeros: +-1 at each graded pair of
    lines as assembled, any int or Fraction once edited.  No butterflies are kept.
    """

    tie_diagram: tie.TieDiagram
    bases: dict  # black index j -> list of (u, i, jj)
    per_blue: dict
    per_red: dict

    @property
    def base(self):
        return self.tie_diagram.base

    def to_json(self):
        def mat_json(m):
            rows = [["0"] * m.cols] * m.rows  # the rows without entries share one list
            for i, row in m.entries.items():
                rows[i] = dense = rows[i].copy()
                for j, x in row.items():
                    dense[j] = str(x)
            return rows

        def ops_json(per):  # line name -> operator key -> dense rows
            return {name: {k: mat_json(m) for k, m in ops.items()} for name, ops in per.items()}

        return {
            "tie": self.tie_diagram.to_json(),
            "bases": {
                str(j): [list(lbl) for lbl in labels]
                for j, labels in self.bases.items()
            },
            "perBlue": ops_json(self.per_blue),
            "perRed": ops_json(self.per_red),
        }


# The operators of the colored line at position p: (codomain, domain, height
# step, entry).  A fiber is an offset from X_p, or None for the external C of
# a blue line U, whose one basis line is (U, height 0).  A graded operator
# takes the basis line (U, m) only to lines (U, m + step).  Assembly writes
# ``entry`` at each such pair of lines of its fibers: the minus signs on B^+,
# B^- and b make the triangle relation B^-A - AB^+ + ab = 0 hold.
_OPERATORS = {
    brane.BLUE: {
        "A": (0, 1, 0, 1),
        "Bplus": (1, 1, -1, -1),
        "Bminus": (0, 0, -1, -1),
        "a": (0, None, 0, 1),
        "b": (None, 1, -1, -1),
    },
    brane.RED: {"C": (0, 1, -1, 1), "D": (1, 0, 0, 1)},
}
# the arrows' colors, in the order a vertex's are drawn (a and b: green, last)
_ARROW_COLORS = {"Bplus": "black", "Bminus": "black", "A": "blue", "C": "violet", "D": "red"}


def assemble_fixed_point(t):
    """The block matrices of a tie diagram, read off the fiber labels of its
    cached butterflies (:func:`_lattice`).  Each operator of ``_OPERATORS``
    takes the basis line (u, m) of its domain to the line (u, m + step) of
    its codomain, if there is one, with its ``entry``; a blue line U's
    external line is (U, 0).  A butterfly gives each fiber one column of
    distinct heights, so these entries are its arrows, which
    :attr:`ButterflyData.arrows` draws by this same rule."""
    d = t.base
    # u ascends, each lattice is walked by column, bottom-up, and has one
    # height shift, so each fiber's labels come out ordered by (u, height),
    # each once; index[j] takes (u, height) to its place in W_{X_j}
    bases = {j: [] for j in range(1, len(d.blacks) + 1)}
    index = {j: {} for j in bases}
    for u, J in enumerate(d.blue_positions(), start=1):
        bf = _lattice(d.colors, J, _cover_counts(t, J))
        for (i, _jj), height in bf.heights.items():
            index[i + J][u, height] = len(bases[i + J])
            bases[i + J].append((u, i, height))

    per_blue, per_red = {}, {}
    names = d._tables.names  # read once: line_name(p) checks p on every call
    for p, (name, color) in enumerate(zip(names, d.colors), start=1):
        fibers = {0: index[p], 1: index[p + 1]}
        fibers[None] = {(int(name[1:]), 0): 0} if color == brane.BLUE else {}
        ops = (per_blue if color == brane.BLUE else per_red)[name] = {}
        for key, (cod, dom, step, entry) in _OPERATORS[color].items():
            rows, cols = fibers[cod], fibers[dom]
            entries = {}
            for (u, height), c in cols.items():
                r = rows.get((u, height + step))
                if r is not None:
                    entries[r] = {c: entry}
            ops[key] = linalg.Mat(len(rows), len(cols), entries)
    # the red lines are numbered from the right: list them V1, V2, ...
    return FixedPointData(t, bases, per_blue, dict(reversed(per_red.items())))


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def render(self):
        lines = []
        for c in self.checks:
            status = "skip" if c.skipped else ("pass" if c.ok else "FAIL")
            lines.append(f"{c.name:<16} {status}")
            lines.extend(f"    {m}" for m in c.messages)
        return "\n".join(lines)


def _tables(f):
    """The tables the checks read, built per call and not kept on ``f`` (an
    edited copy would read stale ones): ``lines[p - 1]`` is (name, color,
    operators) of the colored line at position p, and ``ids[j]`` the vertex
    ids (u, black line, height) of the basis of W_{X_j}."""
    d = f.base
    ops = f.per_blue | f.per_red
    lines = [(name, color, ops[name]) for name, color in zip(d._tables.names, d.colors)]
    ids = {j: [(u, j, h) for u, _i, h in labels] for j, labels in f.bases.items()}
    return lines, ids


def _operator_entries(lines, ids):
    """Every operator that has nonzero entries, with them, read through
    ``_OPERATORS`` in one scan that stability and grading share: (line name,
    key, height step, [(row vertex, column vertex), ...]), a vertex being one
    of ``ids`` or U's external one, (U, None, 0).  The rows are sparse, so the
    scan costs one step per operator and one per nonzero entry."""
    for p, (name, color, ops) in enumerate(lines, start=1):
        fibers = {0: ids[p], 1: ids[p + 1]}
        fibers[None] = [(int(name[1:]), None, 0)] if color == brane.BLUE else []
        for key, (cod, dom, step, _entry) in _OPERATORS[color].items():
            if ops[key].entries:
                yield name, key, step, ops[key].support(fibers[cod], fibers[dom])


def _check_moment_map(f, lines):
    result = errors.CheckResult("moment-map")
    for j, ((_, left, lop), (_, right, rop)) in enumerate(itertools.pairwise(lines), start=2):
        # W_j's endomorphisms from its left line (B^+, or D C) and from its
        # right line (B^-, or C D): equal when the lines share a color, and
        # summing to zero when they do not
        x = lop["Bplus"] if left == brane.BLUE else lop["D"] * lop["C"]
        y = rop["Bminus"] if right == brane.BLUE else rop["C"] * rop["D"]
        if x != (y if left == right else -y):
            result.fail(f"moment map nonzero at X{j}")

    for name, ops in f.per_blue.items():
        lhs, ab = ops["Bminus"] * ops["A"], ops["a"] * ops["b"]  # ab is mostly zero
        if (lhs if ab.is_zero() else lhs + ab) != ops["A"] * ops["Bplus"]:
            result.fail(f"triangle relation fails at {name}")
    return result


def _rows(*mats):
    """The nonzero rows of the matrices stacked (columns, of transposes)."""
    return [row for m in mats for row in m.entries.values()]


def _rank(gens, m=None, columns=False):
    """The rank of the rows of the matrices ``gens`` stacked (their columns,
    if ``columns``), or with ``m`` the :func:`linalg.krylov_rank` of them
    under v -> v m (v -> m v).  When every row (column) of ``gens`` and of
    ``m`` has one entry, each generator is a nonzero multiple of a unit
    vector, and the image of a unit vector is one too, or zero: the rank is
    the count of unit vectors the generators hit, closed along the entries
    of ``m``.  Any other input is ranked by elimination (:func:`_eliminated`)."""
    hit = set()
    for g in gens:
        rows = g.entries.values()
        cols = set().union(*rows)
        if sum(map(len, rows)) != len(cols if columns else rows):
            return _eliminated(gens, m, columns)
        hit.update(g.entries if columns else cols)
    if m is None or not m.entries:
        return len(hit)
    edges = {j: (i,) for i, row in m.entries.items() for j in row} if columns else m.entries
    if len(edges) != sum(map(len, m.entries.values())):
        return _eliminated(gens, m, columns)
    return len(_closure(hit, edges))


def _eliminated(gens, m, columns):
    """:func:`_rank` by exact elimination, on transposes for ``columns``."""
    if columns:
        gens, m = [g.transpose() for g in gens], m and m.transpose()
    rows = _rows(*gens)
    return linalg.rank(rows) if m is None else linalg.krylov_rank(rows, m)


def _check_s1_s2(f):
    """S1 and S2 per blue line, each as one rank (observability and
    controllability of the pairs (B^+, [A; b]) and (B^-, [A | a]))."""
    result = errors.CheckResult("s1-s2")
    for name, ops in f.per_blue.items():
        bplus, bminus = ops["Bplus"], ops["Bminus"]
        # S1: the largest B^+-invariant subspace of ker A  cap  ker b is the
        # kernel of the observability matrix [A; b] (B^+)^k, k = 0, 1, ...;
        # it is zero iff the rows of [A; b] and their images under
        # v -> v B^+ span the dual of W^+.
        if _rank((ops["A"], ops["b"]), bplus) != bplus.rows:
            result.fail(f"S1 fails at {name}")
        # S2: the Krylov closure of Im A + Im a under B^- is W^- iff the
        # columns of [A | a] and their images under B^- span W^-
        if _rank((ops["A"], ops["a"]), bminus, columns=True) != bminus.rows:
            result.fail(f"S2 fails at {name}")
    return result


def _closure(seed, edges):
    out = set(seed)
    stack = list(seed)
    while stack:
        for w in edges.get(stack.pop(), ()):
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def _check_stability(lines, ids, entries):
    """Decide whether a graded subspace destabilizes the point.

    Vertices are basis lines, edges the nonzero ``entries`` of every operator
    but a and b (see :func:`_operator_entries`).  A destabilizing T is a
    proper set of lines that holds the lines a_U hits, is closed under the
    edges, and on whose quotients every A_U induces an isomorphism.  Once
    grading passes, a destabilizing subspace may be taken to be spanned by
    basis lines, and each line is the only one of its fiber with its
    (u, height), which A_U keeps: so A_U pairs the lines of W_{U+} with those
    of W_{U-} one to one, and induces an isomorphism exactly when every line
    outside T has a partner, also outside T.  The sets with these properties
    are closed under intersection, so the point is stable iff the smallest,
    the closure of Im a and of the unpartnered lines under the edges and the
    A entries reversed, is every line; when it is not, it lies inside every
    destabilizing set, and the message gives its dimension.
    """
    result = errors.CheckResult("stability")
    edges = {v: [] for fiber in ids.values() for v in fiber}
    seeds = []
    for _name, key, _step, nonzero in entries:
        if key == "a":
            seeds += [row for row, _col in nonzero]
        elif key != "b":
            for row, col in nonzero:
                edges[col].append(row)
                if key == "A":
                    edges[row].append(col)
    for p, (_name, color, ops) in enumerate(lines, start=1):
        if color == brane.BLUE:  # the lines of W_{U-} and W_{U+} that A_U misses
            a_rows = ops["A"].entries
            a_cols = {c for row in a_rows.values() for c in row}
            seeds += [v for r, v in enumerate(ids[p]) if r not in a_rows]
            seeds += [v for c, v in enumerate(ids[p + 1]) if c not in a_cols]
    closed = _closure(seeds, edges)
    if len(closed) < len(edges):
        result.fail(f"destabilizing subspace of dimension {len(closed)} found")
    return result


def _check_junctions(lines, ids):
    result = errors.CheckResult("junctions")
    for j, ((_, left, lop), (_, right, rop)) in enumerate(itertools.pairwise(lines), start=2):
        if (left, right) == (brane.BLUE, brane.RED):
            # X_j = U^+ = V^-: (A_U, D_V, b_U) must be injective on W_j
            if _rank((lop["A"], rop["D"], lop["b"])) != len(ids[j]):
                result.fail(f"junction map not injective at X{j}")
        elif (left, right) == (brane.RED, brane.BLUE):
            # X_j = V^+ = U^-: [D_V | A_U | a_U] must be surjective onto W_j
            if _rank((lop["D"], rop["A"], rop["a"]), columns=True) != len(ids[j]):
                result.fail(f"junction map not surjective at X{j}")
    return result


def _check_nilpotency(f):
    result = errors.CheckResult("nilpotency")
    d = f.base
    if not brane.separated(d):
        result.skipped = True
        result.messages.append("skipped: diagram is not separated")
        return result
    big_m = d.n_red
    for m in range(1, big_m):
        ops = f.per_red[f"V{m}"]
        cd = ops["C"] * ops["D"]  # acts on W_{V^-}
        dc = ops["D"] * ops["C"]  # acts on W_{V^+}
        if not cd.power(big_m - m).is_zero():
            result.fail(f"(C D)^{big_m - m} nonzero at V{m}")
        if not dc.power(big_m - m + 1).is_zero():
            result.fail(f"(D C)^{big_m - m + 1} nonzero at V{m}")
    if d.n_blue:
        bminus = f.per_blue["U1"]["Bminus"]
        if not bminus.power(big_m).is_zero():
            result.fail(f"(B^-_U1)^{big_m} nonzero")
    return result


def _check_grading(entries):
    """Every nonzero entry of an operator takes a basis line (U, m) to a line
    (U, m + step), step being the operator's height step in ``_OPERATORS``."""
    result = errors.CheckResult("grading")
    for name, key, step, nonzero in entries:
        if any(ru != cu or rh != ch + step for (ru, _r, rh), (cu, _c, ch) in nonzero):
            result.fail(f"{key}_{name} breaks the grading")
    return result


def verify_fixed_point(f):
    """Run all six fixed-point checks and return a report.

    Checks: (1) moment map and triangle relation, (2) the kernel/cokernel
    conditions S1 and S2 per blue line, as the rank of an observability and
    of a controllability (Krylov) matrix, (3) absence of destabilizing
    graded subspaces, decided by one closure walk over the basis lines, (4)
    injectivity and surjectivity of the junction maps, as ranks, (5)
    nilpotency exponents on separated diagrams, (6) torus grading of every
    operator.  Ranks are exact: counts of the unit vectors reached when every
    row (column) involved has one entry, as assembled operators do, and
    exact elimination otherwise (:func:`_rank`).  Nilpotency is skipped on
    diagrams that are not separated, and stability when the grading fails,
    since off the grading a destabilizing subspace need not be spanned by
    basis lines.  Failures are report entries, never exceptions.
    """
    lines, ids = _tables(f)
    entries = list(_operator_entries(lines, ids))
    grading = _check_grading(entries)
    if grading.ok:
        stability = _check_stability(lines, ids, entries)
    else:
        stability = errors.CheckResult("stability", skipped=True)
        stability.messages.append("skipped: the grading fails")
    return VerificationReport(
        checks=[
            _check_moment_map(f, lines),
            _check_s1_s2(f),
            stability,
            _check_junctions(lines, ids),
            _check_nilpotency(f),
            grading,
        ]
    )


def render_ascii(bf, d):
    """Dot plot of a butterfly of the diagram d: columns over the black lines,
    one character per vertex, with the arrow list underneath."""
    n = len(d.blacks)
    heights = [jj for _i, jj in bf.vertices]
    lines = [f"butterfly of {bf.blue} on {brane.render(d)} (J = {bf.J})"]
    if heights:
        for jj in range(max(heights), min(heights) - 1, -1):
            row = "".join(
                " o " if (j - bf.J, jj) in bf.vertices else " . "
                for j in range(1, n + 1)
            )
            lines.append(f"{jj:>3} |{row}")
        lines.append("    +" + "---" * n)
        lines.append("     " + "".join(f"{j:^3}" for j in range(1, n + 1)))
    else:
        lines.append("(empty)")
    for color, src, tgt in bf.arrows:
        lines.append(f"  {color}: {src} -> {tgt}")
    return "\n".join(lines)
