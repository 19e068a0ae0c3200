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
from dataclasses import dataclass, field

from . import brane, errors, linalg, tie

EXTERNAL = "*"  # the external node of green arrows


def _blue_index(d, U):
    """Normalize a blue-line argument ("U2" or 2) to a 1-based index."""
    if isinstance(U, str):
        if not (U.startswith("U") and U[1:].isascii() and U[1:].isdigit()):
            raise errors.UnknownLine(f"{U!r} is not a blue line")
        U = int(U[1:])
    if not 1 <= U <= d.n_blue:
        raise errors.UnknownLine(f"'U{U}' is not a blue line (N={d.n_blue})")
    return U


@dataclass(frozen=True)
class ButterflyData:
    """One butterfly: the (tie diagram, blue line) lattice with its arrows.

    Vertices are (i, j) with i the column position relative to the black
    line U^- (absolute index J) and j the height.  Arrows are
    (color, source, target) with green arrows using the node "*".  The
    equivariant height of every vertex is j - max(d_{U^-} - 1, 0), one shift
    for the whole lattice (see :func:`_lattice`).  The lattice is a function
    of (colors, J, cover counts), shared read-only between tie diagrams;
    only ``tie_diagram`` differs per call.
    """

    tie_diagram: tie.TieDiagram
    blue: str
    J: int  # absolute index of the black line U^-
    cover_counts: tuple  # d_{D,U,X} per black line, 1-based via [j-1]
    column_bottoms: tuple  # c_{D,U,X} per black line
    vertices: frozenset  # of (i, j)
    arrows: tuple  # of (color, source, target)
    heights: types.MappingProxyType  # read-only: vertex -> equivariant height

    def column(self, j_abs):
        """Vertices in the column over black line X_{j_abs}, bottom-up."""
        d = self.cover_counts[j_abs - 1]
        c = self.column_bottoms[j_abs - 1]
        i = j_abs - self.J
        return [(i, jj) for jj in range(c, c + d)]

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
    """(column bottoms, vertices, arrows, read-only equivariant heights,
    (absolute column, height) per vertex) of the blue line at position J.
    The ties enter only through the cover counts cc, so one cached lattice,
    immutable in every part, serves all tie diagrams with the same ties at U.

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
    vertices = {
        (j - J, jj) for j in range(1, n + 1) for jj in range(cb[j - 1], cb[j - 1] + cc[j - 1])
    }

    arrows = []
    for i, jj in sorted(vertices):
        a = i + J  # absolute black index of this column
        left = colors[a - 2] if a >= 2 else None
        right = colors[a - 1] if a <= n else None
        # black arrows: only in columns whose black line touches a blue line
        if (left == brane.BLUE or right == brane.BLUE) and (i, jj - 1) in vertices:
            arrows.append(("black", (i, jj), (i, jj - 1)))
        if left == brane.BLUE and (i - 1, jj) in vertices:
            arrows.append(("blue", (i, jj), (i - 1, jj)))
        if left == brane.RED and (i - 1, jj - 1) in vertices:
            arrows.append(("violet", (i, jj), (i - 1, jj - 1)))
        if right == brane.RED and (i + 1, jj) in vertices:
            arrows.append(("red", (i, jj), (i + 1, jj)))
    # green-in: external node to the top vertex of the U^- column
    if cc[J - 1]:
        arrows.append(("green", EXTERNAL, (0, cb[J - 1] + cc[J - 1] - 1)))
    # green-out: the d_{U^-}-th vertex from the bottom of the U^+ column to
    # the external node (one height step above the green-in target, as the
    # triangle relation's grading requires)
    if cc[J - 1] < cc[J]:
        arrows.append(("green", (1, cb[J] + cc[J - 1]), EXTERNAL))

    shift = max(cc[J - 1] - 1, 0)
    heights = types.MappingProxyType({v: v[1] - shift for v in vertices})
    pairs = tuple((i + J, height) for (i, _jj), height in heights.items())
    return tuple(cb), frozenset(vertices), tuple(arrows), heights, pairs


def build_butterfly(t, U):
    """The butterfly of the blue line U at t.  Its lattice is a function of
    (colors, J, cover counts), shared read-only through :func:`_lattice` by
    every tie diagram with the same ties at U; only ``tie_diagram`` differs.
    Its ``cover_counts`` are d_{D,U,X} and its ``column_bottoms`` c_{D,U,X},
    per black line; every height is the lattice height less max(d_{U^-} - 1, 0).
    """
    d = t.base
    u = _blue_index(d, U)
    J = d.blue_positions()[u - 1]
    cc = _cover_counts(t, J)
    cb, vertices, arrows, heights, _pairs = _lattice(d.colors, J, cc)
    return ButterflyData(t, f"U{u}", J, cc, cb, vertices, arrows, heights)


@dataclass
class FixedPointData:
    """Assembled fixed-point matrices over the labeled butterfly bases.

    ``bases[j]`` lists the labels (u, i, jj) spanning the fiber W_{X_j},
    ordered by (u, jj), jj being the equivariant height.  ``per_blue["U<u>"]``
    holds A, Bplus, Bminus, a, b; ``per_red["V<m>"]`` holds C and D, and
    :meth:`at` finds either by position.  Assembly writes the integer entries
    0 and +-1; an edited matrix may hold other ints or Fractions.
    """

    tie_diagram: tie.TieDiagram
    butterflies: dict  # blue index -> ButterflyData
    bases: dict  # black index j -> list of (u, i, jj)
    per_blue: dict
    per_red: dict

    @property
    def base(self):
        return self.tie_diagram.base

    def dim(self, j):
        return len(self.bases[j])

    def at(self, pos):
        """The operators of the colored line at position ``pos``."""
        name = self.base.line_name(pos)
        return (self.per_blue if name[0] == "U" else self.per_red)[name]

    def to_json(self):
        def mat_json(m):
            return [[str(x) for x in row] for row in m.data]

        return {
            "tie": self.tie_diagram.to_json(),
            "bases": {
                str(j): [list(lbl) for lbl in labels]
                for j, labels in self.bases.items()
            },
            "perBlue": {
                name: {k: mat_json(m) for k, m in ops.items()}
                for name, ops in self.per_blue.items()
            },
            "perRed": {
                name: {k: mat_json(m) for k, m in ops.items()}
                for name, ops in self.per_red.items()
            },
        }


# Where assembly files an arrow out of the column over X_a: (position of the
# colored line it crosses, less a; operator; entry).  A black arrow feeds the
# B blocks of both flanking lines that are blue.
_FILING = {
    "blue": ((-1, "A", 1),),
    "violet": ((-1, "C", 1),),
    "red": ((0, "D", 1),),
    "black": ((-1, "Bplus", -1), (0, "Bminus", -1)),
}


def assemble_fixed_point(t):
    """Build all butterflies of a tie diagram and the block matrices they
    span.  Each arrow is filed under the colored line it crosses (see
    ``_FILING``): blue arrows populate A, violet C, red D, black -B^+/-B^-,
    and green arrows populate a and b."""
    d = t.base
    n = len(d.blacks)
    butterflies = {u: build_butterfly(t, u) for u in range(1, d.n_blue + 1)}

    # columns run bottom-up and each butterfly has one height shift, so the
    # labels come out ordered by (u, height), each (u, height) once
    bases = {
        j: [(u, i, bf.heights[i, jj]) for u, bf in butterflies.items() for i, jj in bf.column(j)]
        for j in range(1, n + 1)
    }
    index = {j: {(u, h): k for k, (u, _i, h) in enumerate(bases[j])} for j in bases}

    ops = {}  # colored position -> the operators of its line
    for p in range(1, n):
        lo, hi = len(bases[p]), len(bases[p + 1])
        shapes = (
            {"A": (lo, hi), "Bplus": (hi, hi), "Bminus": (lo, lo), "a": (lo, 1), "b": (1, hi)}
            if d.color_at(p) == brane.BLUE
            else {"C": (lo, hi), "D": (hi, lo)}
        )
        ops[p] = {key: linalg.Mat.zero(*shape) for key, shape in shapes.items()}

    for u, bf in butterflies.items():
        J = bf.J
        for color, src, tgt in bf.arrows:
            if color == "green":
                if src == EXTERNAL:
                    ops[J]["a"][index[J][u, bf.heights[tgt]], 0] = 1
                else:
                    # the minus sign makes the triangle relation
                    # B^-A - AB^+ + ab = 0 hold alongside the sign
                    # convention of the black arrows in B^+/B^-
                    ops[J]["b"][0, index[J + 1][u, bf.heights[src]]] = -1
                continue
            a = src[0] + J
            col = index[a][u, bf.heights[src]]
            row = index[tgt[0] + J][u, bf.heights[tgt]]
            for offset, key, entry in _FILING[color]:
                mat = ops.get(a + offset, {}).get(key)
                if mat is not None:
                    mat[row, col] += entry

    return FixedPointData(
        tie_diagram=t,
        butterflies=butterflies,
        bases=bases,
        per_blue={d.line_name(p): ops[p] for p in d.blue_positions()},
        per_red={d.line_name(q): ops[q] for q in d.red_positions()},
    )


def fiber_weights(t):
    """Torus weights of every fiber W_{X_j}: ``{j: {(u, m): 1}}``, one weight
    t_u + m*h per butterfly vertex over X_j, m being its equivariant height.
    The heights of a column are distinct, so every multiplicity is 1.  Reads
    the shared lattices of :func:`_lattice`, the ones :func:`build_butterfly`
    wraps, into fresh plain dicts."""
    d = t.base
    fibers = {j: {} for j in range(1, len(d.blacks) + 1)}
    for u, J in enumerate(d.blue_positions(), start=1):
        for j, height in _lattice(d.colors, J, _cover_counts(t, J))[4]:
            fibers[j][u, height] = 1
    return fibers


# ---------------------------------------------------------------------------
# verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    skipped: bool = False
    messages: list = field(default_factory=list)

    def fail(self, msg):
        self.ok = False
        self.messages.append(msg)


@dataclass
class VerificationReport:
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self):
        lines = []
        for c in self.checks:
            status = "skip" if c.skipped else ("pass" if c.ok else "FAIL")
            lines.append(f"{c.name:<16} {status}")
            lines.extend(f"    {m}" for m in c.messages)
        return "\n".join(lines)


def _check_moment_map(f):
    d = f.base
    result = CheckResult("moment-map", True)
    for j in range(2, len(d.blacks)):
        left, right = d.color_at(j - 1), d.color_at(j)
        lop, rop = f.at(j - 1), f.at(j)
        if left == brane.BLUE and right == brane.BLUE:
            expr = rop["Bminus"] - lop["Bplus"]
        elif left == brane.RED and right == brane.RED:
            expr = lop["D"] * lop["C"] - rop["C"] * rop["D"]
        elif left == brane.RED:
            expr = lop["D"] * lop["C"] + rop["Bminus"]
        else:
            expr = -(rop["C"] * rop["D"]) - lop["Bplus"]
        if not expr.is_zero():
            result.fail(f"moment map nonzero at X{j}")

    for name, ops in f.per_blue.items():
        expr = ops["Bminus"] * ops["A"] - ops["A"] * ops["Bplus"] + ops["a"] * ops["b"]
        if not expr.is_zero():
            result.fail(f"triangle relation fails at {name}")
    return result


def _check_s1_s2(f):
    """S1 and S2 per blue line, each as one rank (observability and
    controllability of the pairs (B^+, [A; b]) and (B^-, [A | a]))."""
    result = CheckResult("s1-s2", True)
    for name, ops in f.per_blue.items():
        bplus, bminus = ops["Bplus"], ops["Bminus"]
        # S1: the largest B^+-invariant subspace of ker A  cap  ker b is the
        # kernel of the observability matrix [A; b] (B^+)^k, k = 0, 1, ...;
        # it is zero iff the rows of [A; b] and their images under
        # v -> v B^+ span the dual of W^+.
        bplus_t = linalg.Mat(bplus.cols, bplus.rows, bplus.columns())
        rows = ops["A"].data + ops["b"].data
        if linalg.krylov_rank(rows, bplus_t) != bplus.rows:
            result.fail(f"S1 fails at {name}")
        # S2: the Krylov closure of Im A + Im a under B^- is W^- iff the
        # columns of [A | a] and their images under B^- span W^-
        cols = ops["A"].columns() + ops["a"].columns()
        if linalg.krylov_rank(cols, bminus) != bminus.rows:
            result.fail(f"S2 fails at {name}")
    return result


def _check_stability(f):
    """Search for a destabilizing graded subspace.

    Fibers are multiplicity-free torus representations, so any destabilizing
    subspace may be taken to be spanned by basis labels.  A candidate T must
    contain Im a_U, be closed under every arrow (operator invariance), and
    every A_U must induce an isomorphism on the quotients; the point is
    stable iff no proper such T exists.  The search is exact: it visits once
    every arrow-closed set containing the closure of the green arrows that
    can still balance, |W_{U-}/T| = |W_{U+}/T| for every U.  Below a node,
    each side S of each U keeps between |S & outside| and |S - inside|
    labels outside T; a node where these two ranges do not meet is dropped.
    """
    result = CheckResult("stability", True)
    # global vertex ids (u, absolute column, height) and the arrow digraph
    succ, pred = {}, {}
    greens = []
    for u, bf in f.butterflies.items():
        for (i, _jj), height in bf.heights.items():
            succ[(u, i + bf.J, height)] = []
            pred[(u, i + bf.J, height)] = []
        for color, src, tgt in bf.arrows:
            if color == "green":
                if src == EXTERNAL:
                    greens.append((u, bf.J, bf.heights[tgt]))
                continue
            s = (u, src[0] + bf.J, bf.heights[src])
            t_ = (u, tgt[0] + bf.J, bf.heights[tgt])
            succ[s].append(t_)
            pred[t_].append(s)

    def closure(seed, edges):
        out = set(seed)
        stack = list(seed)
        while stack:
            for w in edges[stack.pop()]:
                if w not in out:
                    out.add(w)
                    stack.append(w)
        return out

    # per blue U: the vertex ids of the bases of W_{U-} and W_{U+}, and A_U
    ids = {j: [(bu, j, h) for bu, _i, h in labels] for j, labels in f.bases.items()}
    blocks = [
        (ids[p], ids[p + 1], f.per_blue[f"U{u}"]["A"].data)
        for u, p in enumerate(f.base.blue_positions(), start=1)
    ]
    sides = [(set(minus), set(plus)) for minus, plus, _a in blocks]

    def quotients_iso(chosen):
        for minus, plus, a_rows in blocks:
            comp_minus = [k for k, v in enumerate(minus) if v not in chosen]
            comp_plus = [k for k, v in enumerate(plus) if v not in chosen]
            if len(comp_minus) != len(comp_plus):
                return False
            induced = [[a_rows[r][c] for c in comp_plus] for r in comp_minus]
            if linalg.rank(induced) != len(comp_minus):
                return False
        return True

    # Branch on the first undecided vertex v: either T contains v and so
    # everything v reaches, or T misses v and so every ancestor of v.  The
    # included set stays closed under succ and the excluded one under pred,
    # so neither branch can contradict the other side: every leaf is a
    # distinct arrow-closed set.  Each branch carries the index from which
    # to look for its first undecided vertex.
    vertices = sorted(succ)
    reach = {v: closure([v], succ) for v in vertices}
    ancestors = {v: closure([v], pred) for v in vertices}
    stack = [(closure(greens, succ), set(), 0)]
    while stack:
        inside, outside, k = stack.pop()
        # no leaf below can balance: drop the node
        if any(
            len(m & outside) > len(p - inside) or len(p & outside) > len(m - inside)
            for m, p in sides
        ):
            continue
        while k < len(vertices) and (vertices[k] in inside or vertices[k] in outside):
            k += 1
        if k < len(vertices):
            v = vertices[k]
            stack.append((inside, outside | ancestors[v], k + 1))
            stack.append((inside | reach[v], outside, k + 1))
        elif len(inside) < len(vertices) and quotients_iso(inside):
            result.fail(f"destabilizing subspace of dimension {len(inside)} found")
            return result
    return result


def _check_junctions(f):
    result = CheckResult("junctions", True)
    d = f.base
    for j in range(2, len(d.blacks)):
        left, right = d.color_at(j - 1), d.color_at(j)
        if left == right:
            continue
        lop, rop = f.at(j - 1), f.at(j)
        if left == brane.BLUE:
            # X_j = U^+ = V^-: (A_U, D_V, b_U) must be injective on W_j
            rows = lop["A"].data + rop["D"].data + lop["b"].data
            if linalg.rank(rows) != f.dim(j):
                result.fail(f"junction map not injective at X{j}")
        else:
            # X_j = V^+ = U^-: [D_V | A_U | a_U] must be surjective onto W_j
            cols = lop["D"].columns() + rop["A"].columns() + rop["a"].columns()
            if linalg.rank(cols) != f.dim(j):
                result.fail(f"junction map not surjective at X{j}")
    return result


def _check_nilpotency(f):
    result = CheckResult("nilpotency", True)
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


def _check_grading(f):
    result = CheckResult("grading", True)

    def entries_respect(mat, dom, cod, dj, tag):
        for r in range(mat.rows):
            for c in range(mat.cols):
                if mat.data[r][c]:
                    cu, _ci, cj = f.bases[dom][c]
                    ru, _ri, rj = f.bases[cod][r]
                    if cu != ru or rj != cj + dj:
                        result.fail(f"{tag} breaks the grading")
                        return

    for u, p in enumerate(f.base.blue_positions(), start=1):
        ops = f.per_blue[f"U{u}"]
        entries_respect(ops["A"], p + 1, p, 0, f"A_U{u}")
        entries_respect(ops["Bplus"], p + 1, p + 1, -1, f"B+_U{u}")
        entries_respect(ops["Bminus"], p, p, -1, f"B-_U{u}")
        for r in range(ops["a"].rows):
            if ops["a"].data[r][0] and f.bases[p][r][:: 2] != (u, 0):
                result.fail(f"a_U{u} must hit the height-0 line of its own component")
        for c in range(ops["b"].cols):
            if ops["b"].data[0][c] and f.bases[p + 1][c][:: 2] != (u, 1):
                result.fail(f"b_U{u} must read the height-1 line of its own component")
    for m, q in enumerate(f.base.red_positions(), start=1):
        ops = f.per_red[f"V{m}"]
        entries_respect(ops["C"], q + 1, q, -1, f"C_V{m}")
        entries_respect(ops["D"], q, q + 1, 0, f"D_V{m}")
    return result


def verify_fixed_point(f):
    """Run all six fixed-point checks and return a report.

    Checks: (1) moment map and triangle relation, (2) the kernel/cokernel
    conditions S1 and S2 per blue line, as the rank of an observability and
    of a controllability (Krylov) matrix, (3) absence of destabilizing
    graded subspaces, searched exactly over every arrow-closed candidate
    that can still balance |W_{U-}/T| = |W_{U+}/T| for every blue U,
    whatever the size of the point, (4) injectivity/surjectivity of the
    junction maps, as ranks, (5) nilpotency exponents on separated diagrams,
    (6) torus grading of every operator.  Ranks are exact, by integer
    elimination (:func:`linalg.rank`).  Only nilpotency can be skipped (on
    diagrams that are not separated).  Failures are report entries, never
    exceptions.
    """
    return VerificationReport(
        checks=[
            _check_moment_map(f),
            _check_s1_s2(f),
            _check_stability(f),
            _check_junctions(f),
            _check_nilpotency(f),
            _check_grading(f),
        ]
    )


def render_ascii(bf):
    """Dot plot of a butterfly: columns over the black lines, one character
    per vertex, with the arrow list underneath."""
    d = bf.tie_diagram.base
    n = len(d.blacks)
    cols = {j: bf.column(j) for j in range(1, n + 1)}
    heights = [jj for col in cols.values() for _i, jj in col]
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
