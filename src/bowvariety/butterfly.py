"""Butterfly diagrams and explicit fixed-point data.

For each tie diagram D and blue line U there is a butterfly: a lattice of
vertices arranged in columns over the black lines, with colored arrows.  The
direct sum of the butterflies of all blue lines yields the fibers W_X and the
matrices (A_U, B_U^+, B_U^-, a_U, b_U, C_V, D_V) of the torus fixed point
indexed by D.  :func:`verify_fixed_point` checks every algebraic condition
these matrices must satisfy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import brane, errors, linalg, tie

EXTERNAL = "*"  # the external node of green arrows


def _blue_index(d, U):
    """Normalize a blue-line argument ("U2" or 2) to a 1-based index."""
    if isinstance(U, str):
        if not (U.startswith("U") and U[1:].isdigit()):
            raise errors.UnknownLine(f"{U!r} is not a blue line")
        U = int(U[1:])
    if not 1 <= U <= d.n_blue:
        raise errors.UnknownLine(f"U{U} with N={d.n_blue}")
    return U


@dataclass(frozen=True)
class ButterflyData:
    """One butterfly: the (tie diagram, blue line) lattice with its arrows.

    Vertices are (i, j) with i the column position relative to the black
    line U^- (absolute index J) and j the height.  Arrows are
    (color, source, target) with green arrows using the node "*".
    """

    tie_diagram: tie.TieDiagram
    blue: str
    J: int  # absolute index of the black line U^-
    cover_counts: tuple  # d_{D,U,X} per black line, 1-based via [j-1]
    column_bottoms: tuple  # c_{D,U,X} per black line
    vertices: frozenset  # of (i, j)
    arrows: tuple  # of (color, source, target)
    heights: dict  # vertex -> equivariant height (anchored at the green arrows)

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


def cover_counts(t, U):
    """d_{D,U,X} per black line: the ties at U covering X.

    A tie (l, r) covers the black lines X_{l+1} .. X_r; on the left of U
    these are the ties (V, U) with V left of X, on the right the ties
    (U, V) with V weakly right of X.
    """
    d = t.base
    u = _blue_index(d, U)
    p = d.blue_positions()[u - 1]
    incident = [pair for pair in t.ties if p in pair]
    return tuple(
        sum(1 for l, r in incident if l < j <= r)
        for j in range(1, len(d.blacks) + 1)
    )


def column_bottoms(t, U):
    """Column bottom heights c_{D,U,X}: c = 0 at X_J = U^-, then the
    leftward and rightward recursions."""
    d = t.base
    u = _blue_index(d, U)
    p = d.blue_positions()[u - 1]
    cc = cover_counts(t, u)
    n = len(d.blacks)
    c = [0] * n
    J = p  # black line U^- has index p
    # rightward: columns on the attracting side of U
    for j in range(J + 1, n + 1):
        c[j - 1] = cc[J] - cc[j - 1] + (1 if cc[J - 1] == 0 else 0)
    # leftward: step across the colored line between X_j and X_{j+1}
    for j in range(J - 1, 0, -1):
        if d.color_at(j) == brane.BLUE or cc[j - 1] + 1 == cc[j]:
            c[j - 1] = c[j]
        else:
            c[j - 1] = c[j] - 1
    return tuple(c)


def build_butterfly(t, U):
    """Assemble the vertex set and all arrows of one butterfly."""
    d = t.base
    u = _blue_index(d, U)
    p = d.blue_positions()[u - 1]
    J = p
    cc = cover_counts(t, u)
    cb = column_bottoms(t, u)
    n = len(d.blacks)
    vertices = set()
    for j in range(1, n + 1):
        i = j - J
        for jj in range(cb[j - 1], cb[j - 1] + cc[j - 1]):
            vertices.add((i, jj))

    arrows = []
    for i, jj in sorted(vertices):
        a = i + J  # absolute black index of this column
        left = d.color_at(a - 1) if a >= 2 else None
        right = d.color_at(a) if a <= n else None
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

    return ButterflyData(
        tie_diagram=t,
        blue=f"U{u}",
        J=J,
        cover_counts=cc,
        column_bottoms=cb,
        vertices=frozenset(vertices),
        arrows=tuple(arrows),
        heights=_equivariant_heights(vertices, arrows),
    )


def _equivariant_heights(vertices, arrows):
    """Equivariant height of each vertex: the lattice height shifted so that,
    on every connected component, the green-in target sits at height 0 and
    the green-out source at height 1.

    The vertical coordinate only fixes heights up to a constant per connected
    component of the arrow graph; the scalar that compensates the torus
    action on the fixed point pins that constant at the green arrows.
    Components carrying no green arrow would admit a stabilizing scalar and
    cannot occur at a stable point.
    """
    adjacency = {v: [] for v in vertices}
    anchor_in = anchor_out = None
    for color, src, tgt in arrows:
        if color == "green":
            if src == EXTERNAL:
                anchor_in = tgt
            else:
                anchor_out = src
            continue
        adjacency[src].append(tgt)
        adjacency[tgt].append(src)

    component = {}
    for root in sorted(vertices):
        if root in component:
            continue
        stack, members = [root], {root}
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in members:
                    members.add(w)
                    stack.append(w)
        for v in members:
            component[v] = root

    shifts = {}
    if anchor_in is not None:
        shifts[component[anchor_in]] = anchor_in[1]
    if anchor_out is not None:
        shifts.setdefault(component[anchor_out], anchor_out[1] - 1)
    heights = {}
    for v in vertices:
        if component[v] not in shifts:
            raise ValueError(
                f"butterfly component of vertex {v} carries no green arrow"
            )
        heights[v] = v[1] - shifts[component[v]]
    return heights


@dataclass
class FixedPointData:
    """Assembled fixed-point matrices over the labeled butterfly bases.

    ``bases[j]`` lists the labels (u, i, jj) spanning the fiber W_{X_j},
    ordered by (u, jj).  ``per_blue["U<u>"]`` holds A, Bplus, Bminus, a, b;
    ``per_red["V<m>"]`` holds C and D.  Assembly writes the integer entries
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


def assemble_fixed_point(t):
    """Build all butterflies of a tie diagram and the block matrices they
    span: blue arrows populate A, black arrows populate -B^+/-B^-, violet
    populate C, red populate D, green arrows populate a and b."""
    d = t.base
    n = len(d.blacks)
    butterflies = {u: build_butterfly(t, u) for u in range(1, d.n_blue + 1)}

    bases = {}
    for j in range(1, n + 1):
        labels = []
        for u in range(1, d.n_blue + 1):
            bf = butterflies[u]
            labels.extend((u, i, bf.heights[(i, jj)]) for i, jj in bf.column(j))
        labels.sort(key=lambda lbl: (lbl[0], lbl[2]))
        bases[j] = labels
    dims = {j: len(bases[j]) for j in range(1, n + 1)}
    index = {
        j: {(u, jj): k for k, (u, _i, jj) in enumerate(bases[j])}
        for j in range(1, n + 1)
    }
    for j, labeled in index.items():
        if len(labeled) != dims[j]:
            raise ValueError(f"fiber W_{j} is not weight multiplicity-free")

    blue_pos = d.blue_positions()
    red_pos = d.red_positions()
    per_blue = {}
    for u, p in enumerate(blue_pos, start=1):
        per_blue[f"U{u}"] = {
            "A": linalg.Mat.zero(dims[p], dims[p + 1]),
            "Bplus": linalg.Mat.zero(dims[p + 1], dims[p + 1]),
            "Bminus": linalg.Mat.zero(dims[p], dims[p]),
            "a": linalg.Mat.zero(dims[p], 1),
            "b": linalg.Mat.zero(1, dims[p + 1]),
        }
    per_red = {}
    for m, q in enumerate(red_pos, start=1):
        per_red[f"V{m}"] = {
            "C": linalg.Mat.zero(dims[q], dims[q + 1]),
            "D": linalg.Mat.zero(dims[q + 1], dims[q]),
        }

    for u, bf in butterflies.items():
        J = bf.J
        for color, src, tgt in bf.arrows:
            if color == "green":
                if src == EXTERNAL:
                    row = index[J][(u, bf.heights[tgt])]
                    per_blue[f"U{u}"]["a"][row, 0] = 1
                else:
                    i, _jj = src
                    col = index[i + J][(u, bf.heights[src])]
                    # the minus sign makes the triangle relation
                    # B^-A - AB^+ + ab = 0 hold alongside the sign
                    # convention of the black arrows in B^+/B^-
                    per_blue[f"U{u}"]["b"][0, col] = -1
                continue
            si, _sj = src
            ti, _tj = tgt
            a_src, a_tgt = si + J, ti + J
            col = index[a_src][(u, bf.heights[src])]
            row = index[a_tgt][(u, bf.heights[tgt])]
            if color == "black":
                # one black arrow may feed the B blocks of both flanking blues
                if a_src >= 2 and d.color_at(a_src - 1) == brane.BLUE:
                    u_left = blue_pos.index(a_src - 1) + 1
                    mat = per_blue[f"U{u_left}"]["Bplus"]
                    mat[row, col] = mat[row, col] - 1
                if a_src <= n - 1 and d.color_at(a_src) == brane.BLUE:
                    u_right = blue_pos.index(a_src) + 1
                    mat = per_blue[f"U{u_right}"]["Bminus"]
                    mat[row, col] = mat[row, col] - 1
            elif color == "blue":
                u_cross = blue_pos.index(a_src - 1) + 1
                mat = per_blue[f"U{u_cross}"]["A"]
                mat[row, col] = mat[row, col] + 1
            elif color == "violet":
                m_cross = red_pos.index(a_src - 1) + 1
                mat = per_red[f"V{m_cross}"]["C"]
                mat[row, col] = mat[row, col] + 1
            elif color == "red":
                m_cross = red_pos.index(a_src) + 1
                mat = per_red[f"V{m_cross}"]["D"]
                mat[row, col] = mat[row, col] + 1

    return FixedPointData(
        tie_diagram=t,
        butterflies=butterflies,
        bases=bases,
        per_blue=per_blue,
        per_red=per_red,
    )


def fiber_weights(t):
    """Torus weights of every fiber W_{X_j}: ``{j: Counter of (u, m)}`` with
    one entry t_u + m*h per butterfly vertex over X_j, m being its
    equivariant height.  Builds each blue line's butterfly once."""
    d = t.base
    fibers = {j: Counter() for j in range(1, len(d.blacks) + 1)}
    for u in range(1, d.n_blue + 1):
        bf = build_butterfly(t, u)
        for v, height in bf.heights.items():
            fibers[v[0] + bf.J][(u, height)] += 1
    return fibers


# ---------------------------------------------------------------------------
# verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    skipped: bool = False
    messages: list = field(default_factory=list)


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
    n = len(d.blacks)
    result = CheckResult("moment-map", True)
    blue_pos = d.blue_positions()
    red_pos = d.red_positions()

    def blue_at(p):
        return f.per_blue[f"U{blue_pos.index(p) + 1}"]

    def red_at(p):
        return f.per_red[f"V{red_pos.index(p) + 1}"]

    for j in range(2, n):
        left, right = d.color_at(j - 1), d.color_at(j)
        if left == brane.BLUE and right == brane.BLUE:
            expr = blue_at(j)["Bminus"] - blue_at(j - 1)["Bplus"]
        elif left == brane.RED and right == brane.RED:
            lop, rop = red_at(j - 1), red_at(j)
            expr = lop["D"] * lop["C"] - rop["C"] * rop["D"]
        elif left == brane.RED and right == brane.BLUE:
            lop = red_at(j - 1)
            expr = lop["D"] * lop["C"] + blue_at(j)["Bminus"]
        else:
            rop = red_at(j)
            expr = -(rop["C"] * rop["D"]) - blue_at(j - 1)["Bplus"]
        if not expr.is_zero():
            result.ok = False
            result.messages.append(f"moment map nonzero at X{j}")

    for name, ops in f.per_blue.items():
        expr = ops["Bminus"] * ops["A"] - ops["A"] * ops["Bplus"] + ops["a"] * ops["b"]
        if not expr.is_zero():
            result.ok = False
            result.messages.append(f"triangle relation fails at {name}")
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
        if linalg.krylov_rank(rows, bplus_t.apply) != bplus.rows:
            result.ok = False
            result.messages.append(f"S1 fails at {name}")
        # S2: the Krylov closure of Im A + Im a under B^- is W^- iff the
        # columns of [A | a] and their images under B^- span W^-
        cols = ops["A"].columns() + ops["a"].columns()
        if linalg.krylov_rank(cols, bminus.apply) != bminus.rows:
            result.ok = False
            result.messages.append(f"S2 fails at {name}")
    return result


def _check_stability(f):
    """Search for a destabilizing graded subspace.

    Fibers are multiplicity-free torus representations, so any destabilizing
    subspace may be taken to be spanned by basis labels.  A candidate T must
    contain Im a_U, be closed under every arrow (operator invariance), and
    every A_U must induce an isomorphism on the quotients; the point is
    stable iff no proper such T exists.  The search is exact: it visits every
    arrow-closed set containing the closure of the green arrows exactly once.
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

    blue_pos = f.base.blue_positions()

    def quotients_iso(chosen):
        for u, p in enumerate(blue_pos, start=1):
            comp_minus = [
                k for k, (bu, _i, h) in enumerate(f.bases[p])
                if (bu, p, h) not in chosen
            ]
            comp_plus = [
                k for k, (bu, _i, h) in enumerate(f.bases[p + 1])
                if (bu, p + 1, h) not in chosen
            ]
            if len(comp_minus) != len(comp_plus):
                return False
            a_mat = f.per_blue[f"U{u}"]["A"]
            induced = [[a_mat.data[r][c] for c in comp_plus] for r in comp_minus]
            if linalg.rank(induced) != len(comp_minus):
                return False
        return True

    # Branch on the first undecided vertex v: either T contains v and so
    # everything v reaches, or T misses v and so every ancestor of v.  The
    # included set stays closed under succ and the excluded one under pred,
    # so neither branch can contradict the other side: every leaf is a
    # distinct arrow-closed set.
    vertices = sorted(succ)
    stack = [(closure(greens, succ), set())]
    while stack:
        inside, outside = stack.pop()
        v = next((w for w in vertices if w not in inside and w not in outside), None)
        if v is not None:
            stack.append((inside, outside | closure([v], pred)))
            stack.append((inside | closure([v], succ), outside))
        elif len(inside) < len(vertices) and quotients_iso(inside):
            result.ok = False
            result.messages.append(
                f"destabilizing subspace of dimension {len(inside)} found"
            )
            return result
    return result


def _check_junctions(f):
    result = CheckResult("junctions", True)
    d = f.base
    n = len(d.blacks)
    blue_pos = d.blue_positions()
    red_pos = d.red_positions()
    for j in range(2, n):
        left, right = d.color_at(j - 1), d.color_at(j)
        if left == right:
            continue
        if left == brane.BLUE:
            # X_j = U^+ = V^-: (A_U, D_V, b_U) must be injective on W_j
            u = blue_pos.index(j - 1) + 1
            m = red_pos.index(j) + 1
            rows = (
                f.per_blue[f"U{u}"]["A"].data
                + f.per_red[f"V{m}"]["D"].data
                + f.per_blue[f"U{u}"]["b"].data
            )
            if linalg.rank(rows) != f.dim(j):
                result.ok = False
                result.messages.append(f"junction map not injective at X{j}")
        else:
            # X_j = V^+ = U^-: [D_V | A_U | a_U] must be surjective onto W_j
            m = red_pos.index(j - 1) + 1
            u = blue_pos.index(j) + 1
            cols = (
                f.per_red[f"V{m}"]["D"].columns()
                + f.per_blue[f"U{u}"]["A"].columns()
                + f.per_blue[f"U{u}"]["a"].columns()
            )
            if linalg.rank(cols) != f.dim(j):
                result.ok = False
                result.messages.append(f"junction map not surjective at X{j}")
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
            result.ok = False
            result.messages.append(f"(C D)^{big_m - m} nonzero at V{m}")
        if not dc.power(big_m - m + 1).is_zero():
            result.ok = False
            result.messages.append(f"(D C)^{big_m - m + 1} nonzero at V{m}")
    if d.n_blue:
        bminus = f.per_blue["U1"]["Bminus"]
        if not bminus.power(big_m).is_zero():
            result.ok = False
            result.messages.append(f"(B^-_U1)^{big_m} nonzero")
    return result


def _check_grading(f):
    result = CheckResult("grading", True)
    d = f.base
    blue_pos = d.blue_positions()
    red_pos = d.red_positions()

    def entries_respect(mat, dom, cod, dj, tag):
        for r in range(mat.rows):
            for c in range(mat.cols):
                if mat.data[r][c]:
                    cu, _ci, cj = f.bases[dom][c]
                    ru, _ri, rj = f.bases[cod][r]
                    if cu != ru or rj != cj + dj:
                        result.ok = False
                        result.messages.append(f"{tag} breaks the grading")
                        return

    for u, p in enumerate(blue_pos, start=1):
        ops = f.per_blue[f"U{u}"]
        entries_respect(ops["A"], p + 1, p, 0, f"A_U{u}")
        entries_respect(ops["Bplus"], p + 1, p + 1, -1, f"B+_U{u}")
        entries_respect(ops["Bminus"], p, p, -1, f"B-_U{u}")
        for r in range(ops["a"].rows):
            if ops["a"].data[r][0] and f.bases[p][r][:: 2] != (u, 0):
                result.ok = False
                result.messages.append(
                    f"a_U{u} must hit the height-0 line of its own component"
                )
        for c in range(ops["b"].cols):
            if ops["b"].data[0][c] and f.bases[p + 1][c][:: 2] != (u, 1):
                result.ok = False
                result.messages.append(
                    f"b_U{u} must read the height-1 line of its own component"
                )
    for m, q in enumerate(red_pos, start=1):
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
    whatever the size of the point, (4) injectivity/surjectivity of the
    junction maps, as ranks, (5) nilpotency exponents on separated diagrams,
    (6) torus grading of every operator.  Ranks are exact, by integer
    elimination (:func:`linalg.rank`).  Only nilpotency can be skipped (on diagrams that are
    not separated).  Failures are report entries, never exceptions.
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
