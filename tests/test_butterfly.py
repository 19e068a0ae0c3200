"""Butterfly diagrams, fixed-point matrices, and the verification checks."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowvariety import brane, butterfly, errors, linalg, tie
from conftest import (
    EXAMPLE_3BLUE,
    FLAG,
    POINT_DIAGRAM,
    TSTAR_P1,
    admissible_diagrams,
    entry,
    fiber_weights,
    sweep_diagrams,
)
from dense import (
    DenseMat,
    columns,
    copied,
    dense,
    dense_krylov_rank,
    dense_rank,
    sparse,
    sparse_rows,
)

BIG_DIAGRAM = "0/1/2/3\\3/5\\4/2\\2/0"
# 6,720 fixed points of dimension 50, over 48 distinct butterfly lattices
SCALE_DIAGRAM = "0/1/2/3/4/5\\5\\5\\5\\5\\5\\5\\5\\5/0"
BIG_TIES = [
    (2, 6),
    (3, 4),
    (1, 6),
    (5, 6),
    (5, 8),
    (4, 7),
    (6, 7),
    (6, 9),
    (8, 9),
]


def verdict(report, name):
    """The result of the check ``name`` in a verification report."""
    return {c.name: c for c in report.checks}[name]


def big_tie_diagram():
    d = brane.parse(BIG_DIAGRAM)
    t = tie.TieDiagram(d, frozenset(BIG_TIES))
    assert tie.is_valid(t).ok
    return t


def test_cover_counts_golden():
    t = big_tie_diagram()
    cc = butterfly.build_butterfly(t, "U2").cover_counts
    assert cc == (0, 1, 2, 2, 2, 3, 2, 1, 1, 0)
    assert butterfly._cover_counts(t, t.base.position_of("U2")) == cc


def test_column_bottoms_golden():
    t = big_tie_diagram()
    cb = butterfly.build_butterfly(t, "U2").column_bottoms
    assert cb[1:9] == (-1, -1, 0, 0, 0, 0, 1, 1)


def test_blue_index_errors():
    # the name is resolved by the one parser of line names, and a red line
    # is refused with its name and the diagram
    t = big_tie_diagram()
    for name in ("V1", "V4"):
        with pytest.raises(errors.UnknownLine, match=f"^'{name}' is not a blue line of 0/1/2/3"):
            butterfly.build_butterfly(t, name)
    with pytest.raises(errors.UnknownLine, match="^'U9' is not a colored line of 0/1/2/3"):
        butterfly.build_butterfly(t, "U9")
    # the position of U2 is not its name
    with pytest.raises(errors.UnknownLine, match="^2 is not a colored line name of 0/1/2/3"):
        butterfly.build_butterfly(t, 2)


def test_equal_ties_at_a_blue_line_share_one_butterfly():
    # the butterfly depends only on the ties at its line: two flag points
    # with the same cover counts at U get the same cached object
    points = tie.enumerate_tie_diagrams(brane.parse(FLAG))
    d = points[0].base
    for name in ("U1", "U4", "U7"):
        J = d.position_of(name)
        by_counts = {}
        for t in points:
            by_counts.setdefault(butterfly._cover_counts(t, J), []).append(t)
        shared = [ts for ts in by_counts.values() if len(ts) > 1]
        assert shared
        for first, *others in shared:
            bf = butterfly.build_butterfly(first, name)
            assert all(butterfly.build_butterfly(t, name) is bf for t in others)


def test_butterfly_columns_match_counts():
    t = big_tie_diagram()
    bf = butterfly.build_butterfly(t, "U2")
    for j in range(1, 11):
        # the column over X_j runs up from its bottom without a gap
        col = sorted(jj for i, jj in bf.vertices if i + bf.J == j)
        bottom = bf.column_bottoms[j - 1]
        assert col == list(range(bottom, bottom + bf.cover_counts[j - 1]))
    assert len(bf.vertices) == sum(bf.cover_counts)


def test_butterfly_column_at_own_blue_starts_at_zero():
    for t in tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE)):
        for u in range(1, 4):
            bf = butterfly.build_butterfly(t, f"U{u}")
            assert bf.column_bottoms[bf.J - 1] == 0


def test_butterfly_green_arrows():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    bf = butterfly.build_butterfly(t, "U1")
    greens = [a for a in bf.arrows if a[0] == "green"]
    # d_{U^-} = 0 < d_{U^+} = 1: only the outgoing green arrow exists
    assert greens == [("green", (1, 1), butterfly.EXTERNAL)]


def test_butterfly_json_and_ascii_smoke():
    t = big_tie_diagram()
    bf = butterfly.build_butterfly(t, "U2")
    blob = bf.to_json()
    assert blob["blue"] == "U2"
    assert blob["coverCounts"] == [0, 1, 2, 2, 2, 3, 2, 1, 1, 0]
    art = butterfly.render_ascii(bf, t.base)
    assert "U2" in art and "o" in art


def test_assemble_tstar_p1_matrices():
    # both fixed points: every A is the 1x1 identity, every b vanishes, and
    # exactly one blue line (the one carrying the ties) has a = unit vector
    d = brane.parse(TSTAR_P1)
    for t in tie.enumerate_tie_diagrams(d):
        f = butterfly.assemble_fixed_point(t)
        assert [len(f.bases[j]) for j in (1, 2, 3, 4, 5)] == [0, 1, 1, 1, 0]
        units = 0
        for ops in f.per_blue.values():
            assert dense(ops["A"]) == [[Fraction(1)]]
            assert ops["b"].is_zero()
            if not ops["a"].is_zero():
                assert dense(ops["a"]) == [[Fraction(1)]]
                units += 1
        assert units == 1


def test_fiber_character_point_diagram():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    # one vertex over X2: the weight t1 + h
    fibers = fiber_weights(t)
    assert fibers == {1: Counter(), 2: Counter({(1, 1): 1}), 3: Counter()}


def test_fiber_characters_match_labels():
    # the fiber weights are the (u, height) labels of the assembled basis
    for t in tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE)):
        fibers = fiber_weights(t)
        f = butterfly.assemble_fixed_point(t)
        assert set(fibers) == set(f.bases)
        for j, labels in f.bases.items():
            assert fibers[j] == Counter((u, jj) for u, _i, jj in labels)
            assert sum(fibers[j].values()) == t.base.label(j)


# The butterfly build and fiber weights as they were before lattices were
# cached: every call builds the whole lattice from the tie diagram, and
# heights come from a search over the connected components of the arrows.


def reference_cover_counts(t, J):
    steps = [0] * len(t.base.blacks)
    for l, r in t.ties:
        if l == J or r == J:
            steps[l] += 1
            steps[r] -= 1
    return tuple(itertools.accumulate(steps))


def reference_column_bottoms(colors, J, cc):
    n = len(cc)
    c = [0] * n
    for j in range(J + 1, n + 1):
        c[j - 1] = cc[J] - cc[j - 1] + (1 if cc[J - 1] == 0 else 0)
    for j in range(J - 1, 0, -1):
        if colors[j - 1] == brane.BLUE or cc[j - 1] + 1 == cc[j]:
            c[j - 1] = c[j]
        else:
            c[j - 1] = c[j] - 1
    return tuple(c)


def reference_heights(vertices, arrows):
    """Equivariant height of each vertex: the lattice height shifted so that,
    on every connected component, the green-in target sits at height 0 and
    the green-out source at height 1.  Raises when a component carries no
    green arrow."""
    adjacency = {v: [] for v in vertices}
    anchor_in = anchor_out = None
    for color, src, tgt in arrows:
        if color == "green":
            if src == butterfly.EXTERNAL:
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
    for v in sorted(vertices):  # by column, bottom-up, as ``_lattice`` stores them
        if component[v] not in shifts:
            raise ValueError(f"butterfly component of vertex {v} carries no green arrow")
        heights[v] = v[1] - shifts[component[v]]
    return heights


def reference_lattice(colors, J, cc):
    cb = reference_column_bottoms(colors, J, cc)
    n = len(cc)
    vertices = {
        (j - J, jj) for j in range(1, n + 1) for jj in range(cb[j - 1], cb[j - 1] + cc[j - 1])
    }
    arrows = []
    for i, jj in sorted(vertices):
        a = i + J
        left = colors[a - 2] if a >= 2 else None
        right = colors[a - 1] if a <= n else None
        if (left == brane.BLUE or right == brane.BLUE) and (i, jj - 1) in vertices:
            arrows.append(("black", (i, jj), (i, jj - 1)))
        if left == brane.BLUE and (i - 1, jj) in vertices:
            arrows.append(("blue", (i, jj), (i - 1, jj)))
        if left == brane.RED and (i - 1, jj - 1) in vertices:
            arrows.append(("violet", (i, jj), (i - 1, jj - 1)))
        if right == brane.RED and (i + 1, jj) in vertices:
            arrows.append(("red", (i, jj), (i + 1, jj)))
    if cc[J - 1]:
        arrows.append(("green", butterfly.EXTERNAL, (0, cb[J - 1] + cc[J - 1] - 1)))
    if cc[J - 1] < cc[J]:
        arrows.append(("green", (1, cb[J] + cc[J - 1]), butterfly.EXTERNAL))
    bf = butterfly.ButterflyData(
        blue=f"U{sum(c == brane.BLUE for c in colors[:J])}",
        J=J,
        colors=colors,
        cover_counts=cc,
        column_bottoms=cb,
        heights=reference_heights(vertices, arrows),
    )
    # these rules, not ``_OPERATORS``, draw the reference arrows: they fill
    # the slot that ``ButterflyData.arrows`` caches its first read in
    bf.__dict__["arrows"] = tuple(arrows)
    return bf


def reference_build_butterfly(t, U):
    d = t.base
    J = d.blue_positions()[int(U[1:]) - 1]
    return reference_lattice(d.colors, J, reference_cover_counts(t, J))


def reference_fiber_weights(t):
    d = t.base
    fibers = {j: Counter() for j in range(1, len(d.blacks) + 1)}
    for u, J in enumerate(d.blue_positions(), start=1):
        bf = reference_lattice(d.colors, J, reference_cover_counts(t, J))
        for v, height in bf.heights.items():
            fibers[v[0] + bf.J][(u, height)] += 1
    return fibers


def test_cached_lattices_match_reference_build(monkeypatch):
    # every criterion-3 sweep point and every flag point: butterflies, fiber
    # weights and assembled matrices equal those of the uncached build, whose
    # lattices drive the bases of assembly in place of the cached ones (the
    # entries come from ``_OPERATORS``; test_arrows_draw_the_matrices ties
    # them to the arrows).  The arrows drawn from ``_OPERATORS`` equal the
    # reference arrows in order, so the table draws the paper's butterflies.
    points = [t for d in sweep_diagrams() for t in tie.enumerate_tie_diagrams(d)]
    points += tie.enumerate_tie_diagrams(brane.parse(FLAG))
    assert len(points) == 1610 + 840
    cached = []
    for t in points:
        for u in range(1, t.base.n_blue + 1):
            bf = butterfly.build_butterfly(t, f"U{u}")
            ref = reference_build_butterfly(t, f"U{u}")
            assert bf.arrows == ref.arrows
            assert bf.to_json() == ref.to_json()
            assert list(bf.heights) == sorted(bf.heights)  # the order assembly reads
        assert fiber_weights(t) == reference_fiber_weights(t)
        cached.append(butterfly.assemble_fixed_point(t).to_json())
    # the scale diagram: its 53,760 butterflies share 48 lattices, each
    # compared once
    d = brane.parse(SCALE_DIAGRAM)
    keys = {
        (d.colors, J, reference_cover_counts(t, J))
        for t in tie.enumerate_tie_diagrams(d)
        for J in d.blue_positions()
    }
    assert len(keys) == 48
    for key in keys:
        bf, ref = butterfly._lattice(*key), reference_lattice(*key)
        assert bf.arrows == ref.arrows
        assert bf.to_json() == ref.to_json()
        assert list(bf.heights) == sorted(bf.heights)
    monkeypatch.setattr(butterfly, "_cover_counts", reference_cover_counts)
    monkeypatch.setattr(butterfly, "_lattice", reference_lattice)
    assert cached == [butterfly.assemble_fixed_point(t).to_json() for t in points]


def drawn_entries(f):
    """The operator entries (line position, operator, row, column) that the
    reference arrows of the butterflies of ``f`` (:func:`reference_lattice`,
    the paper's rules) draw, each with the value that assembly must give it:
    every arrow is an entry, equal to ``entry``, of every operator of
    ``_OPERATORS`` between its two fibers."""
    d = f.base
    between = {}  # (domain, codomain) -> [(line position, operator, entry)]
    for p, color in enumerate(d.colors, start=1):
        fiber = {0: p, 1: p + 1, None: ("external", p)}
        for key, (cod, dom, _step, value) in butterfly._OPERATORS[color].items():
            between.setdefault((fiber[dom], fiber[cod]), []).append((p, key, value))
    place = {
        (j, u, h): k for j, labels in f.bases.items() for k, (u, _i, h) in enumerate(labels)
    }
    drawn = {}
    for u in range(1, d.n_blue + 1):
        bf = reference_build_butterfly(f.tie_diagram, f"U{u}")
        # each vertex as (fiber, index): W_{X_j} by j, or U's external line
        ends = {v: (v[0] + bf.J, place[v[0] + bf.J, u, h]) for v, h in bf.heights.items()}
        ends[butterfly.EXTERNAL] = ("external", bf.J), 0
        for arrow in bf.arrows:
            (src, col), (tgt, row) = ends[arrow[1]], ends[arrow[2]]
            ops = between.get((src, tgt))
            assert ops, f"{brane.render(d)}: {bf.blue} {arrow} is in no operator"
            for p, key, value in ops:
                drawn[p, key, row, col] = value
    return drawn


def test_arrows_draw_the_matrices():
    # the 1,610 criterion-3 sweep points and the 840 flag points: assembly
    # reads no arrows, so this ties the paper's arrow rules, kept in
    # ``reference_lattice``, to the graded entries of ``_OPERATORS``: each
    # arrow is an entry of the operators between its fibers, and no operator
    # has another entry
    points = [t for d in sweep_diagrams() for t in tie.enumerate_tie_diagrams(d)]
    points += tie.enumerate_tie_diagrams(brane.parse(FLAG))
    assert len(points) == 1610 + 840
    for t in points:
        f = butterfly.assemble_fixed_point(t)
        nonzero = {
            (p, key, r, c): x
            for p in range(1, len(f.base.blacks))
            for key, mat in ops_at(f, p).items()
            for r, row in mat.entries.items()
            for c, x in row.items()
        }
        assert nonzero == drawn_entries(f), brane.render(t.base)


def test_cached_lattices_are_not_aliased():
    t = big_tie_diagram()
    fibers = fiber_weights(t)
    expected = {j: Counter(w) for j, w in fibers.items()}
    fibers[5][2, 0] = fibers[5].get((2, 0), 0) + 7
    fibers[6].clear()
    assert fiber_weights(t) == expected

    bf = butterfly.build_butterfly(t, "U2")
    v = next(iter(bf.vertices))
    with pytest.raises(TypeError):
        bf.heights[v] = 0
    before = bf.to_json()
    assert before["arrows"]
    f = without_greens(butterfly.assemble_fixed_point(t))
    assert not verdict(butterfly.verify_fixed_point(f), "stability").ok
    dropped = dataclasses.replace(bf, heights={w: h for w, h in bf.heights.items() if w != v})
    assert dropped.arrows != bf.arrows
    assert butterfly.build_butterfly(t, "U2").to_json() == before
    assert butterfly.verify_fixed_point(butterfly.assemble_fixed_point(t)).ok


def test_verify_small_diagrams_all_pass():
    for s in (EXAMPLE_3BLUE, TSTAR_P1, POINT_DIAGRAM, "0/1/2\\1\\0"):
        d = brane.parse(s)
        for t in tie.enumerate_tie_diagrams(d):
            f = butterfly.assemble_fixed_point(t)
            report = butterfly.verify_fixed_point(f)
            assert report.ok, f"{s}: {report.render()}"


def test_verify_big_diagram():
    f = butterfly.assemble_fixed_point(big_tie_diagram())
    report = butterfly.verify_fixed_point(f)
    for check in report.checks:
        assert check.ok, report.render()
    assert not verdict(report, "stability").skipped


def test_verify_detects_broken_moment_map():
    d = brane.parse(TSTAR_P1)
    t = tie.enumerate_tie_diagrams(d)[0]
    f = butterfly.assemble_fixed_point(t)
    entry(f.per_blue["U1"]["Bplus"], 0, 0, Fraction(5))
    report = butterfly.verify_fixed_point(f)
    assert not verdict(report, "moment-map").ok


# each operator of the line at position p as (codomain, domain, height step):
# fibers are offsets from X_p, and None is the external line (U, height 0)
GRADED = {
    "A": (0, 1, 0),
    "Bplus": (1, 1, -1),
    "Bminus": (0, 0, -1),
    "a": (0, None, 0),
    "b": (None, 1, -1),
    "C": (0, 1, -1),
    "D": (1, 0, 0),
}


def ops_at(f, p):
    """The operators of the colored line at position ``p``."""
    name = f.base.line_name(p)
    return (f.per_blue if name[0] == "U" else f.per_red)[name]


def cells(f, key):
    """Every cell (line position, row, column) of ``key``, with whether the
    grading allows an entry there: the row line is the column line moved by
    the height step, in the same blue component."""
    cod, dom, step = GRADED[key]
    for p in range(1, len(f.base.blacks)):
        name = f.base.line_name(p)
        if key not in ops_at(f, p):
            continue
        lines = {x: [(u, h) for u, _i, h in f.bases[p + x]] for x in (0, 1)}
        lines[None] = [(int(name[1:]), 0)] if name[0] == "U" else []
        for r, (ru, rh) in enumerate(lines[cod]):
            for c, (cu, ch) in enumerate(lines[dom]):
                yield p, r, c, (ru, rh) == (cu, ch + step)


def off_grade_cell(f, key):
    """The first (line position, row, column) of ``key`` whose entry would
    join lines of different blue components, or break the height step."""
    return next(((p, r, c) for p, r, c, graded in cells(f, key) if not graded), None)


def test_verify_detects_broken_grading():
    d = brane.parse(EXAMPLE_3BLUE)
    t = tie.enumerate_tie_diagrams(d)[2]
    f = butterfly.assemble_fixed_point(t)
    # connect two basis lines with different labels through A_U2
    ops = f.per_blue["U2"]["A"]
    assert ops.rows == ops.cols == 2
    entry(ops, 0, 1, entry(ops, 0, 1) + 7)
    report = butterfly.verify_fixed_point(f)
    assert verdict(report, "grading").messages == ["A_U2 breaks the grading"]
    # one off-grade entry in each of the seven operators, each on its own
    # copy of a point where every operator is nonempty somewhere
    for key in GRADED:
        f = butterfly.assemble_fixed_point(big_tie_diagram())
        assert butterfly.verify_fixed_point(f).ok
        p, r, c = off_grade_cell(f, key)
        entry(ops_at(f, p)[key], r, c, 1)
        check = verdict(butterfly.verify_fixed_point(f), "grading")
        assert check.messages == [f"{key}_{f.base.line_name(p)} breaks the grading"], key


def without_greens(f):
    """The fixed point with every a_U and b_U zeroed."""
    for ops in f.per_blue.values():
        for key in ("a", "b"):
            ops[key] = linalg.Mat(ops[key].rows, ops[key].cols)
    return f


# the operators an arrow out of the column over X_a is filed under, as
# (position of the colored line, less a; operator)
FILED = {
    "blue": ((-1, "A"),),
    "violet": ((-1, "C"),),
    "red": ((0, "D"),),
    "black": ((-1, "Bplus"), (0, "Bminus")),
}


def butterflies(f):
    names = [f"U{u}" for u in range(1, f.base.n_blue + 1)]
    return [butterfly.build_butterfly(f.tie_diagram, name) for name in names]


def arrow_entries(f, bf, arrow):
    """The operator entries (line position, operator, row, column) that
    assembly writes for one arrow of the butterfly ``bf``."""
    u = int(bf.blue[1:])

    def line(v):
        j = v[0] + bf.J
        return j, [(bu, h) for bu, _i, h in f.bases[j]].index((u, bf.heights[v]))

    color, src, tgt = arrow
    if src == butterfly.EXTERNAL:
        return [(bf.J, "a", line(tgt)[1], 0)]
    a, col = line(src)
    if tgt == butterfly.EXTERNAL:
        return [(bf.J, "b", 0, col)]
    row = line(tgt)[1]
    lines = range(1, len(f.base.blacks))
    return [
        (a + off, key, row, col)
        for off, key in FILED[color]
        if a + off in lines and key in ops_at(f, a + off)
    ]


def with_entries(f, edits):
    """A copy of ``f`` with each operator entry (line position, operator,
    row, column) of the dict ``edits`` set to its value."""
    g = dataclasses.replace(
        f,
        per_blue={name: dict(ops) for name, ops in f.per_blue.items()},
        per_red={name: dict(ops) for name, ops in f.per_red.items()},
    )
    for (p, key, r, c), value in edits.items():
        ops = ops_at(g, p)
        ops[key] = copied(ops[key])
        entry(ops[key], r, c, value)
    return g


def zeroing(f, entries):
    """A copy of ``f`` with the given operator entries set to 0."""
    return with_entries(f, dict.fromkeys(entries, 0))


def operator_digraph(f):
    """The basis lines (u, black line, height) with an edge for each nonzero
    entry of A, B^+, B^-, C and D, and the lines that a_U hits."""
    ids = {j: [(u, j, h) for u, _i, h in labels] for j, labels in f.bases.items()}
    succ = {v: [] for vs in ids.values() for v in vs}

    def edges(mat, dom, cod):
        for r, row in enumerate(dense(mat)):
            for c, x in enumerate(row):
                if x:
                    succ[ids[dom][c]].append(ids[cod][r])

    seeds = []
    for p in f.base.blue_positions():
        ops = ops_at(f, p)
        edges(ops["A"], p + 1, p)
        edges(ops["Bplus"], p + 1, p + 1)
        edges(ops["Bminus"], p, p)
        seeds += [ids[p][r] for r, row in enumerate(dense(ops["a"])) if row[0]]
    for q in f.base.red_positions():
        edges(ops_at(f, q)["C"], q + 1, q)
        edges(ops_at(f, q)["D"], q, q + 1)
    return succ, seeds


def bitmask_stable(f):
    """Reference search: every subset of the basis lines outside the closure
    of Im a, as a bitmask (exponential, so small points only).  The verdict,
    with the dimension of the smallest destabilizing set when there is one."""
    result = errors.CheckResult("stability")
    succ, seeds = operator_digraph(f)
    mandatory = set(seeds)
    while any(w not in mandatory for v in mandatory for w in succ[v]):
        mandatory |= {w for v in mandatory for w in succ[v]}
    free = sorted(set(succ) - mandatory)
    bit = {v: 1 << k for k, v in enumerate(free)}
    # reach[mask]: the free lines one edge away from a line of mask
    reach = [0] * (1 << len(free))
    for mask in range(1, len(reach)):
        low = mask & -mask
        step = sum({bit[w] for w in succ[free[low.bit_length() - 1]] if w in bit})
        reach[mask] = reach[mask ^ low] | step
    dims = [
        len(mandatory) + mask.bit_count()
        for mask in range(len(reach) - 1)  # all but the full set
        if not reach[mask] & ~mask
        and all(
            quotient_iso(f, u, mandatory | {v for v in free if bit[v] & mask})
            for u in range(1, f.base.n_blue + 1)
        )
    ]
    if dims:
        result.fail(f"destabilizing subspace of dimension {min(dims)} found")
    return result


def quotient_iso(f, u, chosen):
    """Whether A_U induces an isomorphism on the quotients by ``chosen``."""
    p = f.base.blue_positions()[u - 1]
    minus = [k for k, (v, _i, h) in enumerate(f.bases[p]) if (v, p, h) not in chosen]
    plus = [
        k for k, (v, _i, h) in enumerate(f.bases[p + 1]) if (v, p + 1, h) not in chosen
    ]
    a_rows = dense(f.per_blue[f"U{u}"]["A"])
    rows = [[a_rows[r][c] for c in plus] for r in minus]
    return len(minus) == len(plus) == len(rref(rows))


def test_stability_matches_bitmask_reference():
    # every point of the small sweep as it is and with the entries of one or
    # two of its arrows zeroed (which may destabilize it), and the T*P^1
    # points without a and b
    points = [
        butterfly.assemble_fixed_point(t)
        for d in admissible_diagrams(4, 2)
        for t in tie.enumerate_tie_diagrams(d)
    ]
    cases = list(points)
    for f in points:
        arrows = [(bf, arrow) for bf in butterflies(f) for arrow in bf.arrows]
        for drop in itertools.combinations_with_replacement(arrows, 2):
            cases.append(zeroing(f, [e for bf, arrow in drop for e in arrow_entries(f, bf, arrow)]))
    cases += [
        without_greens(butterfly.assemble_fixed_point(t))
        for t in tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))
    ]
    verdicts = Counter()
    for f in cases:
        check, ref = verdict(butterfly.verify_fixed_point(f), "stability"), bitmask_stable(f)
        assert not check.skipped
        assert (check.ok, check.messages) == (ref.ok, ref.messages), brane.render(f.base)
        verdicts[check.ok] += 1
    assert verdicts[True] > 700 and verdicts[False] > 300


def stability(f):
    """The stability check alone."""
    lines, ids = butterfly._tables(f)
    return butterfly._check_stability(lines, ids, list(butterfly._operator_entries(lines, ids)))


def reference_stability(f):
    """The stability search as first written, on the operator digraph: it
    rescans the sorted vertices for the first undecided one at every branch
    and rebuilds the label ids of the quotients at every leaf."""
    result = errors.CheckResult("stability")
    succ, greens = operator_digraph(f)
    pred = {v: [] for v in succ}
    for v, targets in succ.items():
        for w in targets:
            pred[w].append(v)

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
                k for k, (bu, _i, h) in enumerate(f.bases[p]) if (bu, p, h) not in chosen
            ]
            comp_plus = [
                k for k, (bu, _i, h) in enumerate(f.bases[p + 1])
                if (bu, p + 1, h) not in chosen
            ]
            if len(comp_minus) != len(comp_plus):
                return False
            a_rows = dense(f.per_blue[f"U{u}"]["A"])
            induced = [[a_rows[r][c] for c in comp_plus] for r in comp_minus]
            if dense_rank(induced) != len(comp_minus):
                return False
        return True

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


def dimension(check):
    """The dimension that a failing stability message names."""
    (message,) = check.messages
    return int(message.removeprefix("destabilizing subspace of dimension ").split()[0])


def smaller_than_reference(f):
    """Assert that stability on ``f`` gives the reference search's verdict
    and, when it fails, the bitmask reference's message: the smallest
    destabilizing set, which lies inside the set the reference search finds
    first.  Return whether it is strictly smaller than that set."""
    got, ref = stability(f), reference_stability(f)
    assert (got.ok, got.skipped) == (ref.ok, ref.skipped), brane.render(f.base)
    if got.ok:
        return False
    exact = bitmask_stable(f)
    assert got.messages == exact.messages and dimension(got) <= dimension(ref)
    return dimension(got) < dimension(ref)


def dropping_each_arrow(f):
    """Copies of ``f``, each with the entries of one non-green butterfly
    arrow zeroed."""
    for bf in butterflies(f):
        for arrow in bf.arrows:
            if arrow[0] != "green":
                yield zeroing(f, arrow_entries(f, bf, arrow))


def sweep_points():
    """The 1,610 distinct criterion-3 sweep points, assembled."""
    points = [
        butterfly.assemble_fixed_point(t)
        for d in sweep_diagrams()
        for t in tie.enumerate_tie_diagrams(d)
    ]
    assert len(points) == 1610
    return points


def flag_sample():
    """The 24 verified flag points D1, D36, ..., D806, assembled."""
    points = tie.enumerate_tie_diagrams(brane.parse(FLAG))
    return [butterfly.assemble_fixed_point(points[k]) for k in range(0, 840, 35)]


def test_stability_matches_reference_search():
    # the criterion-3 sweep, the 24 verified flag points, and faulty copies:
    # the first 300 sweep points and D36 of the flag with the entries of one
    # arrow zeroed, and the T*P^1 points without a and b.  On 73 of the
    # destabilized copies the smallest set is smaller than the first one
    # the reference search finds
    sweep, flag = sweep_points(), flag_sample()
    faulty = [
        case
        for f in sweep[:300] + flag[1:2]
        for case in dropping_each_arrow(f)
    ]
    faulty += [
        without_greens(butterfly.assemble_fixed_point(t))
        for t in tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))
    ]
    assert not any(smaller_than_reference(f) for f in sweep + flag)
    assert all(stability(f).ok for f in sweep + flag)
    smaller = [smaller_than_reference(f) for f in faulty]
    destabilized = [f for f in faulty if not stability(f).ok]
    assert len(faulty) == 804 and len(destabilized) == 274 and sum(smaller) == 73
    assert any(f.base == flag[1].base for f in destabilized)


def counting_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the arguments of every call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_stability_prunes_unbalanced_subtrees(monkeypatch):
    # no quotient map is ranked, on stable and destabilized points alike:
    # the 24 verified flag points, and D36 of the flag with the entries of
    # one arrow zeroed, which destabilizes some of its copies
    flag = flag_sample()
    cases = flag + list(dropping_each_arrow(flag[1]))
    ranks = counting_calls(monkeypatch, butterfly.linalg, "rank")
    verdicts = Counter(stability(f).ok for f in cases)
    assert verdicts[True] > 24 and verdicts[False] > 0
    assert len(ranks) == 0


def test_stability_runs_on_large_flag_points():
    # 22 and 20 basis lines outside the closure of the green arrows: too
    # many for a search over all their subsets
    points = tie.enumerate_tie_diagrams(brane.parse("0/1/2/3/4\\4\\4\\4\\4\\4\\4\\4/0"))
    for k in (1, 421):
        f = butterfly.assemble_fixed_point(points[k - 1])
        check = verdict(butterfly.verify_fixed_point(f), "stability")
        assert check.ok and not check.skipped, f"D{k}: {check.messages}"


def test_verify_detects_missing_green_arrows():
    for t in tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1)):
        f = without_greens(butterfly.assemble_fixed_point(t))
        assert not verdict(butterfly.verify_fixed_point(f), "stability").ok


def without_a(points):
    """Copies of the points with a nonzero a_U, each with every a_U zeroed,
    made by :func:`zeroing`: the points given are left as they are."""
    copies = []
    for f in points:
        nonzero = [
            (p, "a", r, c)
            for p in f.base.blue_positions()
            for r, row in ops_at(f, p)["a"].entries.items()
            for c in row
        ]
        if nonzero:
            copies.append(zeroing(f, nonzero))
    return copies


def test_stability_reads_the_a_maps():
    # zeroing every a_U leaves the butterflies as they were, so only a check
    # that reads the matrices can see it: of the 1,610 sweep points, 1,200
    # have a nonzero a, and 363 of them are destabilized once it is zeroed;
    # the points given are left as they are
    sweep = sweep_points()
    with_a = without_a(sweep)
    assert all(butterfly.verify_fixed_point(f).ok for f in sweep)
    for f in with_a:
        smaller_than_reference(f)
    failed = [f for f in with_a if not stability(f).ok]
    assert len(with_a) == 1200 and len(failed) == 363


def test_stability_is_one_closure_walk(monkeypatch):
    # the 24 verified flag points and the 1,200 sweep points with a zeroed:
    # one closure walk a point, and no rank
    closures = counting_calls(monkeypatch, butterfly, "_closure")
    ranks = counting_calls(monkeypatch, butterfly.linalg, "rank")
    for f in flag_sample() + without_a(sweep_points()):
        closures.clear()
        stability(f)
        assert len(closures) == 1
    assert len(ranks) == 0


def test_stability_is_skipped_when_an_entry_joins_two_indices():
    # D36 of the flag, and a copy of it destabilized by a dropped arrow, each
    # with one C entry that keeps the height step but joins a line of U1 to
    # one of U3: the grading fails, and off the grading a destabilizing
    # subspace need not be spanned by basis lines, so stability is skipped
    f = flag_sample()[1]
    unstable = next(g for g in dropping_each_arrow(f) if not stability(g).ok)
    for g, p in ((f, 3), (unstable, 2), (unstable, 3)):
        h = with_entries(g, {(p, "C", 0, 1): 1})
        _lines, ids = butterfly._tables(h)
        row, col = ids[p][0], ids[p + 1][1]  # C takes W_{X_(p+1)} to W_{X_p}
        assert (row[0], col[0], row[2], col[2]) == (1, 3, col[2] - 1, col[2])
        report = butterfly.verify_fixed_point(h)
        check = verdict(report, "stability")
        assert check.skipped and check.messages == ["skipped: the grading fails"]
        grading = verdict(report, "grading")
        assert grading.messages == [f"C_{h.base.line_name(p)} breaks the grading"]
        assert not report.ok and "stability        skip" in report.render()


EDIT_VALUES = (0, 1, -1, 2, Fraction(1, 2))


def graded_edits(f, rng, count):
    """``count`` copies of ``f``, each with one to three cells that the
    grading allows, and one that starts out empty if ``f`` has one, set to
    values drawn from ``EDIT_VALUES``."""
    allowed = [
        (p, key, r, c) for key in GRADED for p, r, c, graded in cells(f, key) if graded
    ]
    empty = [(p, key, r, c) for p, key, r, c in allowed if not entry(ops_at(f, p)[key], r, c)]
    for _ in range(count):
        chosen = rng.sample(allowed, min(len(allowed), rng.randint(1, 3)))
        chosen += rng.sample(empty, min(len(empty), 1))
        yield with_entries(f, {cell: rng.choice(EDIT_VALUES) for cell in chosen})


def test_stability_matches_references_on_random_graded_edits():
    # seeded edits of cells the grading allows, empty ones included: on 600
    # sweep points and the 24 verified flag points against the reference
    # search, and on the small sweep against the bitmask reference,
    # messages included
    rng = random.Random(3)
    verdicts = Counter()
    for f in rng.sample(sweep_points(), 600) + flag_sample():
        for g in graded_edits(f, rng, 4):
            report = butterfly.verify_fixed_point(g)
            check, ref = verdict(report, "stability"), reference_stability(g)
            assert verdict(report, "grading").ok and not check.skipped
            assert check.ok == ref.ok, brane.render(g.base)
            verdicts["sweep and flag", check.ok] += 1
    small = [
        butterfly.assemble_fixed_point(t)
        for d in admissible_diagrams(4, 2)
        for t in tie.enumerate_tie_diagrams(d)
    ]
    for f in small:
        for g in graded_edits(f, rng, 4):
            check, ref = verdict(butterfly.verify_fixed_point(g), "stability"), bitmask_stable(g)
            assert (check.ok, check.messages) == (ref.ok, ref.messages), brane.render(g.base)
            verdicts["small", check.ok] += 1
    assert verdicts == {
        ("sweep and flag", True): 2281,
        ("sweep and flag", False): 215,
        ("small", True): 656,
        ("small", False): 40,
    }


def test_verify_detects_broken_nilpotency():
    (t,) = tie.enumerate_tie_diagrams(brane.parse("0/1/2\\2\\0"))
    f = butterfly.assemble_fixed_point(t)
    assert butterfly.verify_fixed_point(f).ok
    n = f.per_blue["U1"]["Bminus"].rows
    f.per_blue["U1"]["Bminus"] = sparse(n, n, DenseMat.identity(n).data)
    check = verdict(butterfly.verify_fixed_point(f), "nilpotency")
    assert not check.ok and not check.skipped


def test_verify_detects_zero_a_maps():
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    for ops in f.per_blue.values():
        ops["A"] = linalg.Mat(ops["A"].rows, ops["A"].cols)
        ops["a"] = linalg.Mat(ops["a"].rows, ops["a"].cols)
    report = butterfly.verify_fixed_point(f)
    assert not verdict(report, "s1-s2").ok
    assert not verdict(report, "junctions").ok


def test_verify_detects_s1_alone():
    # A_U = 0 where a_U spans W^-: ker A  cap  ker b = W^+ is B^+-invariant,
    # yet Im a is all of W^-
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    name = next(n for n, ops in f.per_blue.items() if not ops["a"].is_zero())
    ops = f.per_blue[name]
    ops["A"] = linalg.Mat(ops["A"].rows, ops["A"].cols)
    report = butterfly.verify_fixed_point(f)
    assert verdict(report, "s1-s2").messages == [f"S1 fails at {name}"]


def test_verify_detects_s2_alone():
    # A_U = 0 and a_U = 0, while b_U alone is injective on the 1-dim W^+
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    name = next(n for n, ops in f.per_blue.items() if ops["a"].is_zero())
    ops = f.per_blue[name]
    assert (ops["b"].rows, ops["b"].cols) == (1, 1)
    ops["A"] = linalg.Mat(ops["A"].rows, ops["A"].cols)
    ops["b"] = sparse(1, 1, [[1]])
    report = butterfly.verify_fixed_point(f)
    assert verdict(report, "s1-s2").messages == [f"S2 fails at {name}"]


# the iterative subspace algorithm that checked S1/S2 before they became one
# rank each, over Fractions: subspaces are reduced row echelon bases


def matvec(mat, v):
    """The product of the Mat ``mat`` and the vector ``v``."""
    return [sum(x * y for x, y in zip(row, v)) for row in dense(mat)]


def kernel(rows, n):
    """Basis of {x : r . x = 0 for every row r}, x of length n."""
    red = rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def intersect(b1, b2, n):
    return kernel(kernel(b1, n) + kernel(b2, n), n)


def preimage(mat, basis):
    """Basis of {v : mat v in span(basis)}."""
    ann = kernel(basis, mat.rows)
    if not ann:
        return kernel([], mat.cols)
    product = DenseMat(len(ann), mat.rows, ann) * DenseMat(mat.rows, mat.cols, dense(mat))
    return kernel(product.data, mat.cols)


def reference_s1_s2(f):
    messages = []
    for name, ops in f.per_blue.items():
        bplus, bminus = ops["Bplus"], ops["Bminus"]
        # S1: shrink ker A  cap  ker b to its largest B^+-invariant subspace
        ker = kernel(dense(ops["A"]) + dense(ops["b"]), bplus.rows)
        s = ker
        while True:
            nxt = intersect(ker, preimage(bplus, s), bplus.rows)
            if rref(nxt) == rref(s):
                break
            s = nxt
        if rref(s):
            messages.append(f"S1 fails at {name}")
        # S2: grow Im A + Im a under B^- until it stops changing
        span = rref(columns(ops["A"]) + columns(ops["a"]))
        while True:
            nxt = rref(span + [matvec(bminus, v) for v in span])
            if len(nxt) == len(span):
                break
            span = nxt
        if len(span) != bminus.rows:
            messages.append(f"S2 fails at {name}")
    return messages


def edited(f, rng):
    """A copy of ``f`` with one entry of one nonempty A, a, b, B^+ or B^-
    changed to another value in {0, 1, -1, 2}; ``f`` itself if all of them
    are empty."""
    choices = [
        (name, key)
        for name, ops in f.per_blue.items()
        for key in ("A", "a", "b", "Bplus", "Bminus")
        if ops[key].rows and ops[key].cols
    ]
    if not choices:
        return f
    name, key = rng.choice(choices)
    mat = copied(f.per_blue[name][key])
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    entry(mat, i, j, rng.choice([x for x in (0, 1, -1, 2) if x != entry(mat, i, j)]))
    per_blue = {**f.per_blue, name: {**f.per_blue[name], key: mat}}
    return dataclasses.replace(f, per_blue=per_blue)


def test_s1_s2_matches_subspace_reference():
    rng = random.Random(5)
    diagrams = itertools.chain(admissible_diagrams(4, 3), admissible_diagrams(5, 2))
    verdicts = Counter()
    for d in diagrams:
        for t in tie.enumerate_tie_diagrams(d):
            f = butterfly.assemble_fixed_point(t)
            for _ in range(5):
                case = edited(f, rng)
                check = butterfly._check_s1_s2(case)
                assert check.messages == reference_s1_s2(case), brane.render(d)
                assert check.ok == (not check.messages)
                verdicts[check.ok] += 1
    assert sum(verdicts.values()) == 6480
    assert verdicts[False] > 600


def test_verification_ranks_by_reachability(monkeypatch):
    # every operator of the 1,610 criterion-3 points and the 24 verified flag
    # points is a partial injection, so S1, S2 and the junctions count the
    # unit vectors reached and never eliminate
    ranks = counting_calls(monkeypatch, butterfly.linalg, "rank")
    krylov = counting_calls(monkeypatch, butterfly.linalg, "krylov_rank")
    for f in sweep_points() + flag_sample():
        assert butterfly.verify_fixed_point(f).ok
    assert not ranks and not krylov


def widened(f, key, axis, lines, rng):
    """A copy of ``f`` with one more entry, of a value drawn from
    ``EDIT_VALUES`` less 0, beside an entry of the ``key`` operator of one
    of the colored ``lines``: in the same row (``axis`` 0) or the same
    column (``axis`` 1), so that one row or column holds two entries.  None
    when no such cell is free."""
    free = []
    for p in lines:
        mat = ops_at(f, p)[key]
        for i, row in mat.entries.items():
            for j in row:
                if axis == 0:
                    free += [(p, key, i, c) for c in range(mat.cols) if c not in row]
                else:
                    rows = range(mat.rows)
                    free += [(p, key, r, j) for r in rows if j not in mat.entries.get(r, {})]
    if not free:
        return None
    return with_entries(f, {rng.choice(free): rng.choice(EDIT_VALUES[1:])})


# the operators of a junction stack, as (check, operator, axis): the colors
# left and right of the junction, and the side of the operator's line
JUNCTION_STACKS = {
    ("junctions", "A", 0): (brane.BLUE, brane.RED, 0),
    ("junctions", "b", 0): (brane.BLUE, brane.RED, 0),
    ("junctions", "D", 0): (brane.BLUE, brane.RED, 1),
    ("junctions", "D", 1): (brane.RED, brane.BLUE, 0),
    ("junctions", "A", 1): (brane.RED, brane.BLUE, 1),
    ("junctions", "a", 1): (brane.RED, brane.BLUE, 1),
}


def edited_lines(f, edit):
    """The colored lines whose operator the ``edit`` of
    :func:`test_edited_shapes_reach_elimination` may widen."""
    colors = f.base.colors
    if edit[0] == "s1-s2":
        return f.base.blue_positions()
    left, right, side = JUNCTION_STACKS[edit]
    return [p + side for p in range(1, len(colors)) if colors[p - 1 : p + 1] == (left, right)]


def eliminated_junctions(f):
    """The junction messages from dense ranks of the stacked rows (of the
    columns side by side, for surjectivity)."""
    messages = []
    for j in range(2, len(f.base.blacks)):
        left, right = ops_at(f, j - 1), ops_at(f, j)
        dim = len(f.bases[j])
        if "A" in left and "D" in right:
            if dense_rank(dense(left["A"]) + dense(right["D"]) + dense(left["b"])) != dim:
                messages.append(f"junction map not injective at X{j}")
        elif "D" in left and "A" in right:
            if dense_rank(columns(left["D"]) + columns(right["A"]) + columns(right["a"])) != dim:
                messages.append(f"junction map not surjective at X{j}")
    return messages


def junctions(f):
    return butterfly._check_junctions(*butterfly._tables(f))


def test_edited_shapes_reach_elimination(monkeypatch):
    # a row of B^+ or a column of B^- with two entries takes S1 or S2 to
    # elimination, and so does a row (column) with two entries in a
    # junction's stack of A, D and b (D, A and a); verdicts and messages
    # match the subspace reference and dense ranks, on 300 sweep points and
    # on copies of 100 of them with the entries of one arrow zeroed
    rng = random.Random(29)
    sample = rng.sample(sweep_points(), 300)
    sample += [rng.choice(list(dropping_each_arrow(f)) or [f]) for f in sample[:100]]
    edits = {("s1-s2", "Bplus", 0): "krylov_rank", ("s1-s2", "Bminus", 1): "krylov_rank"}
    edits |= dict.fromkeys(JUNCTION_STACKS, "rank")
    names = ("rank", "krylov_rank")
    calls = {name: counting_calls(monkeypatch, butterfly.linalg, name) for name in names}
    verdicts = Counter()
    for f in sample:
        for (check, key, axis), name in edits.items():
            g = widened(f, key, axis, edited_lines(f, (check, key, axis)), rng)
            if g is None:
                continue
            calls[name].clear()
            if check == "s1-s2":
                result, reference = butterfly._check_s1_s2(g), reference_s1_s2(g)
            else:
                result, reference = junctions(g), eliminated_junctions(g)
            assert calls[name], (check, key, axis, brane.render(g.base))
            assert result.messages == reference, brane.render(g.base)
            verdicts[check, key, axis, result.ok] += 1
    # each edit met passing and failing cases
    assert all(verdicts[edit + (ok,)] > 0 for edit in edits for ok in (True, False))


RESCALE_VALUES = (-5, -3, -2, -1, 1, 2, 3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def rescaled(f, rng):
    """A copy of ``f`` with every nonzero operator entry replaced by a
    nonzero value drawn from ``RESCALE_VALUES``: the support is unchanged."""
    edits = {
        (p, key, i, j): rng.choice(RESCALE_VALUES)
        for p in range(1, len(f.base.blacks))
        for key, mat in ops_at(f, p).items()
        for i, row in mat.entries.items()
        for j in row
    }
    return with_entries(f, edits)


def eliminated(f):
    """The s1-s2 and junction messages by integer elimination on the rows of
    the matrices and of their transposes."""
    rows = butterfly._rows
    s1_s2 = []
    for name, ops in f.per_blue.items():
        a, b, big_a = ops["a"], ops["b"], ops["A"]
        bplus, bminus = ops["Bplus"], ops["Bminus"]
        if linalg.krylov_rank(rows(big_a, b), bplus) != bplus.rows:
            s1_s2.append(f"S1 fails at {name}")
        cols = rows(big_a.transpose(), a.transpose())
        if linalg.krylov_rank(cols, bminus.transpose()) != bminus.rows:
            s1_s2.append(f"S2 fails at {name}")
    lines, ids = butterfly._tables(f)
    joins = []
    for j, ((_, left, lop), (_, right, rop)) in enumerate(itertools.pairwise(lines), start=2):
        if (left, right) == (brane.BLUE, brane.RED):
            if linalg.rank(rows(lop["A"], rop["D"], lop["b"])) != len(ids[j]):
                joins.append(f"junction map not injective at X{j}")
        elif (left, right) == (brane.RED, brane.BLUE):
            stack = (lop["D"].transpose(), rop["A"].transpose(), rop["a"].transpose())
            if linalg.rank(rows(*stack)) != len(ids[j]):
                joins.append(f"junction map not surjective at X{j}")
    return s1_s2, joins


def test_rescaled_entries_keep_the_reachability_verdicts(monkeypatch):
    # every sweep point, and 150 of them with the entries of one arrow
    # zeroed or every a_U zeroed, with each entry rescaled to a random
    # nonzero int or Fraction: the shape holds, so the counts of reachable
    # unit vectors decide, and they agree with elimination
    rng = random.Random(29)
    sweep = sweep_points()
    sample = rng.sample(sweep, 150)
    faulty = [g for f in sample for g in dropping_each_arrow(f)]
    faulty += without_a(sample)
    assert all(butterfly.verify_fixed_point(f).ok for f in sample)
    ranks = counting_calls(monkeypatch, butterfly.linalg, "rank")
    krylov = counting_calls(monkeypatch, butterfly.linalg, "krylov_rank")
    verdicts = Counter()
    for f in sweep + faulty:
        g = rescaled(f, rng)
        ranks.clear()
        krylov.clear()
        checks = (butterfly._check_s1_s2(g), junctions(g))
        assert not ranks and not krylov
        for check, messages in zip(checks, eliminated(g)):
            assert check.messages == messages, brane.render(g.base)
            verdicts[check.name, check.ok] += 1
    assert len(faulty) == 742
    assert verdicts == {
        ("s1-s2", True): 1938,
        ("s1-s2", False): 414,
        ("junctions", True): 2033,
        ("junctions", False): 319,
    }


def test_nilpotency_skipped_on_unseparated_diagrams():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    report = butterfly.verify_fixed_point(butterfly.assemble_fixed_point(t))
    assert verdict(report, "nilpotency").skipped


def test_fixed_point_json_entries_are_exact():
    d = brane.parse(TSTAR_P1)
    t = tie.enumerate_tie_diagrams(d)[0]
    blob = butterfly.assemble_fixed_point(t).to_json()
    assert blob["perBlue"]["U1"]["A"] == [["1"]]
    assert blob["tie"]["diagram"] == TSTAR_P1


def test_fixed_point_json_keeps_its_key_order():
    # the digests hash ``to_json()`` with sorted keys, so this pins the order
    # the ``matrices`` verb prints, on the 1,610 criterion-3 sweep points and
    # the 840 flag points: fibers by black line, blue lines U1..UN, red lines
    # V1..VM (numbered from the right), and each line's operators as listed
    # in ``_OPERATORS``
    points = [t for d in sweep_diagrams() for t in tie.enumerate_tie_diagrams(d)]
    points += tie.enumerate_tie_diagrams(brane.parse(FLAG))
    assert len(points) == 1610 + 840
    blue_ops, red_ops = (list(butterfly._OPERATORS[c]) for c in (brane.BLUE, brane.RED))
    for t in points:
        d = t.base
        blob = butterfly.assemble_fixed_point(t).to_json()
        assert list(blob) == ["tie", "bases", "perBlue", "perRed"]
        assert list(blob["bases"]) == [str(j) for j in range(1, len(d.blacks) + 1)]
        assert list(blob["perBlue"]) == [f"U{u}" for u in range(1, d.n_blue + 1)]
        assert list(blob["perRed"]) == [f"V{m}" for m in range(1, d.n_red + 1)]
        assert all(list(ops) == blue_ops for ops in blob["perBlue"].values())
        assert all(list(ops) == red_ops for ops in blob["perRed"].values())


# ---------------------------------------------------------------------------
# the exact linear algebra backing the checks


def test_mat_shapes_and_products():
    a = sparse(2, 3, [[1, 2, 0], [0, 1, 1]])
    b = sparse(3, 2, [[1, 0], [0, 1], [1, 1]])
    p = a * b
    assert (p.rows, p.cols) == (2, 2)
    assert dense(p) == [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]]
    z = linalg.Mat(0, 3) * linalg.Mat(3, 2)
    assert (z.rows, z.cols) == (0, 2) and z.is_zero()
    assert sorted(a.support("xy", "pqr")) == [("x", "p"), ("x", "q"), ("y", "q"), ("y", "r")]
    assert z.support([], "ab") == [] and linalg.Mat(2, 2).support("xy", "pq") == []
    assert dense(a.transpose()) == columns(a) == [[1, 0], [2, 1], [0, 1]]
    # a negative power is refused, as for a Poly, not looped on forever
    with pytest.raises(ValueError, match="negative power"):
        linalg.Mat(1, 1, {0: {0: 1}}).power(-1)


def test_negation_flips_every_entry():
    a = sparse(2, 3, [[1, -2, 0], [0, 0, Fraction(1, 3)]])
    assert dense(-a) == [[-1, 2, 0], [0, 0, Fraction(-1, 3)]]
    assert -a + a == linalg.Mat(2, 3) and -linalg.Mat(0, 2) == linalg.Mat(0, 2)


def test_writing_zero_removes_the_entry():
    # a stored zero would be a false edge for stability and a false failure
    # for grading: zeroing an entry leaves the matrix a fresh one would be
    m = linalg.Mat(2, 3)
    entry(m, 1, 2, 5)
    entry(m, 0, 0, Fraction(1, 2))
    assert sorted(m.support("xy", "pqr")) == [("x", "p"), ("y", "r")]
    entry(m, 1, 2, 0)
    entry(m, 0, 0, Fraction(0))
    entry(m, 0, 1, 0)  # zeroing an absent entry changes nothing
    assert m.support("xy", "pqr") == [] and m.is_zero()
    assert m == linalg.Mat(2, 3) and m.entries == {}
    assert m + sparse(2, 3, [[0, 1, 0], [0, 0, 0]]) == sparse(2, 3, [[0, 1, 0], [0, 0, 0]])
    entry(m, 0, 1, -1)
    assert (m + sparse(2, 3, [[0, 1, 0], [0, 0, 0]])).entries == {}
    with pytest.raises(IndexError):
        entry(m, 2, 0, 1)
    with pytest.raises(IndexError):
        entry(m, 0, -1, 1)


def test_reading_outside_the_shape_raises():
    # an absent entry inside the shape reads 0; outside it, as for writing,
    # the index is an error, not a silent 0
    m = linalg.Mat(2, 2)
    entry(m, 1, 0, 3)
    assert (entry(m, 1, 0), entry(m, 0, 1), entry(m, 1, 1)) == (3, 0, 0)
    for i, j in ((5, 5), (-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(IndexError, match=r"is outside a 2x2 matrix"):
            entry(m, i, j)
    with pytest.raises(IndexError):
        entry(linalg.Mat(0, 3), 0, 0)


def test_rank_kernel_image():
    a = sparse(2, 3, [[1, 2, 3], [2, 4, 6]])
    assert linalg.rank(a.entries.values()) == 1
    for v in ([-2, 1, 0], [-3, 0, 1]):
        assert matvec(a, v) == [0, 0]
    assert linalg.rank(a.transpose().entries.values()) == 1
    assert linalg.rank(sparse_rows([[2, 0, 0], [0, Fraction(1, 3), 0], [0, 0, 5]])) == 3


def test_subspace_operations():
    e1, e2, e3 = {0: 1}, {1: 1}, {2: 1}
    # dim(U + V) is the rank of both bases together
    assert linalg.rank([e1, e2] + [e2, e3]) == 3
    assert linalg.rank([e1, e2] + [e2, {0: 1, 1: 1}]) == 2
    # v -> v shift takes e3 -> e2 -> e1 -> 0: the closure of e3 is
    # everything, that of e2 is span(e1, e2), and the zero map adds nothing
    shift = sparse(3, 3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert linalg.krylov_rank([e3], shift) == 3
    assert linalg.krylov_rank([e2], shift) == 2
    assert linalg.krylov_rank([e1], shift) == 1
    assert linalg.krylov_rank([e1, e3], linalg.Mat(3, 3)) == 2
    assert linalg.krylov_rank([], shift) == 0
    assert linalg.krylov_rank([{}], shift) == 0
    # a stored zero is no entry
    zeros = [{0: 0, 1: 1}, {0: 1}]
    assert linalg.rank([{0: 0}]) == 0 == linalg.krylov_rank([{0: 0}], shift)
    assert linalg.rank(zeros) == 2 == linalg.krylov_rank(zeros, shift)


def rref(rows):
    """Gauss-Jordan over Fractions: the nonzero rows of the reduced row
    echelon form."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivot = 0
    for col in range(len(m[0]) if m else 0):
        sel = next((r for r in range(pivot, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        m[pivot], m[sel] = m[sel], m[pivot]
        m[pivot] = [x / m[pivot][col] for x in m[pivot]]
        for r in range(len(m)):
            if r != pivot and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[pivot])]
        pivot += 1
    return m[:pivot]


entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.just(Fraction(5)),
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    out = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if out else 0):
        # a rational combination of two rows, so that the rank drops
        c1, c2 = draw(entries), draw(entries)
        r1, r2 = draw(st.sampled_from(out)), draw(st.sampled_from(out))
        out.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        out.insert(draw(st.integers(min_value=0, max_value=len(out))), [0] * cols)
    return out


@settings(max_examples=300, deadline=None)
@given(matrices())
@example([[Fraction(1, 2), 1], [1, 2]])
def test_rank_matches_gauss_jordan(rows):
    assert linalg.rank(sparse_rows(rows)) == len(rref(rows))
    cols = [list(c) for c in zip(*rows)]
    if rows and rows[0]:
        assert linalg.rank(sparse_rows(cols)) == len(rref(rows))


@st.composite
def shaped(draw, rows, cols):
    """A dense rows x cols matrix, mostly zeros (as operators are), with
    some whole zero rows."""
    entry = st.one_of(st.just(0), st.just(0), entries)
    row = st.one_of(
        st.lists(entry, min_size=cols, max_size=cols), st.just([0] * cols)
    )
    return draw(st.lists(row, min_size=rows, max_size=rows))


@st.composite
def operator_cases(draw):
    """Shapes n x k, k x m and k x k (any of them may be 0) and matrices:
    two n x k, one k x m and one square k x k."""
    n, k, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return (n, k, m), draw(shaped(n, k)), draw(shaped(n, k)), draw(shaped(k, m)), draw(shaped(k, k))


@settings(max_examples=300, deadline=None)
@given(operator_cases(), st.integers(min_value=0, max_value=4))
@example(((2, 2, 0), [[1, 0], [0, 0]], [[-1, 0], [0, 0]], [[], []], [[0, 1], [0, 0]]), 2)
def test_sparse_matches_dense_reference(case, e):
    (n, k, m), a, c, b, s = case
    sa, sc, sb, ss = sparse(n, k, a), sparse(n, k, c), sparse(k, m, b), sparse(k, k, s)
    da, dc, db, ds = DenseMat(n, k, a), DenseMat(n, k, c), DenseMat(k, m, b), DenseMat(k, k, s)
    # products, sums and powers, with their zero entries dropped
    assert dense(sa * sb) == (da * db).data
    assert dense(sa + sc) == (da + dc).data and sa + sc == sparse(n, k, (da + dc).data)
    assert dense(ss.power(e)) == ds.power(e).data
    assert ss.power(e) == sparse(k, k, ds.power(e).data)
    assert sa.is_zero() == da.is_zero() and (sa + sc).is_zero() == (da + dc).is_zero()
    assert (sa == sc) == (da == dc)
    assert sorted(sa.support(range(n), range(k))) == da.support(range(n), range(k))
    assert dense(sa.transpose()) == da.columns()
    # ranks of the rows and of the columns, and Krylov closures: v -> v s on
    # sparse rows is v -> s^T v on dense columns
    ra, rc = sparse_rows(a), sparse_rows(c)
    full = [dict(enumerate(row)) for row in a + c]  # every cell, zeros included
    before = copy.deepcopy((sa.entries, ra, rc, ss.entries, full))
    assert linalg.rank(sa.entries.values()) == dense_rank(a) == len(rref(a))
    assert linalg.rank(sa.transpose().entries.values()) == dense_rank(da.columns())
    transpose = DenseMat(k, k, ds.columns())
    assert linalg.krylov_rank(ra, ss) == dense_krylov_rank(a, transpose)
    assert linalg.krylov_rank(rc, ss) == dense_krylov_rank(c, transpose)
    assert linalg.rank(ra + rc) == dense_rank(a + c)
    assert linalg.krylov_rank(ra + rc, ss) == dense_krylov_rank(a + c, transpose)
    # a row may store zeros, which are no entries
    assert linalg.rank(full) == dense_rank(a + c)
    assert linalg.krylov_rank(full, ss) == dense_krylov_rank(a + c, transpose)
    # ranking reads its input and never writes it, reduced rows included:
    # verification ranks a point's own operator rows
    assert (sa.entries, ra, rc, ss.entries, full) == before


def test_rank_of_dense_integer_matrices_stays_bounded():
    # each kept row is its input row less multiples of earlier kept rows, so
    # its entries are ratios of minors of the input, with a nonzero integer
    # minor below: no entry exceeds the Hadamard bound
    rng = random.Random(12)
    for trial in range(20):
        rows = [[rng.randint(-99, 99) for _ in range(12)] for _ in range(12)]
        if trial % 4 == 0:  # a dependent row
            rows[5] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
        bound = 1
        for r in rows:
            bound *= math.isqrt(sum(x * x for x in r)) + 1
        pivots = {}
        kept = sum(linalg._reduce(pivots, r) for r in sparse_rows(rows))
        assert kept == len(rref(rows)) == (11 if trial % 4 == 0 else 12)
        # pivots maps each kept row's leading column to the row
        assert all(min(r) == col for col, r in pivots.items())
        assert max(abs(x) for r in pivots.values() for x in r.values()) <= bound


# sha256 over ``to_json()`` and the verification report of the 1,610
# criterion-3 sweep points and the 24 flag sample points, in that order, as
# the dense matrices gave them: sparse operators change no output
SWEEP_AND_FLAG_DIGEST = "a099814b20a99e89f25cb06e0a8ba3f3442bc4c5139a183ec1b8e8414fbdec65"


def test_sparse_operators_keep_every_output():
    points = [t for d in sweep_diagrams() for t in tie.enumerate_tie_diagrams(d)]
    flag = tie.enumerate_tie_diagrams(brane.parse(FLAG))
    points += [flag[k] for k in range(0, 840, 35)]
    assert len(points) == 1610 + 24
    digest = hashlib.sha256()
    for t in points:
        f = butterfly.assemble_fixed_point(t)
        digest.update(json.dumps(f.to_json(), sort_keys=True).encode())
        digest.update(butterfly.verify_fixed_point(f).render().encode())
    assert digest.hexdigest() == SWEEP_AND_FLAG_DIGEST


def test_verification_resolves_each_colored_line_once(monkeypatch):
    # the checks read one line table per point, so the diagram is asked for
    # the name, index or color of a colored line at most once per point (it
    # was asked 36,046, 52,066 and 16,020 times for these 8,010 lines)
    points = [
        butterfly.assemble_fixed_point(t)
        for d in sweep_diagrams()
        for t in tie.enumerate_tie_diagrams(d)
    ]
    colored = sum(f.base.n_colored for f in points)
    assert len(points) == 1610 and colored == 8010
    calls = Counter()

    def counting(name, method):
        def counted(self, pos):
            calls[name] += 1
            return method(self, pos)

        return counted

    for name in ("line_name", "_index", "color_at"):
        method = getattr(brane.BraneDiagram, name)
        monkeypatch.setattr(brane.BraneDiagram, name, counting(name, method))
    for f in points:
        butterfly.verify_fixed_point(f)
    assert calls["line_name"] <= colored
    assert calls["_index"] <= colored and calls["color_at"] <= colored


def test_assembly_resolves_each_colored_line_once(monkeypatch):
    # assembly reads the colors and names of a point's lines once, so the
    # diagram is asked for the name, index or color of a colored line at
    # most once per point (it was asked 8,010, 16,020 and 8,010 times for
    # these 8,010 lines)
    ties = [t for d in sweep_diagrams() for t in tie.enumerate_tie_diagrams(d)]
    colored = sum(t.base.n_colored for t in ties)
    assert len(ties) == 1610 and colored == 8010
    calls = Counter()

    def counting(name, method):
        def counted(self, pos):
            calls[name] += 1
            return method(self, pos)

        return counted

    for name in ("line_name", "_index", "color_at"):
        method = getattr(brane.BraneDiagram, name)
        monkeypatch.setattr(brane.BraneDiagram, name, counting(name, method))
    for t in ties:
        butterfly.assemble_fixed_point(t)
    assert calls["line_name"] <= colored
    assert calls["_index"] <= colored and calls["color_at"] <= colored

