"""Butterfly diagrams, fixed-point matrices, and the verification checks."""

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from bowvariety import brane, butterfly, linalg, tie
from conftest import EXAMPLE_3BLUE, POINT_DIAGRAM, TSTAR_P1, admissible_diagrams

BIG_DIAGRAM = "0/1/2/3\\3/5\\4/2\\2/0"
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


def big_tie_diagram():
    d = brane.parse(BIG_DIAGRAM)
    t = tie.TieDiagram(d, frozenset(BIG_TIES))
    assert tie.is_valid(t).ok
    return t


def test_cover_counts_golden():
    t = big_tie_diagram()
    assert butterfly.cover_counts(t, "U2") == (0, 1, 2, 2, 2, 3, 2, 1, 1, 0)
    assert butterfly.cover_counts(t, 2) == butterfly.cover_counts(t, "U2")


def test_column_bottoms_golden():
    t = big_tie_diagram()
    cb = butterfly.column_bottoms(t, "U2")
    assert cb[1:9] == (-1, -1, 0, 0, 0, 0, 1, 1)


def test_blue_index_errors():
    t = big_tie_diagram()
    with pytest.raises(KeyError):
        butterfly.cover_counts(t, "V1")
    with pytest.raises(KeyError):
        butterfly.cover_counts(t, 9)


def test_butterfly_columns_match_counts():
    t = big_tie_diagram()
    bf = butterfly.build_butterfly(t, "U2")
    for j in range(1, 11):
        col = bf.column(j)
        assert len(col) == bf.cover_counts[j - 1]
        assert all(v in bf.vertices for v in col)
    assert len(bf.vertices) == sum(bf.cover_counts)


def test_butterfly_column_at_own_blue_starts_at_zero():
    for t in tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE)):
        for u in range(1, 4):
            bf = butterfly.build_butterfly(t, u)
            assert bf.column_bottoms[bf.J - 1] == 0


def test_butterfly_green_arrows():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    bf = butterfly.build_butterfly(t, 1)
    greens = [a for a in bf.arrows if a[0] == "green"]
    # d_{U^-} = 0 < d_{U^+} = 1: only the outgoing green arrow exists
    assert greens == [("green", (1, 1), butterfly.EXTERNAL)]


def test_butterfly_json_and_ascii_smoke():
    t = big_tie_diagram()
    bf = butterfly.build_butterfly(t, "U2")
    blob = bf.to_json()
    assert blob["blue"] == "U2"
    assert blob["coverCounts"] == [0, 1, 2, 2, 2, 3, 2, 1, 1, 0]
    art = butterfly.render_ascii(bf)
    assert "U2" in art and "o" in art


def test_assemble_tstar_p1_matrices():
    # both fixed points: every A is the 1x1 identity, every b vanishes, and
    # exactly one blue line (the one carrying the ties) has a = unit vector
    d = brane.parse(TSTAR_P1)
    for t in tie.enumerate_tie_diagrams(d):
        f = butterfly.assemble_fixed_point(t)
        assert [f.dim(j) for j in (1, 2, 3, 4, 5)] == [0, 1, 1, 1, 0]
        units = 0
        for ops in f.per_blue.values():
            assert ops["A"].data == [[Fraction(1)]]
            assert ops["b"].is_zero()
            if not ops["a"].is_zero():
                assert ops["a"].data == [[Fraction(1)]]
                units += 1
        assert units == 1


def test_fiber_character_point_diagram():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    # one vertex over X2: the weight t1 + h
    fibers = butterfly.fiber_weights(t)
    assert fibers == {1: Counter(), 2: Counter({(1, 1): 1}), 3: Counter()}


def test_fiber_characters_match_labels():
    # the fiber weights are the (u, height) labels of the assembled basis
    for t in tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE)):
        fibers = butterfly.fiber_weights(t)
        f = butterfly.assemble_fixed_point(t)
        assert set(fibers) == set(f.bases)
        for j, labels in f.bases.items():
            assert fibers[j] == Counter((u, jj) for u, _i, jj in labels)
            assert sum(fibers[j].values()) == t.base.label(j)


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
    assert not report.check("stability").skipped


def test_verify_detects_broken_moment_map():
    d = brane.parse(TSTAR_P1)
    t = tie.enumerate_tie_diagrams(d)[0]
    f = butterfly.assemble_fixed_point(t)
    f.per_blue["U1"]["Bplus"][0, 0] = Fraction(5)
    report = butterfly.verify_fixed_point(f)
    assert not report.check("moment-map").ok


def test_verify_detects_broken_grading():
    d = brane.parse(EXAMPLE_3BLUE)
    t = tie.enumerate_tie_diagrams(d)[2]
    f = butterfly.assemble_fixed_point(t)
    # connect two basis lines with different labels through A_U2
    ops = f.per_blue["U2"]["A"]
    assert ops.rows == ops.cols == 2
    ops[0, 1] = ops[0, 1] + 7
    report = butterfly.verify_fixed_point(f)
    assert not report.check("grading").ok


def without_greens(f):
    """The fixed point with every green arrow dropped from its butterflies."""
    for u, bf in f.butterflies.items():
        arrows = tuple(a for a in bf.arrows if a[0] != "green")
        f.butterflies[u] = dataclasses.replace(bf, arrows=arrows)
    return f


def bitmask_stable(f):
    """Reference search: every subset of the basis lines outside the closure
    of the green arrows (exponential, so small points only)."""
    succ, mandatory = {}, set()
    for u, bf in f.butterflies.items():
        ids = {v: (u, v[0] + bf.J, h) for v, h in bf.heights.items()}
        succ.update((w, []) for w in ids.values())
        for color, src, tgt in bf.arrows:
            if src == butterfly.EXTERNAL:
                mandatory.add(ids[tgt])
            elif color != "green":
                succ[ids[src]].append(ids[tgt])
    while any(w not in mandatory for v in mandatory for w in succ[v]):
        mandatory |= {w for v in mandatory for w in succ[v]}
    free = sorted(set(succ) - mandatory)
    for mask in range(1 << len(free)):
        chosen = mandatory | {v for k, v in enumerate(free) if mask >> k & 1}
        closed = all(w in chosen for v in chosen for w in succ[v])
        if closed and len(chosen) < len(succ):
            if all(quotient_iso(f, u, chosen) for u in range(1, f.base.n_blue + 1)):
                return False
    return True


def quotient_iso(f, u, chosen):
    """Whether A_U induces an isomorphism on the quotients by ``chosen``."""
    p = f.base.blue_positions()[u - 1]
    minus = [k for k, (v, _i, h) in enumerate(f.bases[p]) if (v, p, h) not in chosen]
    plus = [
        k for k, (v, _i, h) in enumerate(f.bases[p + 1]) if (v, p + 1, h) not in chosen
    ]
    rows = [[f.per_blue[f"U{u}"]["A"].data[r][c] for c in plus] for r in minus]
    return len(minus) == len(plus) == len(linalg.rref(rows))


def test_stability_matches_bitmask_reference():
    # every point of the small sweep as it is and with one or two arrows of
    # a butterfly dropped (which may destabilize it), and the T*P^1 points
    # without green arrows
    points = [
        butterfly.assemble_fixed_point(t)
        for d in admissible_diagrams(4, 2)
        for t in tie.enumerate_tie_diagrams(d)
    ]
    cases = list(points)
    for f in points:
        for u, bf in f.butterflies.items():
            for drop in itertools.combinations_with_replacement(bf.arrows, 2):
                arrows = tuple(a for a in bf.arrows if a not in drop)
                dropped = {**f.butterflies, u: dataclasses.replace(bf, arrows=arrows)}
                cases.append(dataclasses.replace(f, butterflies=dropped))
    cases += [
        without_greens(butterfly.assemble_fixed_point(t))
        for t in tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))
    ]
    verdicts = Counter()
    for f in cases:
        check = butterfly.verify_fixed_point(f).check("stability")
        assert not check.skipped
        assert check.ok == bitmask_stable(f), brane.render(f.base)
        verdicts[check.ok] += 1
    assert verdicts[True] > 700 and verdicts[False] > 300


def test_stability_runs_on_large_flag_points():
    # 22 and 20 basis lines outside the closure of the green arrows: too
    # many for a search over all their subsets
    points = tie.enumerate_tie_diagrams(brane.parse("0/1/2/3/4\\4\\4\\4\\4\\4\\4\\4/0"))
    for k in (1, 421):
        f = butterfly.assemble_fixed_point(points[k - 1])
        check = butterfly.verify_fixed_point(f).check("stability")
        assert check.ok and not check.skipped, f"D{k}: {check.messages}"


def test_verify_detects_missing_green_arrows():
    for t in tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1)):
        f = without_greens(butterfly.assemble_fixed_point(t))
        assert not butterfly.verify_fixed_point(f).check("stability").ok


def test_verify_detects_broken_nilpotency():
    (t,) = tie.enumerate_tie_diagrams(brane.parse("0/1/2\\2\\0"))
    f = butterfly.assemble_fixed_point(t)
    assert butterfly.verify_fixed_point(f).ok
    f.per_blue["U1"]["Bminus"] = linalg.Mat.identity(f.per_blue["U1"]["Bminus"].rows)
    check = butterfly.verify_fixed_point(f).check("nilpotency")
    assert not check.ok and not check.skipped


def test_verify_detects_zero_a_maps():
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    for ops in f.per_blue.values():
        ops["A"] = linalg.Mat.zero(ops["A"].rows, ops["A"].cols)
        ops["a"] = linalg.Mat.zero(ops["a"].rows, ops["a"].cols)
    report = butterfly.verify_fixed_point(f)
    assert not report.check("s1-s2").ok
    assert not report.check("junctions").ok


def test_nilpotency_skipped_on_unseparated_diagrams():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    report = butterfly.verify_fixed_point(butterfly.assemble_fixed_point(t))
    assert report.check("nilpotency").skipped


def test_fixed_point_json_entries_are_exact():
    d = brane.parse(TSTAR_P1)
    t = tie.enumerate_tie_diagrams(d)[0]
    blob = butterfly.assemble_fixed_point(t).to_json()
    assert blob["perBlue"]["U1"]["A"] == [["1"]]
    assert blob["tie"]["diagram"] == TSTAR_P1


# ---------------------------------------------------------------------------
# the exact linear algebra backing the checks


def test_mat_shapes_and_products():
    a = linalg.Mat(2, 3, [[1, 2, 0], [0, 1, 1]])
    b = linalg.Mat(3, 2, [[1, 0], [0, 1], [1, 1]])
    p = a * b
    assert (p.rows, p.cols) == (2, 2)
    assert p.data == [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]]
    z = linalg.Mat.zero(0, 3) * linalg.Mat.zero(3, 2)
    assert (z.rows, z.cols) == (0, 2) and z.is_zero()


def test_rank_kernel_image():
    a = linalg.Mat(2, 3, [[1, 2, 3], [2, 4, 6]])
    assert a.rank() == 1
    ker = linalg.kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in a.apply(v))
    assert len(linalg.image_basis(a)) == 1


def test_subspace_operations():
    e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    total = linalg.span_sum(3, [e1, e2], [e2, e3])
    assert linalg.span_dim(total) == 3
    meet = linalg.intersect([e1, e2], [e2, e3], 3)
    assert linalg.span_dim(meet) == 1
    assert linalg.span_equal(meet, [e2])
