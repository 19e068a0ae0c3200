"""Butterfly diagrams, fixed-point matrices, and the verification checks."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    return len(minus) == len(plus) == len(rref(rows))


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


def test_verify_detects_s1_alone():
    # A_U = 0 where a_U spans W^-: ker A  cap  ker b = W^+ is B^+-invariant,
    # yet Im a is all of W^-
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    name = next(n for n, ops in f.per_blue.items() if not ops["a"].is_zero())
    ops = f.per_blue[name]
    ops["A"] = linalg.Mat.zero(ops["A"].rows, ops["A"].cols)
    report = butterfly.verify_fixed_point(f)
    assert report.check("s1-s2").messages == [f"S1 fails at {name}"]


def test_verify_detects_s2_alone():
    # A_U = 0 and a_U = 0, while b_U alone is injective on the 1-dim W^+
    t = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    f = butterfly.assemble_fixed_point(t)
    name = next(n for n, ops in f.per_blue.items() if ops["a"].is_zero())
    ops = f.per_blue[name]
    assert ops["b"].shape() == (1, 1)
    ops["A"] = linalg.Mat.zero(ops["A"].rows, ops["A"].cols)
    ops["b"] = linalg.Mat(1, 1, [[1]])
    report = butterfly.verify_fixed_point(f)
    assert report.check("s1-s2").messages == [f"S2 fails at {name}"]


# the iterative subspace algorithm that checked S1/S2 before they became one
# rank each, over Fractions: subspaces are reduced row echelon bases


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
    return kernel((linalg.Mat(len(ann), mat.rows, ann) * mat).data, mat.cols)


def reference_s1_s2(f):
    messages = []
    for name, ops in f.per_blue.items():
        bplus, bminus = ops["Bplus"], ops["Bminus"]
        # S1: shrink ker A  cap  ker b to its largest B^+-invariant subspace
        ker = kernel(ops["A"].data + ops["b"].data, bplus.rows)
        s = ker
        while True:
            nxt = intersect(ker, preimage(bplus, s), bplus.rows)
            if rref(nxt) == rref(s):
                break
            s = nxt
        if rref(s):
            messages.append(f"S1 fails at {name}")
        # S2: grow Im A + Im a under B^- until it stops changing
        span = rref(ops["A"].columns() + ops["a"].columns())
        while True:
            nxt = rref(span + [bminus.apply(v) for v in span])
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
    mat = f.per_blue[name][key]
    mat = linalg.Mat(mat.rows, mat.cols, mat.data)
    ij = rng.randrange(mat.rows), rng.randrange(mat.cols)
    mat[ij] = rng.choice([x for x in (0, 1, -1, 2) if x != mat[ij]])
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
    for v in ([-2, 1, 0], [-3, 0, 1]):
        assert a.apply(v) == [0, 0]
    assert linalg.rank(a.columns()) == 1
    assert linalg.Mat(3, 3, [[2, 0, 0], [0, Fraction(1, 3), 0], [0, 0, 5]]).rank() == 3


def test_subspace_operations():
    e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    # dim(U + V) is the rank of both bases together
    assert linalg.rank([e1, e2] + [e2, e3]) == 3
    assert linalg.rank([e1, e2] + [e2, [1, 1, 0]]) == 2
    # the closure of e1 under the shift e1 -> e2 -> e3 -> 0 is everything,
    # that of e2 is span(e2, e3), and the zero map adds nothing
    shift = linalg.Mat(3, 3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert linalg.krylov_rank([e1], shift.apply) == 3
    assert linalg.krylov_rank([e2], shift.apply) == 2
    assert linalg.krylov_rank([e1, e3], linalg.Mat.zero(3, 3).apply) == 2
    assert linalg.krylov_rank([], shift.apply) == 0
    assert linalg.krylov_rank([[0, 0, 0]], shift.apply) == 0


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
    assert linalg.rank(rows) == len(rref(rows))
    cols = [list(c) for c in zip(*rows)]
    if rows and rows[0]:
        assert linalg.rank(cols) == len(rref(rows))


def test_rank_of_dense_integer_matrices_stays_bounded():
    # each kept row is an input row, or a reduced row divided by its gcd and
    # so proportional to a row of minors: no entry exceeds the Hadamard bound
    rng = random.Random(12)
    for trial in range(20):
        rows = [[rng.randint(-99, 99) for _ in range(12)] for _ in range(12)]
        if trial % 4 == 0:  # a dependent row
            rows[5] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
        bound = 1
        for r in rows:
            bound *= math.isqrt(sum(x * x for x in r)) + 1
        echelon = linalg._Echelon()
        kept = sum(echelon.add(r) for r in rows)
        assert kept == len(rref(rows)) == (11 if trial % 4 == 0 else 12)
        assert max(abs(x) for _c, r in echelon.pivots for x in r) <= bound
