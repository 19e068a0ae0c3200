"""Tangent characters, chamber splits, Euler classes."""

from collections import Counter

import pytest

from bowvariety import algebra, brane, butterfly, errors, tangent, tie
from conftest import (
    EXAMPLE_3BLUE,
    FLAG,
    POINT_DIAGRAM,
    TSTAR_P1,
    admissible_diagrams,
    fiber_weights,
    involution_image,
    reference_expand,
    reference_render_character,
    reference_render_factored,
    reference_tie_json,
    sweep_diagrams,
)


def w(i, j, m=0):
    """The weight t_i - t_j + m*h."""
    return (i, j, m)


def weight_set(char):
    return set(char.weights())


def by_tie_sets(diagram):
    """Tangent characters of every fixed point, keyed by their tie sets."""
    d = brane.parse(diagram)
    return {
        frozenset(map(tuple, t_.named_ties())): tangent.tangent_character(t_, f"D{k}")
        for k, t_ in enumerate(tie.enumerate_tie_diagrams(d), start=1)
    }


def test_tstar_p1_tangents():
    points = by_tie_sets(TSTAR_P1)
    first = points[frozenset({("V2", "U1"), ("U1", "V1")})]
    second = points[frozenset({("V2", "U2"), ("U2", "V1")})]
    assert weight_set(first.char) == {
        w(1, 2),
        w(2, 1, 1),
    }
    assert weight_set(second.char) == {
        w(2, 1),
        w(1, 2, 1),
    }


def test_point_diagram_is_zero_dimensional():
    d = brane.parse(POINT_DIAGRAM)
    (t_,) = tie.enumerate_tie_diagrams(d)
    tc = tangent.tangent_character(t_, "D1")
    assert tc.char.terms == {} and tc.char.total() == 0


def test_three_blue_tangent_table():
    """The five four-weight multisets of the 3-red/3-blue example."""
    expected = {
        frozenset({("V3", "U1"), ("V2", "U2"), ("U1", "V1"), ("U2", "V1")}): {
            w(3, 1, 1),
            w(3, 2, 1),
            w(1, 3),
            w(2, 3),
        },
        frozenset({("V3", "U1"), ("V2", "U3"), ("U1", "V1"), ("U3", "V1")}): {
            w(2, 1, 1),
            w(2, 3, 1),
            w(1, 2),
            w(3, 2),
        },
        frozenset(
            {
                ("V3", "U1"),
                ("U1", "V2"),
                ("V2", "U2"),
                ("V2", "U3"),
                ("U2", "V1"),
                ("U3", "V1"),
            }
        ): {w(2, 1), w(3, 1), w(1, 2, 1), w(1, 3, 1)},
        frozenset({("V3", "U2"), ("V2", "U3"), ("U2", "V1"), ("U3", "V1")}): {
            w(2, 1, -1),
            w(1, 2, 2),
            w(2, 3),
            w(3, 2, 1),
        },
        frozenset({("V3", "U3"), ("V2", "U2"), ("U2", "V1"), ("U3", "V1")}): {
            w(3, 1, -1),
            w(1, 3, 2),
            w(3, 2),
            w(2, 3, 1),
        },
    }
    points = by_tie_sets(EXAMPLE_3BLUE)
    assert set(points) == set(expected)
    for key, tc in points.items():
        got = weight_set(tc.char)
        assert got == expected[key], key


def test_three_blue_dimension():
    for diagram, dim in ((EXAMPLE_3BLUE, 4), (TSTAR_P1, 2)):
        assert {tc.char.total() for tc in by_tie_sets(diagram).values()} == {dim}


def test_tangent_invariants_on_sweep():
    for d in admissible_diagrams(5, 2):
        points = tie.enumerate_tie_diagrams(d)
        if not points:
            continue
        dims = set()
        for k, t_ in enumerate(points, start=1):
            # tangent_character raises on any violated invariant
            tc = tangent.tangent_character(t_, f"D{k}")
            char = tc.char
            assert char.is_effective()
            assert involution_image(char) == char
            # every weight is t_i - t_j + m*h with i != j, as chamber_split needs
            assert all(i != j for i, j, _ in char.terms)
            dims.add(char.total())
        assert len(dims) == 1


def test_tangent_character_builds_each_butterfly_once():
    # every butterfly goes through the cached lattice, built once per
    # distinct (J, cover counts) key; a point assembled after its tangent
    # builds nothing new.  The tangent blocks are memoized on the plan by the
    # same keys: 917 of the 35 * 35 ordered pairs occur in 840 * 49 lookups.
    d = brane.parse(FLAG)
    points = tie.enumerate_tie_diagrams(d)
    keys = {
        (J, butterfly.build_butterfly(t_, f"U{u}").cover_counts)
        for t_ in points
        for u, J in enumerate(d.blue_positions(), start=1)
    }
    assert len(points) == 840 and len(keys) == 35
    butterfly._lattice.cache_clear()
    tangent._plan.cache_clear()
    for k, t_ in enumerate(points, start=1):
        tangent.tangent_character(t_, f"D{k}")
    assert butterfly._lattice.cache_info().misses == len(keys)
    _steps, lattices, rows, shapes = tangent._plan(d.colors)
    assert set(lattices) == keys and len(rows) == len(keys)
    assert sum(block is not None for row in rows for block in row) == 917
    assert len(shapes) == 3  # the 917 blocks take 3 distinct values, each kept once
    hits = butterfly._lattice.cache_info().hits
    for t_ in points[::35]:
        butterfly.assemble_fixed_point(t_)
    info = butterfly._lattice.cache_info()
    assert info.misses == len(keys) and info.hits == hits + 24 * d.n_blue


def test_tangent_plan_is_built_once_per_color_sequence():
    points = [t_ for d in sweep_diagrams() for t_ in tie.enumerate_tie_diagrams(d)]
    points += tie.enumerate_tie_diagrams(brane.parse(FLAG))
    colors = {t_.base.colors for t_ in points}
    assert len(colors) == 98 + 1 <= tangent.PLAN_CACHE_SIZE
    tangent._plan.cache_clear()
    for t_ in points:
        tangent.tangent_character(t_, "D")
    info = tangent._plan.cache_info()
    assert info.misses == len(colors) and info.hits == len(points) - len(colors)


def test_corrupted_fibers_are_rejected(monkeypatch):
    # at the first T*P^1 point each of X2, X3, X4 carries one vertex (U1, 0);
    # dropping it over X3 leaves a negative multiplicity, over X4 a weight h,
    # and dropping a vertex (U1, 2) that X1 lacks leaves -2*h and 3*h.  The
    # messages, with their weights of zero A-part, were recorded before
    # weights became (i, j, m) keys.  The corruption goes into the lattice
    # columns of U1 that the blocks read; the blocks are memoized on the
    # cached plan, so it is dropped around every case.
    t_ = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    u1 = t_.base.blue_positions()[0]
    columns = tangent._columns
    cases = (
        (3, 0, errors.NonEffective, "-1*(0) + -t1+t2+h"),
        (4, 0, errors.BadWeightForm, "h"),
        (1, 2, errors.NonEffective,
         "-1*(-2*h) + -1*(0) + t1-t2 + -t1+t2+h + -1*(h) + -1*(3*h)"),
    )
    try:
        for j, height, error, message in cases:

            def corrupted(colors, J, cc, j=j, height=height):
                out = columns(colors, J, cc)
                if J == u1:
                    column = out.setdefault(j, {})
                    column[height] = column.get(height, 0) - 1
                return out

            tangent._plan.cache_clear()
            monkeypatch.setattr(tangent, "_columns", corrupted)
            with pytest.raises(error) as exc:
                tangent.tangent_character(t_, "D1")
            assert str(exc.value) == message
    finally:
        tangent._plan.cache_clear()


def test_the_operator_table_is_the_one_source(monkeypatch):
    # the plan reads M off butterfly._OPERATORS: one blue height step moved
    # down by one breaks the character at the first T*P^1 point (the red
    # operators of T*P^1 touch only zero fibers).  The table and the plans
    # built from the edited one are restored after every case.
    t_ = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    before = tangent.tangent_character(t_, "D1").char
    blue = butterfly._OPERATORS[brane.BLUE]
    assert set(blue) == {"A", "Bplus", "Bminus", "a", "b"}
    try:
        for key, (cod, dom, step, entry) in list(blue.items()):
            monkeypatch.setitem(blue, key, (cod, dom, step - 1, entry))
            tangent._plan.cache_clear()
            with pytest.raises(errors.NonEffective) as exc:
                tangent.tangent_character(t_, "D1")
            if key == "A":
                assert str(exc.value) == "-2*(0) + t1-t2 + -t1+t2+h + 2*(h)"
            monkeypatch.undo()
    finally:
        monkeypatch.undo()
        tangent._plan.cache_clear()
    assert tangent.tangent_character(t_, "D1").char == before


def test_asymmetric_character_is_rejected(monkeypatch):
    # A fiber corruption that breaks the symmetry appears always to leave a
    # weight of zero A-part, which the weight-form check rejects first, so
    # add a stray weight t1 - t2 to the accumulated terms instead.
    t_ = tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))[0]
    terms = tangent._terms

    def terms_with_stray_weight(t_):
        acc = terms(t_)
        acc[1, 2, 0] = acc.get((1, 2, 0), 0) + 1
        return acc

    monkeypatch.setattr(tangent, "_terms", terms_with_stray_weight)
    with pytest.raises(errors.BrokenSymplecticInvolution) as exc:
        tangent.tangent_character(t_, "D1")
    assert str(exc.value) == "2*(t1-t2) + -t1+t2+h"


def reference_multiplicities(t_):
    """The (i, j, m) multiplicities of the tangent character by the
    term-by-term bookkeeping: one Hom product per term of the formula in
    :func:`tangent.tangent_character` (78 products per flag point)."""
    d = t_.base
    fibers = fiber_weights(t_)
    acc = Counter()

    def hom(src, tgt, m, sign):
        for (a, ma), na in src.items():
            for (b, mb), nb in tgt.items():
                key = (b, a, mb - ma + m) if a != b else (0, 0, mb - ma + m)
                acc[key] += sign * na * nb

    for u, p in enumerate(d.blue_positions(), start=1):
        wm, wp = fibers[p], fibers[p + 1]
        tu = {(u, 0): 1}
        hom(wp, wm, 0, 1)
        hom(wm, wm, 1, 1)
        hom(wp, wp, 1, 1)
        hom(tu, wm, 0, 1)
        hom(wp, tu, 1, 1)
        hom(wp, wm, 1, -1)
    for q in d.red_positions():
        wm, wp = fibers[q], fibers[q + 1]
        hom(wp, wm, 1, 1)
        hom(wm, wp, 0, 1)
    for w_ in fibers.values():
        hom(w_, w_, 0, -1)
        hom(w_, w_, 1, -1)
    return {key: mult for key, mult in acc.items() if mult}


def test_merged_bookkeeping_matches_term_by_term_reference():
    # the butterfly-pair blocks against one product per term of the formula,
    # from a cold plan, so every block is computed here
    points = [t_ for d in sweep_diagrams() for t_ in tie.enumerate_tie_diagrams(d)]
    flag = tie.enumerate_tie_diagrams(brane.parse(FLAG))
    assert len(points) == 1610 and len(flag) == 840
    tangent._plan.cache_clear()
    for t_ in points + flag:
        got = tangent.tangent_character(t_, "D").char.terms
        assert got == reference_multiplicities(t_), t_


def test_chamber_split_partitions():
    d = brane.parse(EXAMPLE_3BLUE)
    for k, t_ in enumerate(tie.enumerate_tie_diagrams(d), start=1):
        tc = tangent.tangent_character(t_, f"D{k}")
        for pi in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
            split = tangent.chamber_split(tc, pi)
            assert Counter(split.plus.terms) + Counter(split.minus.terms) == tc.char.terms
            # symplectic involution exchanges the two halves
            assert split.plus.total() == split.minus.total() == 2
            assert involution_image(split.plus) == split.minus


def test_chamber_split_golden():
    points = by_tie_sets(TSTAR_P1)
    tc = points[frozenset({("V2", "U1"), ("U1", "V1")})]
    split = tangent.chamber_split(tc, (1, 2))
    assert weight_set(split.plus) == {w(1, 2)}
    assert weight_set(split.minus) == {w(2, 1, 1)}
    flipped = tangent.chamber_split(tc, (2, 1))
    assert weight_set(flipped.plus) == {w(2, 1, 1)}


def test_chamber_split_rejects_degenerate_weights():
    tc = tangent.TangentCharacter("X", algebra.Character(2, {(0, 0, 1): 1}))
    with pytest.raises(errors.DegenerateWeight):
        tangent.chamber_split(tc, (1, 2))


def test_euler_class():
    char = algebra.Character(2, {(1, 2, 0): 1, (2, 1, 1): 1})
    e = tangent.euler_class(char)
    assert e.expand() == algebra.poly_parse("(t1-t2)*(t2-t1+h)", 2)


def test_tangent_to_json():
    d = brane.parse(TSTAR_P1)
    t_ = tie.enumerate_tie_diagrams(d)[0]
    blob = tangent.tangent_character(t_, "D1").to_json()
    assert blob["point"] == "D1"
    assert sorted(
        (tuple(w["a"]), w["m"], w["mult"]) for w in blob["weights"]
    ) == sorted([((1, -1), 0, 1), ((-1, 1), 1, 1)])


def test_memoized_outputs_match_unmemoized_references():
    # every output that the weight, term and expansion memos and the name
    # table format, against unmemoized references: from cold memos, then
    # again from warm ones, in the two extreme chambers by turns.  Expansion
    # runs on the sweep only: a flag Euler class is a product of 18 forms in
    # 9 variables
    points = [t_ for d in sweep_diagrams() for t_ in tie.enumerate_tie_diagrams(d)]
    flag = tie.enumerate_tie_diagrams(brane.parse(FLAG))
    assert len(points) == 1610 and len(flag) == 840
    for memo in (algebra.render_weight, algebra._term_text, algebra._expand):
        memo.cache_clear()
    for _ in range(2):
        for k, t_ in enumerate(points + flag):
            assert t_.to_json() == reference_tie_json(t_)
            tc = tangent.tangent_character(t_, "D")
            assert tc.char.render() == reference_render_character(tc.char)
            n = tc.char.nvars
            split = tangent.chamber_split(tc, range(1, n + 1) if k % 2 else range(n, 0, -1))
            for half in (split.plus, split.minus):
                assert half.render() == reference_render_character(half)
            e = tangent.euler_class(split.minus)
            assert e.render() == reference_render_factored(e)
            if k < len(points):
                expanded = reference_expand(e)
                assert e.expand() == expanded
                assert e.expand().render() == expanded.render() == e.expand().render()
    assert algebra._term_text.cache_info().hits > algebra._term_text.cache_info().misses
