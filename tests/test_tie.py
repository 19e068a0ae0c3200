"""Tie diagrams: validity, enumeration, Hanany-Witten matching."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowvariety import algebra, brane, errors, tie
from conftest import (
    EXAMPLE_3BLUE,
    FLAG,
    POINT_DIAGRAM,
    TSTAR_P1,
    admissible_diagrams,
    random_admissible_diagrams,
    sweep_diagrams,
)


def test_enumeration_counts_golden():
    assert len(tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE))) == 5
    assert len(tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))) == 2
    assert len(tie.enumerate_tie_diagrams(brane.parse(POINT_DIAGRAM))) == 1


def test_enumeration_three_blue_tie_sets():
    d = brane.parse(EXAMPLE_3BLUE)
    got = {frozenset(map(tuple, t.named_ties())) for t in tie.enumerate_tie_diagrams(d)}
    expected = {
        frozenset({("V3", "U1"), ("V2", "U2"), ("U1", "V1"), ("U2", "V1")}),
        frozenset({("V3", "U1"), ("V2", "U3"), ("U1", "V1"), ("U3", "V1")}),
        frozenset(
            {
                ("V3", "U1"),
                ("U1", "V2"),
                ("V2", "U2"),
                ("V2", "U3"),
                ("U2", "V1"),
                ("U3", "V1"),
            }
        ),
        frozenset({("V3", "U2"), ("V2", "U3"), ("U2", "V1"), ("U3", "V1")}),
        frozenset({("V3", "U3"), ("V2", "U2"), ("U2", "V1"), ("U3", "V1")}),
    }
    assert got == expected


def test_enumeration_is_lexicographically_sorted():
    for d in admissible_diagrams(5, 2):
        points = tie.enumerate_tie_diagrams(d)
        keys = [t.sorted_ties() for t in points]
        assert keys == sorted(keys)
        assert len(set(map(tuple, keys))) == len(keys)


def reference_enumerate(d):
    """The enumeration as it was before its counts were kept per black line
    and updated in place: a table of the candidates left per index, every
    black line rechecked at every node, and a final sort."""
    n_black = len(d.blacks)
    candidates = [
        (l, r)
        for l in range(1, d.n_colored + 1)
        for r in range(l + 1, d.n_colored + 1)
        if d.color_at(l) != d.color_at(r)
    ]
    n_cand = len(candidates)
    # remaining[i][j] = how many candidates with index >= i cover black X_j
    remaining = [[0] * (n_black + 1)]
    for l, r in reversed(candidates):
        row = list(remaining[-1])
        for j in range(l + 1, r + 1):
            row[j - 1] += 1
        remaining.append(row)
    remaining.reverse()
    need = list(d.blacks)
    found = []
    chosen = []

    def feasible(i):
        row = remaining[i]
        return all(0 <= need[j] <= row[j] for j in range(n_black))

    def rec(i):
        if not feasible(i):
            return
        if i == n_cand:
            found.append(tie.TieDiagram(d, frozenset(chosen)))
            return
        l, r = candidates[i]
        chosen.append((l, r))
        for j in range(l, r):
            need[j] -= 1
        rec(i + 1)
        chosen.pop()
        for j in range(l, r):
            need[j] += 1
        rec(i + 1)

    rec(0)
    found.sort(key=lambda t: t.sorted_ties())
    return found


def test_enumeration_matches_reference_in_order():
    # same tie diagrams in the same order, so the same D<k> ids
    diagrams = [*sweep_diagrams(), brane.parse(FLAG), *admissible_diagrams(6, 3)]
    points = 0
    for d in diagrams:
        got = tie.enumerate_tie_diagrams(d)
        assert got == reference_enumerate(d), d
        points += len(got)
    assert points == 1610 + 840 + 13978


def capacities(colors):
    """How many red/blue pairs (l, r) cover each black line X_{j+1}: those
    with l <= j < r."""
    n = len(colors)
    return [
        sum(colors[l - 1] != colors[r - 1] for l in range(1, j + 1) for r in range(j + 1, n + 1))
        for j in range(n + 1)
    ]


R, B = brane.RED, brane.BLUE


@st.composite
def labels_near_capacity(draw):
    """Colors, one color alone included, and black labels each at its line's
    capacity, one past it, or below it: the packed kernel's edge cases."""
    colors = draw(st.lists(st.sampled_from((R, B)), min_size=1, max_size=7))
    inner = [
        draw(st.sampled_from((cap, cap + 1)) | st.integers(0, cap))
        for cap in capacities(colors)[1:-1]
    ]
    return tuple(colors), (0, *inner, 0)


@settings(max_examples=300, deadline=None)
@given(labels_near_capacity())
@example(((R, B, B, B), (0, 3, 2, 1, 0)))  # every label at capacity; X2's 3 = 0b11 fills its field
@example(((R, B, B, B), (0, 4, 2, 1, 0)))  # one past the capacity of X2
@example(((R,) + (B,) * 7, (0, 7, 6, 5, 4, 3, 2, 1, 0)))  # 7 = 0b111 ties over X2
@example(((R, R, B, B), (0, 2, 4, 2, 0)))  # capacity 4 = 0b100 over X3
@example(((B, B, R), (0, 1, 2, 0)))
def test_packed_enumeration_matches_reference_near_capacity(case):
    colors, blacks = case
    d = brane.BraneDiagram(blacks, colors)
    _candidates, _spans, capacity, width, _left, _guard = tie._plan(colors)
    assert list(capacity) == capacities(colors)
    assert max(capacity).bit_length() == width - 1  # every capacity fits below its guard bit
    got = tie.enumerate_tie_diagrams(d)
    assert got == reference_enumerate(d)
    if any(x > c for x, c in zip(blacks, capacity)):
        assert got == []


def test_one_color_has_no_candidates():
    for colors in ((R,), (B, B), (R, R, R)):
        assert tie._plan(colors)[0] == ()
        (empty,) = tie.enumerate_tie_diagrams(brane.BraneDiagram((0,) * (len(colors) + 1), colors))
        assert empty.ties == frozenset()
    assert tie.enumerate_tie_diagrams(brane.parse("0/1/0")) == []
    assert tie.enumerate_tie_diagrams(brane.parse("0\\2\\1\\0")) == []


def test_a_label_past_every_capacity_returns_before_it_is_packed():
    # the longest label a diagram holds, MAX_DIGITS digits, is past the
    # capacity of any line; it returns [] without becoming a field
    largest = 10**algebra.MAX_DIGITS - 1
    for dsl in (f"0/{largest}\\0", f"0/1/{largest}\\2\\1\\0", f"0/{largest}\\{largest}/0"):
        d = brane.parse(dsl)
        start = time.perf_counter()
        assert tie.enumerate_tie_diagrams(d) == []
        assert time.perf_counter() - start < 0.1
        assert reference_enumerate(d) == []


def test_plan_is_built_once_per_run_of_equal_colors():
    # the criterion-3 diagrams in the order a sweep pass meets them, repeats
    # included: 6,906 diagrams, 220 color sequences in 371 runs of equal colors
    diagrams = list(
        itertools.chain(
            admissible_diagrams(5, 3),
            random_admissible_diagrams(seed=7, trials=400, min_colored=5, max_colored=8, max_label=3),
        )
    )
    runs = [colors for colors, _run in itertools.groupby(d.colors for d in diagrams)]
    assert (len(diagrams), len(set(runs)), len(runs)) == (6906, 220, 371)
    tie._plan.cache_clear()
    colors = None
    for d in diagrams:
        misses = tie._plan.cache_info().misses
        tie.enumerate_tie_diagrams(d)
        if d.colors == colors:  # a run reuses the plan its first diagram built
            assert tie._plan.cache_info().misses == misses
        colors = d.colors
    # the bound and the count its comment states: sequences that recur
    # within 32 others are not rebuilt
    assert tie.PLAN_CACHE_SIZE == 32
    assert tie._plan.cache_info().misses == 312


def test_every_enumerated_diagram_is_valid():
    for d in admissible_diagrams(5, 2):
        for t in tie.enumerate_tie_diagrams(d):
            assert tie.is_valid(t).ok


def test_is_valid_reports_cover_count_violations():
    d = brane.parse(TSTAR_P1)
    report = tie.is_valid(tie.TieDiagram(d, frozenset()))
    assert not report.ok
    assert any("X2" in v for v in report.messages)
    assert any("X3" in v for v in report.messages)


def test_is_valid_reports_same_color_ties():
    d = brane.parse(EXAMPLE_3BLUE)
    report = tie.is_valid(tie.TieDiagram(d, frozenset({(2, 4)})))
    assert not report.ok
    assert any("two blue" in v for v in report.messages)


def test_ties_outside_the_colored_lines_are_refused():
    # a tie (l, r) needs 1 <= l < r <= n: positions 0 and 5 name no line of
    # T*P^1, and (2, 1) runs right to left; (1, 4), its two ends, is built,
    # and is_valid reports that it joins two red lines
    d = brane.parse(TSTAR_P1)
    for bad in ((0, 2), (2, 1), (2, 2), (1, 5)):
        with pytest.raises(errors.UnknownLine) as exc:
            tie.TieDiagram(d, {bad})
        assert str(exc.value) == f"tie {bad} is not (l, r) with 1 <= l < r <= 4"
    report = tie.is_valid(tie.TieDiagram(d, {(1, 4)}))
    assert any("joins two red" in v for v in report.messages)


def test_from_names_round_trip():
    d = brane.parse(EXAMPLE_3BLUE)
    for t in tie.enumerate_tie_diagrams(d):
        assert tie.from_names(d, t.named_ties()).ties == t.ties
    with pytest.raises(ValueError):
        tie.from_names(d, [["V1", "U1"]])  # V1 is right of U1


def test_cover_count():
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    assert t.sorted_ties() == [(1, 2)]
    assert [t.cover_count(j) for j in (1, 2, 3)] == [0, 1, 0]


def test_hw_match_golden():
    # moving the blue line of 0\1/0 across the red kills its tie
    d = brane.parse(POINT_DIAGRAM)
    (t,) = tie.enumerate_tie_diagrams(d)
    moved = tie.hw_match(t, 1)
    assert brane.render(moved.base) == "0/0\\0"
    assert moved.ties == frozenset()


def test_hw_match_is_a_bijection_of_fixed_points():
    for d in admissible_diagrams(5, 2):
        points = tie.enumerate_tie_diagrams(d)
        for k in range(1, d.n_colored):
            if d.color_at(k) == d.color_at(k + 1):
                continue
            try:
                moved_base = brane.hw_transition(d, k)
            except errors.NegativeLabel:
                continue
            images = [tie.hw_match(t, k) for t in points]
            assert all(im.base == moved_base for im in images)
            assert len({im.ties for im in images}) == len(points)
            assert len(tie.enumerate_tie_diagrams(moved_base)) == len(points)
            # involution
            for t, im in zip(points, images):
                assert tie.hw_match(im, k).ties == t.ties


def test_hw_match_rejects_illegal_moves():
    d = brane.parse(TSTAR_P1)
    (t, _) = tie.enumerate_tie_diagrams(d)
    with pytest.raises(errors.IllegalMove):
        tie.hw_match(t, 2)  # both positions blue


def test_render_ascii_smoke():
    d = brane.parse(EXAMPLE_3BLUE)
    t = tie.enumerate_tie_diagrams(d)[0]
    art = tie.render_ascii(t)
    assert EXAMPLE_3BLUE in art
    assert "+" in art and "-" in art


def test_json_round_trip():
    d = brane.parse(EXAMPLE_3BLUE)
    for t in tie.enumerate_tie_diagrams(d):
        # the named ties read back the way attraction data is loaded
        blob = t.to_json()
        assert tie.from_names(brane.parse(blob["diagram"]), blob["ties"]).ties == t.ties
