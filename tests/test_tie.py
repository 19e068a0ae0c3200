"""Tie diagrams: validity, enumeration, Hanany-Witten matching."""

import pytest

from bowvariety import brane, errors, tie
from conftest import (
    EXAMPLE_3BLUE,
    FLAG,
    POINT_DIAGRAM,
    TSTAR_P1,
    admissible_diagrams,
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
