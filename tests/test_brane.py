"""Brane diagram DSL, admissibility, Hanany-Witten moves."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowvariety import brane, errors, tie
from bowvariety.algebra import MAX_DIGITS
from conftest import (
    EXAMPLE_3BLUE,
    FLAG,
    TSTAR_P1,
    admissible_diagrams,
    diagram_strings,
    sweep_diagrams,
)

LARGEST = "9" * MAX_DIGITS  # the longest label Python writes as text


def test_parse_render_round_trip():
    for s in (EXAMPLE_3BLUE, TSTAR_P1, "0\\1/0", "0/1/2/3\\3/5\\4/2\\2/0", f"0/{LARGEST}\\0"):
        assert brane.render(brane.parse(s)) == s


def test_parse_aliases():
    assert brane.parse("0r1b1b1r0") == brane.parse(TSTAR_P1)


def test_parse_counts_and_positions():
    d = brane.parse(EXAMPLE_3BLUE)
    assert d.blacks == (0, 1, 1, 2, 2, 2, 0)
    assert d.n_red == 3
    assert d.n_blue == 3
    # reds are numbered right-to-left, blues left-to-right
    assert d.red_positions() == [6, 3, 1]
    assert d.blue_positions() == [2, 4, 5]
    assert d.line_name(1) == "V3"
    assert d.line_name(6) == "V1"
    assert d.line_name(2) == "U1"
    assert d.position_of("U2") == 4
    assert d.position_of("V3") == 1
    # only U<k> and V<k> with ASCII digits name lines
    for name in ("X2", "u2", "U", "U0", "U4", "V4", "U²", "V-1", "UU1"):
        with pytest.raises(errors.UnknownLine, match="is not a colored line"):
            d.position_of(name)
    # a number past Python's int-to-text limit is refused by its length, and a
    # long run of leading zeros is read like any other
    for name in ("U" + "1" * 5000, "V" + "1" * (MAX_DIGITS + 1)):
        with pytest.raises(errors.UnknownLine, match="is not a colored line"):
            d.position_of(name)
    assert d.position_of("U" + "0" * (MAX_DIGITS - 1) + "2") == 4
    # an index or any other non-string is refused as a name, not with a TypeError
    for name in (2, None, b"U2", ("U2",)):
        with pytest.raises(errors.UnknownLine, match="is not a colored line name"):
            d.position_of(name)


def test_tables_match_list_index_computation():
    # the tables against the list scans they replace, at every position
    for d in admissible_diagrams(5, 3):
        blue = [k + 1 for k in range(d.n_colored) if d.colors[k] == brane.BLUE]
        red = [k + 1 for k in reversed(range(d.n_colored)) if d.colors[k] == brane.RED]
        assert d.blue_positions() == blue
        assert d.red_positions() == red
        for pos in range(1, d.n_colored + 1):
            if d.color_at(pos) == brane.BLUE:
                name = f"U{blue.index(pos) + 1}"
            else:
                name = f"V{red.index(pos) + 1}"
            assert d.line_name(pos) == name
            assert d.position_of(name) == pos
        dsl = str(d.blacks[0]) + "".join(
            ("/" if c == brane.RED else "\\") + str(x) for c, x in zip(d.colors, d.blacks[1:])
        )
        assert brane.render(d) == dsl


def test_positions_out_of_range_are_unknown_lines():
    # position 0 read the last line, and line_name(0) raised a bare ValueError
    d = brane.parse(EXAMPLE_3BLUE)
    for pos in (0, -1, 7, 100):
        for method in (d.color_at, d.line_name):
            with pytest.raises(
                errors.UnknownLine,
                match=rf"^{pos} is not a colored position of 0/1\\1/2\\2\\2/0 \(1..6\)$",
            ):
                method(pos)


def test_tables_are_built_once_per_diagram(monkeypatch):
    built = []
    build = brane._build_tables

    def counting(d):
        built.append(d)
        return build(d)

    monkeypatch.setattr(brane, "_build_tables", counting)
    d = brane.parse(FLAG)
    points = tie.enumerate_tie_diagrams(d)
    for t in points:
        t.to_json()
    for _ in range(3):
        d.blue_positions(), d.red_positions(), brane.render(d), d.position_of("U7")
    assert len(built) == 1 and built[0] is d
    # the tables are not fields: equality and hashing ignore them
    fresh = brane.BraneDiagram(d.blacks, d.colors)
    assert "_tables" not in vars(fresh)
    assert fresh == d and hash(fresh) == hash(d)
    assert len(built) == 1


def test_parse_errors():
    with pytest.raises(errors.SyntaxError):
        brane.parse("0//0")
    with pytest.raises(errors.SyntaxError):
        brane.parse("0/1x1/0")
    with pytest.raises(errors.SyntaxError):
        brane.parse("3")
    with pytest.raises(errors.BoundaryNotZero):
        brane.parse("1/0")
    with pytest.raises(errors.NegativeLabel):
        brane.BraneDiagram((0, -1, 0), (brane.RED, brane.BLUE))
    # every diagram renders: a label past Python's int-to-text limit is
    # refused whether it is read or given (LARGEST, of MAX_DIGITS digits, renders)
    with pytest.raises(errors.SyntaxError, match=f"more than {MAX_DIGITS} digits .at position 2"):
        brane.parse(f"0/9{LARGEST}\\0")
    with pytest.raises(errors.LabelLimit):
        brane.BraneDiagram((0, 10**MAX_DIGITS, 0), (brane.RED, brane.BLUE))


def test_admissible():
    assert brane.admissible(brane.parse(EXAMPLE_3BLUE))
    # 2 > 0 + 0 + 1 at the mixed junction
    assert not brane.admissible(brane.parse("0/2\\0"))
    # same-colored junctions are unconstrained
    assert brane.admissible(brane.parse("0/5/0\\0"))


def test_sdeg_and_separated():
    assert brane.sdeg(brane.parse("0/1\\0")) == 0
    assert brane.separated(brane.parse("0/1\\0"))
    assert brane.sdeg(brane.parse("0\\1/0")) == 1
    # U1 sits left of V2 and V1, U2 and U3 each sit left of V1
    assert brane.sdeg(brane.parse(EXAMPLE_3BLUE)) == 4
    assert not brane.separated(brane.parse(EXAMPLE_3BLUE))


def test_hw_transition_golden():
    d = brane.parse(TSTAR_P1)
    moved = brane.hw_transition(d, 3)
    assert brane.render(moved) == "0/1\\1/1\\0"


def test_hw_transition_label_rule():
    # a + b + 1 - d with flanking labels a, b
    d = brane.parse("0\\2/1/0")
    moved = brane.hw_transition(d, 1)
    assert moved.blacks == (0, 0 + 1 + 1 - 2, 1, 0)
    assert brane.render(moved) == "0/0\\1/0"


def test_hw_transition_is_an_involution():
    d = brane.parse(TSTAR_P1)
    assert brane.hw_transition(brane.hw_transition(d, 3), 3) == d


def test_hw_transition_errors():
    d = brane.parse(TSTAR_P1)
    with pytest.raises(errors.NotAdjacentOppositePair):
        brane.hw_transition(d, 2)  # both blue
    with pytest.raises(errors.NotAdjacentOppositePair):
        brane.hw_transition(d, 0)
    with pytest.raises(errors.NegativeLabel):
        brane.hw_transition(brane.parse("0/2\\0"), 1)
    with pytest.raises(errors.LabelLimit):  # the label between becomes 2 * LARGEST + 1
        brane.hw_transition(brane.parse(f"0/{LARGEST}\\0/{LARGEST}\\0"), 2)


def test_separate_terminates_in_sdeg_moves():
    d = brane.parse(EXAMPLE_3BLUE)
    sep, moves = brane.separate(d)
    assert brane.separated(sep)
    assert len(moves) == brane.sdeg(d)
    # separation preserves both color multisets
    assert sep.colors.count(brane.RED) == d.n_red
    assert sep.colors.count(brane.BLUE) == d.n_blue


def test_separate_reports_empty_varieties():
    # on the criterion-3 sweep, a move that would make a label negative
    # happens only on diagrams without tie diagrams; every other diagram
    # separates in sdeg(d) moves
    empty = 0
    for d in sweep_diagrams():
        try:
            sep, moves = brane.separate(d)
        except errors.EmptyVariety as exc:
            assert str(exc).startswith(f"the variety of {brane.render(d)} is empty")
            assert not tie.enumerate_tie_diagrams(d)
            empty += 1
        else:
            assert brane.separated(sep) and len(moves) == brane.sdeg(d)
    assert empty == 139


def test_separate_fixes_separated_diagrams():
    d = brane.parse("0/1\\0")
    sep, moves = brane.separate(d)
    assert sep == d and moves == []


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(diagram_strings(5, 3))))
def test_round_trip_and_involution_everywhere(s):
    d = brane.parse(s)
    assert brane.render(d) == s
    for k in range(1, d.n_colored):
        if d.color_at(k) == d.color_at(k + 1):
            continue
        try:
            moved = brane.hw_transition(d, k)
        except errors.NegativeLabel:
            continue
        assert brane.hw_transition(moved, k) == d
        if d.color_at(k) == brane.BLUE:
            assert brane.sdeg(moved) == brane.sdeg(d) - 1
        else:
            assert brane.sdeg(moved) == brane.sdeg(d) + 1
