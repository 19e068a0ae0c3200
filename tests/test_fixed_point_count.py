"""An independent count of the fixed points of a bow variety.

Hanany-Witten moves biject fixed points (``tie.hw_match``), so a diagram has
as many tie diagrams as its separated diagram, all of whose red lines lie
left of its blue lines.  There every tie joins a red line to a blue one, and
a tie diagram is a 0/1 matrix, red lines by blue lines, whose row sums are
the label jumps across the red lines and whose column sums are the label
drops across the blue lines: a binary contingency table (Rimanyi-Shou,
arXiv:2012.07814).  The count below reads only the labels of
``brane.separate(d)``, never the enumeration it checks.
"""

import functools
import itertools

from bowvariety import brane, errors, tie
from conftest import FLAG, sweep_diagrams

# 6,720 fixed points of dimension 50
BIG = "0/1/2/3/4/5\\5\\5\\5\\5\\5\\5\\5\\5/0"


def binary_tables(rows, cols):
    """The number of 0/1 matrices with row sums ``rows`` and column sums
    ``cols``: fill one row at a time, the state being the sorted column sums
    still to fill, so states that differ by a permutation of the columns
    share one memo entry."""
    if min(rows + cols, default=0) < 0 or sum(rows) != sum(cols):
        return 0

    @functools.cache
    def fill(i, need):
        if i == len(rows):
            return int(not any(need))
        total = 0
        for chosen in itertools.combinations(range(len(need)), rows[i]):
            rest = list(need)
            for c in chosen:
                rest[c] -= 1
            if min(rest, default=0) >= 0:
                total += fill(i + 1, tuple(sorted(rest)))
        return total

    return fill(0, tuple(sorted(cols)))


def fixed_point_count(d):
    """The number of tie diagrams of d, from the labels of its separated
    diagram alone; 0 when separation meets a negative label."""
    try:
        s, _moves = brane.separate(d)
    except errors.EmptyVariety:
        return 0
    b, m = s.blacks, s.n_red  # red lines at positions 1..m, blue ones after
    jumps = [b[p] - b[p - 1] for p in range(1, m + 1)]
    drops = [b[p - 1] - b[p] for p in range(m + 1, s.n_colored + 1)]
    return binary_tables(jumps, drops)


def miscounted(enumerate_fn, diagrams):
    """The diagrams whose enumeration disagrees with the independent count."""
    return [brane.render(d) for d in diagrams if len(enumerate_fn(d)) != fixed_point_count(d)]


def test_binary_tables_small_cases():
    assert binary_tables([], []) == 1
    assert binary_tables([1], [1]) == 1
    assert binary_tables([1, 1], [1, 1]) == 2  # the two permutation matrices
    assert binary_tables([2, 1], [1, 1, 1]) == 3
    assert binary_tables([3], [1, 1]) == 0  # a row longer than the columns
    assert binary_tables([1, -1], [0, 0]) == 0
    assert binary_tables([2, 2, 2], [2, 2, 2]) == 6  # complements of permutations
    assert binary_tables([1] * 4, [1] * 4) == 24


def test_enumeration_matches_the_independent_count():
    diagrams = [*sweep_diagrams(), brane.parse(FLAG), brane.parse(BIG)]
    assert miscounted(tie.enumerate_tie_diagrams, diagrams) == []
    counts = [fixed_point_count(d) for d in diagrams]
    assert (len(diagrams), sum(counts[:-2]), counts[-2:]) == (6829 + 2, 1610, [840, 6720])


def test_a_dropped_point_is_miscounted():
    diagrams = [brane.parse(s) for s in ("0\\1/0", "0/1\\1\\1/0", FLAG, "0/1/0\\0")]

    def drop_last(d):
        return tie.enumerate_tie_diagrams(d)[:-1]

    # 0/1/0\0 has no tie diagram: dropping nothing leaves its count right
    assert miscounted(drop_last, diagrams) == ["0\\1/0", "0/1\\1\\1/0", FLAG]
