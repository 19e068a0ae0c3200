"""Acceptance gate: the eight end-to-end criteria of the toolkit.

1. Fixed-point enumeration counts on the three reference diagrams.
2. Golden cover counts and column bottoms of a large butterfly.
3. Verification sweep: every fixed point of every sampled admissible diagram
   passes all six checks (exhaustive for small diagrams, seeded random
   sampling up to nine black lines).
4. Tangent characters: the reference four-weight table, dimension four, and
   the structural invariants across the sweep.
5. Covariance of fixed points and tangent characters under Hanany-Witten
   moves.
6. The envelope recursion on the three-blue fixture: coefficients, a golden
   restriction, integrality, order-refinement independence.
7. Orthogonality: the paired T*P^1 and T*P^2 fixtures give the identity
   gram matrix and polynomial pairings.
8. Order duality: the two chambers' restriction supports are exact reverses.
"""

import time

from bowvariety import algebra, brane, butterfly, envelope, errors, tangent, tie
from conftest import (
    EXAMPLE_3BLUE,
    FIXTURES,
    POINT_DIAGRAM,
    TSTAR_P1,
    admissible_diagrams,
    hw_twist,
    sweep_diagrams,
)


def test_criterion_1_enumeration_counts():
    start = time.monotonic()
    assert len(tie.enumerate_tie_diagrams(brane.parse(EXAMPLE_3BLUE))) == 5
    assert len(tie.enumerate_tie_diagrams(brane.parse(TSTAR_P1))) == 2
    assert len(tie.enumerate_tie_diagrams(brane.parse(POINT_DIAGRAM))) == 1
    assert time.monotonic() - start < 1.0


def test_criterion_2_butterfly_golden_tables():
    d = brane.parse("0/1/2/3\\3/5\\4/2\\2/0")
    t = tie.TieDiagram(
        d,
        frozenset(
            [(2, 6), (3, 4), (1, 6), (5, 6), (5, 8), (4, 7), (6, 7), (6, 9), (8, 9)]
        ),
    )
    assert tie.is_valid(t).ok
    bf = butterfly.build_butterfly(t, "U2")
    assert bf.cover_counts == (0, 1, 2, 2, 2, 3, 2, 1, 1, 0)
    cb = bf.column_bottoms
    assert tuple(cb[j - 1] for j in range(2, 10)) == (-1, -1, 0, 0, 0, 0, 1, 1)


def test_criterion_3_verification_sweep():
    start = time.monotonic()
    verified = 0
    for d in sweep_diagrams():
        for t in tie.enumerate_tie_diagrams(d):
            f = butterfly.assemble_fixed_point(t)
            report = butterfly.verify_fixed_point(f)
            assert report.ok, f"{brane.render(d)} {t.sorted_ties()}:\n{report.render()}"
            verified += 1
    assert verified > 1500
    assert time.monotonic() - start < 300


def _w(i, j, m=0):
    """The weight t_i - t_j + m*h."""
    return (i, j, m)


def test_criterion_4_tangent_characters():
    # the five reference multisets, keyed by tie set
    expected = {
        frozenset({("V3", "U1"), ("V2", "U2"), ("U1", "V1"), ("U2", "V1")}): {
            _w(3, 1, 1),
            _w(3, 2, 1),
            _w(1, 3),
            _w(2, 3),
        },
        frozenset({("V3", "U1"), ("V2", "U3"), ("U1", "V1"), ("U3", "V1")}): {
            _w(2, 1, 1),
            _w(2, 3, 1),
            _w(1, 2),
            _w(3, 2),
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
        ): {_w(2, 1), _w(3, 1), _w(1, 2, 1), _w(1, 3, 1)},
        frozenset({("V3", "U2"), ("V2", "U3"), ("U2", "V1"), ("U3", "V1")}): {
            _w(2, 1, -1),
            _w(1, 2, 2),
            _w(2, 3),
            _w(3, 2, 1),
        },
        frozenset({("V3", "U3"), ("V2", "U2"), ("U2", "V1"), ("U3", "V1")}): {
            _w(3, 1, -1),
            _w(1, 3, 2),
            _w(3, 2),
            _w(2, 3, 1),
        },
    }
    d = brane.parse(EXAMPLE_3BLUE)
    points = tie.enumerate_tie_diagrams(d)
    assert len(points) == 5
    for k, t in enumerate(points, start=1):
        tc = tangent.tangent_character(t, f"D{k}")
        key = frozenset(map(tuple, t.named_ties()))
        assert set(tc.char.weights()) == expected[key]
        assert len(tc.char.weights()) == tc.char.total() == 4

    # structural invariants on a sweep (tangent_character raises on failure)
    for d in sweep_diagrams():
        points = tie.enumerate_tie_diagrams(d)
        dims = set()
        for k, t in enumerate(points, start=1):
            tc = tangent.tangent_character(t, f"D{k}")
            dims.add(tc.char.total())
        assert len(dims) <= 1


def test_criterion_5_hanany_witten_covariance():
    for d in admissible_diagrams(5, 3):
        points = tie.enumerate_tie_diagrams(d)
        if not points:
            continue
        for k in range(1, d.n_colored):
            if d.color_at(k) == d.color_at(k + 1):
                continue
            try:
                moved_base = brane.hw_transition(d, k)
            except errors.NegativeLabel:
                continue
            # the moved blue line keeps its left-to-right index; moving it
            # rightwards twists t_u by +h, moving it leftwards by -h
            if d.color_at(k) == brane.BLUE:
                u = d.blue_positions().index(k) + 1
                dm = 1
            else:
                u = d.blue_positions().index(k + 1) + 1
                dm = -1
            images = [tie.hw_match(t, k) for t in points]
            assert len(tie.enumerate_tie_diagrams(moved_base)) == len(points)
            assert len({im.ties for im in images}) == len(points)
            for t, im in zip(points, images):
                before = tangent.tangent_character(t, "x").char
                after = tangent.tangent_character(im, "x").char
                assert hw_twist(after, u, dm) == before


def test_criterion_6_envelope_recursion():
    data = envelope.load_attraction_data(FIXTURES / "example54_chamber321.json")
    stabs = {s.point: s for s in envelope.stable_envelopes(data)}

    def coeffs(p):
        return {q: c for q, c in stabs[p].coeffs.items() if c}

    assert coeffs("D1") == {"D1": 1}
    assert coeffs("D2") == {"D2": 1, "D1": 1}
    assert coeffs("D3") == {"D3": 1, "D2": 1}
    assert coeffs("D4") == {"D4": 1, "D3": 1, "D2": 1, "D1": 1}
    assert coeffs("D5") == {"D5": 1, "D4": 1, "D2": -1}
    assert stabs["D3"].restrictions["D1"] == algebra.poly_parse("h*(t3-t2+h)", 3)

    # integrality: stable_envelopes raises IntegralityFailure otherwise, and
    # the axioms are re-verified on every class; refinement independence:
    base = [coeffs(p) for p in data.order]
    for i in range(len(data.order) - 1):
        p, q = data.order[i], data.order[i + 1]
        if not data.restrictions[q][p].is_zero():
            continue
        swapped = list(data.order)
        swapped[i], swapped[i + 1] = q, p
        redone = envelope.stable_envelopes(data, swapped)
        assert [
            {r: c for r, c in s.coeffs.items() if c} for s in redone
        ] == base


def test_criterion_7_orthogonality():
    # T*P^1, and T*P^2, where several linear factors cancel at each point
    for name, op_name in (
        ("tstar_p1_chamber12.json", "tstar_p1_chamber21.json"),
        ("tstar_p2_chamber123.json", "tstar_p2_chamber321.json"),
    ):
        data = envelope.load_attraction_data(FIXTURES / name)
        op_data = envelope.load_attraction_data(FIXTURES / op_name)
        stabs = envelope.stable_envelopes(data)
        op_stabs = envelope.stable_envelopes(op_data)
        gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
        assert len(gram) == len(data.order)
        for i, row in enumerate(gram):
            for j, entry in enumerate(row):
                assert entry == (1 if i == j else 0), (name, i, j)
        report = envelope.check_polynomiality(stabs, op_stabs, data, op_data)
        assert report.ok, report.messages


def test_criterion_8_order_duality():
    data = envelope.load_attraction_data(FIXTURES / "tstar_p1_chamber12.json")
    op_data = envelope.load_attraction_data(FIXTURES / "tstar_p1_chamber21.json")
    report = envelope.opposite_order_check(data, op_data)
    assert report.ok, report.messages

    # on the three-blue fixture the support order refines D1 < ... < D5
    big = envelope.load_attraction_data(FIXTURES / "example54_chamber321.json")
    for p in big.order:
        for q in big.order:
            if p != q and not big.restrictions[p][q].is_zero():
                assert big.rank(q) < big.rank(p)
