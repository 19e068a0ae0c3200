"""Attraction data loading, the envelope recursion, pairing checks."""

import dataclasses
import io
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from bowvariety import algebra, cli, envelope, errors, tangent, tie
from conftest import DATA, pack, relabeled, tstar_module


def load_fixture(fixtures_dir, name):
    return envelope.load_attraction_data(fixtures_dir / name)


def fixture_dict(fixtures_dir, name):
    with open(fixtures_dir / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# loading and schema validation


def test_load_three_blue_fixture(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    assert data.order == ["D1", "D2", "D3", "D4", "D5"]
    assert data.dim == 4
    assert data.chamber == (3, 2, 1)
    assert data.nvars == 3
    # the loader fills in structural zeros
    assert data.restrictions["D1"]["D5"].is_zero()


def test_load_accepts_json_text_and_dicts(fixtures_dir, tmp_path, monkeypatch):
    # a str or a Path always names a file, whatever its first character, and
    # a dict is the data itself
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    assert envelope.load_attraction_data(raw).order == ["P2", "P1"]
    monkeypatch.chdir(tmp_path)
    for name in ("{p1}.json", "[p1].json", " {p1}.json"):
        (tmp_path / name).write_text(json.dumps(raw))
        assert envelope.load_attraction_data(name).order == ["P2", "P1"]
        assert envelope.load_attraction_data(tmp_path / name).order == ["P2", "P1"]


def test_json_text_that_is_not_an_object_is_a_schema_error(tmp_path):
    for k, text in enumerate((" [1]", "[]", '\t["P1"]')):
        (tmp_path / f"{k}.json").write_text(text)
        with pytest.raises(errors.SchemaError, match="top level must be an object"):
            envelope.load_attraction_data(tmp_path / f"{k}.json")
    (tmp_path / "cut.json").write_text(" [1,")
    with pytest.raises(errors.SchemaError, match="malformed JSON"):
        envelope.load_attraction_data(tmp_path / "cut.json")
    # JSON text given as a string is a file name, and no such file exists
    with pytest.raises(errors.SchemaError, match="^cannot read .*No such file or directory$"):
        envelope.load_attraction_data(' {"diagram": "0/1\\\\1/0"}')
    # a name that no file can have is refused as unreadable, not let through
    with pytest.raises(errors.SchemaError, match=r"^cannot read 'a\\x00b': embedded null byte$"):
        envelope.load_attraction_data("a\0b")


def test_schema_missing_key(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    del raw["order"]
    with pytest.raises(errors.SchemaError):
        envelope.load_attraction_data(raw)


def test_schema_bad_chamber(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["chamber"] = [1, 1]
    with pytest.raises(errors.SchemaError):
        envelope.load_attraction_data(raw)


def test_schema_invalid_point(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["points"][0]["ties"] = [["V2", "U1"]]
    with pytest.raises(errors.SchemaError):
        envelope.load_attraction_data(raw)


def test_loader_enumerates_once_and_asks_is_valid_only_for_messages(fixtures_dir, monkeypatch):
    # the enumerated tie diagrams decide every point; is_valid runs only for
    # a point outside them, to name what is wrong (messages as recorded
    # before the enumeration decided)
    calls = {"enumerate": 0, "is_valid": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(tie, "enumerate_tie_diagrams", counted("enumerate", tie.enumerate_tie_diagrams))
    monkeypatch.setattr(tie, "is_valid", counted("is_valid", tie.is_valid))
    for name in ("tstar_p1_chamber12.json", "tstar_p2_chamber123.json", "example54_chamber321.json"):
        load_fixture(fixtures_dir, name)
    assert calls == {"enumerate": 3, "is_valid": 0}
    cases = {
        (("V2", "U1"),): "black line X3: covered 0 times, label is 1; "
        "black line X4: covered 0 times, label is 1",
        (("V2", "V1"), ("U1", "V1")): "tie (V2,V1) joins two red lines; "
        "black line X3: covered 2 times, label is 1; black line X4: covered 2 times, label is 1",
        (): "black line X2: covered 0 times, label is 1; black line X3: covered 0 times, "
        "label is 1; black line X4: covered 0 times, label is 1",
    }
    for ties, message in cases.items():
        raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
        raw["points"][1]["ties"] = [list(t) for t in ties]
        with pytest.raises(errors.SchemaError) as exc:
            envelope.load_attraction_data(raw)
        assert str(exc.value) == f"point P2: {message}"
    assert calls == {"enumerate": 6, "is_valid": 3}


def test_schema_rejects_two_ids_for_one_tie_diagram(fixtures_dir):
    # the same ties under two ids, in either order of the ties: one fixed
    # point listed twice, and the message names both ids
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    first = raw["points"][0]
    raw["points"][1] = {"id": "P2", "ties": first["ties"][::-1]}
    with pytest.raises(errors.SchemaError, match="^duplicate tie diagram: points 'P1' and 'P2'$"):
        envelope.load_attraction_data(raw)


def test_schema_rejects_a_missing_tie_diagram(fixtures_dir):
    # T*P^2 without D2, dropped from points, order and restrictions: what is
    # left is consistent, so only a comparison with the enumerated tie
    # diagrams sees the gap, and the message names the missing one
    raw = fixture_dict(fixtures_dir, "tstar_p2_chamber123.json")
    raw["points"] = [p for p in raw["points"] if p["id"] != "D2"]
    raw["order"].remove("D2")
    del raw["restrictions"]["D2"]
    for row in raw["restrictions"].values():
        row.pop("D2", None)
    with pytest.raises(errors.SchemaError) as exc:
        envelope.load_attraction_data(raw)
    assert str(exc.value) == "missing tie diagram: [['V2', 'U2'], ['U2', 'V1']]"


def test_schema_rejects_unknown_line_names_and_non_ascii_digits(fixtures_dir):
    # 'X2' read as the red line V2, and '²' passed str.isdigit but not int()
    for ties in ([["X2", "U1"], ["U1", "V1"]], [["V²", "U1"], ["U1", "V1"]]):
        raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
        raw["points"][0]["ties"] = ties
        with pytest.raises(errors.SchemaError, match="is not a colored line"):
            envelope.load_attraction_data(raw)
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["restrictions"]["P1"]["P1"] = "t²-t1+h"
    with pytest.raises(errors.SchemaError, match=r"restrictions\[P1\]\[P1\]: expected a digit"):
        envelope.load_attraction_data(raw)


def test_schema_unknown_point_in_restrictions(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["restrictions"]["P1"].update({"P9": "h", "P8": "h"})
    with pytest.raises(errors.SchemaError) as exc:
        envelope.load_attraction_data(raw)
    assert str(exc.value) == "restrictions[P1] mentions unknown points ['P8', 'P9']"


def test_schema_rejects_restriction_rows_of_unknown_points(fixtures_dir):
    # a row keyed by no point id, whatever it holds, and a misspelled row
    # id, which left P1's row empty and surfaced as a diagonal mismatch
    for extra in ({"P9": {"P1": "t1"}}, {"P9": 5}, {"p1": {"P1": "t2-t1+h"}, "P9": {}}):
        raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
        if "p1" in extra:
            del raw["restrictions"]["P1"]
        raw["restrictions"].update(extra)
        with pytest.raises(errors.SchemaError) as exc:
            envelope.load_attraction_data(raw)
        unknown = sorted(set(extra))
        assert str(exc.value) == f"restrictions has rows for unknown points {unknown}"


def test_triangularity_violation(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["restrictions"]["P2"]["P1"] = "t1-t2"  # P1 is above P2 in this order
    with pytest.raises(errors.TriangularityViolation):
        envelope.load_attraction_data(raw)


def test_diagonal_mismatch(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["restrictions"]["P1"]["P1"] = "t1-t2"
    with pytest.raises(errors.DiagonalMismatch):
        envelope.load_attraction_data(raw)


def test_homogeneity_violation(fixtures_dir):
    raw = fixture_dict(fixtures_dir, "tstar_p1_chamber12.json")
    raw["restrictions"]["P1"]["P2"] = "t1-t2+h^2"
    with pytest.raises(errors.HomogeneityViolation):
        envelope.load_attraction_data(raw)


def test_schema_decides_powers_past_half_the_dimension_at_once(fixtures_dir):
    # each ran for minutes: the middle coefficients of the first grow towards
    # 10^508000, and the second expands to 118,755 terms in five variables
    cases = (
        (fixture_dict(fixtures_dir, "tstar_p1_chamber12.json"), "(t1^2+10^4000*t1*t2+t2^2)^127", 1),
        (tstar_module().attraction_data(5), "(t1+t2+t3+t4+t5+h)^24", 4),
    )
    for raw, expr, half in cases:
        p = raw["order"][0]
        raw["restrictions"][p][p] = expr
        start = time.perf_counter()
        with pytest.raises(errors.HomogeneityViolation) as exc:
            envelope.load_attraction_data(raw)
        assert time.perf_counter() - start < 1.0, expr
        assert str(exc.value) == f"R[{p}][{p}] = {expr} is not homogeneous of degree {half}"


# ---------------------------------------------------------------------------
# the recursion


def coeff_map(stab):
    return {q: c for q, c in stab.coeffs.items() if c}


def test_three_blue_envelopes(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    stabs = {s.point: s for s in envelope.stable_envelopes(data)}
    assert coeff_map(stabs["D1"]) == {"D1": 1}
    assert coeff_map(stabs["D2"]) == {"D2": 1, "D1": 1}
    assert coeff_map(stabs["D3"]) == {"D3": 1, "D2": 1}
    assert coeff_map(stabs["D4"]) == {"D4": 1, "D3": 1, "D2": 1, "D1": 1}
    assert coeff_map(stabs["D5"]) == {"D5": 1, "D4": 1, "D2": -1}


def test_three_blue_restriction_golden(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    stabs = {s.point: s for s in envelope.stable_envelopes(data)}
    assert stabs["D3"].restrictions["D1"] == algebra.poly_parse(
        "h*(t3-t2+h)", 3
    )


def test_normalization_diagonal(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    for s in envelope.stable_envelopes(data):
        assert s.restrictions[s.point] == data.minus_euler[s.point].expand()


def test_smallness_divisibility(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    for s in envelope.stable_envelopes(data):
        for q in data.order:
            if data.rank(q) < data.rank(s.point):
                assert s.restrictions[q].mod_h().is_zero()
            if data.rank(q) > data.rank(s.point):
                assert s.restrictions[q].is_zero()


def test_order_refinement_independence(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    base = [coeff_map(s) for s in envelope.stable_envelopes(data)]
    for i in range(len(data.order) - 1):
        p, q = data.order[i], data.order[i + 1]
        if not data.restrictions[q][p].is_zero():
            continue  # comparable, the swap would break triangularity
        swapped = list(data.order)
        swapped[i], swapped[i + 1] = q, p
        redone = [coeff_map(s) for s in envelope.stable_envelopes(data, swapped)]
        assert redone == base


def test_non_integral_ratio_is_an_integrality_failure():
    # T*P^1 with R[D2][D1] = t1+t2+h, not proportional to e(T_D1^-) = t1-t2 mod h
    data = envelope.load_attraction_data(DATA / "tstar_p1_chamber21_nonintegral.json")
    with pytest.raises(errors.IntegralityFailure) as exc:
        envelope.stable_envelopes(data)
    assert str(exc.value) == "point D2, step D1: t1 + t2 vs t1 - t2"
    assert isinstance(exc.value.__cause__, errors.NotProportional)


def test_stable_envelopes_rejects_foreign_order(fixtures_dir):
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    with pytest.raises(ValueError):
        envelope.stable_envelopes(data, order=["D1", "D2"])


def test_stab_to_json(fixtures_dir):
    data = load_fixture(fixtures_dir, "tstar_p1_chamber12.json")
    blob = envelope.stable_envelopes(data)[1].to_json()
    assert blob["point"] == "P1"
    assert set(blob["restrictions"]) == {"P1", "P2"}


# ---------------------------------------------------------------------------
# pairing, orthogonality, duality


def paired(fixtures_dir):
    data = load_fixture(fixtures_dir, "tstar_p1_chamber12.json")
    op_data = load_fixture(fixtures_dir, "tstar_p1_chamber21.json")
    return data, op_data


def test_virtual_pairing_self(fixtures_dir):
    data, _ = paired(fixtures_dir)
    stabs = envelope.stable_envelopes(data)
    # a stab paired with itself is generally a nonzero rational function
    val = envelope.virtual_pairing(
        stabs[0].restrictions, stabs[0].restrictions, data
    )
    assert val != 0
    # ``points`` restricts the sum: an empty list sums nothing, one point
    # gives its one term
    u = stabs[0].restrictions
    assert envelope.virtual_pairing(u, u, data, points=[]) == 0
    for p in data.order:
        term = algebra.RationalFn(u[p] * u[p], data.full_euler[p])
        assert envelope.virtual_pairing(u, u, data, points=[p]) == term


def test_gram_matrix_is_identity(fixtures_dir):
    data, op_data = paired(fixtures_dir)
    stabs = envelope.stable_envelopes(data)
    op_stabs = envelope.stable_envelopes(op_data)
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    for i, row in enumerate(gram):
        for j, entry in enumerate(row):
            assert entry == (1 if i == j else 0), (i, j, entry.render())


def test_polynomiality(fixtures_dir):
    data, op_data = paired(fixtures_dir)
    stabs = envelope.stable_envelopes(data)
    op_stabs = envelope.stable_envelopes(op_data)
    report = envelope.check_polynomiality(stabs, op_stabs, data, op_data)
    assert report.ok, report.messages


def test_opposite_order_check(fixtures_dir):
    data, op_data = paired(fixtures_dir)
    report = envelope.opposite_order_check(data, op_data)
    assert report.ok, report.messages


def test_chamber_mismatch_detected(fixtures_dir):
    data, _ = paired(fixtures_dir)
    with pytest.raises(errors.ChamberMismatch):
        envelope.gram_matrix(
            envelope.stable_envelopes(data),
            envelope.stable_envelopes(data),
            data,
            data,
        )


def test_point_ids_that_name_other_tie_diagrams_are_refused():
    # the opposite data of T*P^2 with D1 and D2 exchanged is valid on its
    # own, but its D2 is the point that the data calls D1
    tstar = tstar_module()
    sigma = (2, 3, 1)
    data = envelope.load_attraction_data(tstar.attraction_data(3, sigma))
    op_raw = relabeled(tstar.attraction_data(3, sigma, opposite=True), "D1", "D2")
    op_data = envelope.load_attraction_data(op_raw)
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    assert data.order == ["D3", "D2", "D1"]
    message = (
        "point D2 has ties [['V2', 'U3'], ['U3', 'V1']] and "
        "[['V2', 'U2'], ['U2', 'V1']] in the opposite data"
    )
    for check in (envelope.gram_matrix, envelope.check_polynomiality):
        with pytest.raises(errors.ChamberMismatch) as raised:
            check(stabs, op_stabs, data, op_data)
        assert str(raised.value) == message
    with pytest.raises(errors.ChamberMismatch, match="^point D2 has ties"):
        envelope.opposite_order_check(data, op_data)


def test_three_blue_support_order(fixtures_dir):
    # the partial order read off the R-support refines D1 < ... < D5
    data = load_fixture(fixtures_dir, "example54_chamber321.json")
    for p in data.order:
        for q in data.order:
            if p != q and not data.restrictions[p][q].is_zero():
                assert data.rank(q) < data.rank(p)


# ---------------------------------------------------------------------------
# polynomiality one hyperplane at a time, against the full rational sum


def reference_check_polynomiality(stabs, op_stabs, data, op_data, gammas=None):
    """The previous check: every pairing summed as one RationalFn."""
    envelope._check_paired(data, op_data)
    if gammas is None:
        one = {p: algebra.Poly.const(data.nvars, 1) for p in data.order}
        gammas = [one] + [dict(data.restrictions[r]) for r in data.order]
    report = errors.CheckResult("polynomiality")
    for s in stabs:
        for k, gamma in enumerate(gammas):
            u = {p: s.restrictions[p] * gamma[p] for p in data.order}
            for o in op_stabs:
                pairing = envelope.virtual_pairing(u, o.restrictions, data)
                if not pairing.is_polynomial():
                    report.fail(
                        f"(Stab({s.point})*gamma[{k}], Stab_op({o.point})) = "
                        f"{pairing.render()} is not polynomial"
                    )
    return report


def paired_cases(fixtures_dir):
    yield paired(fixtures_dir)
    yield (
        load_fixture(fixtures_dir, "tstar_p2_chamber123.json"),
        load_fixture(fixtures_dir, "tstar_p2_chamber321.json"),
    )
    tstar = tstar_module()
    for sigma in ((3, 1, 4, 2), (2, 5, 1, 3, 4)):
        yield (
            envelope.load_attraction_data(tstar.attraction_data(len(sigma), sigma)),
            envelope.load_attraction_data(tstar.attraction_data(len(sigma), sigma, opposite=True)),
        )


def perturbed_gammas(data, rng, count):
    """Test classes 1 or [L_r], each with a random monomial added at one
    point p; some monomials are multiplied by e(T_p), which keeps every
    pairing as it was, or by e(T_p) without one weight, which leaves at most
    one hyperplane with a pole."""
    nvars = data.nvars
    one = {p: algebra.Poly.const(nvars, 1) for p in data.order}
    bases = [one] + [data.restrictions[r] for r in data.order]
    for _ in range(count):
        gamma = dict(rng.choice(bases))
        exps = tuple(rng.randint(0, 1) for _ in range(nvars)) + (rng.randint(0, 2),)
        p = rng.choice(data.order)
        mono = algebra.Poly(nvars, {pack(exps): rng.choice([-2, -1, 1, 3])})
        factors = list(data.full_euler[p].factors)
        drop = rng.choice([None, None, len(factors), rng.randrange(len(factors))])
        if drop is not None:
            kept = factors[:drop] + factors[drop + 1 :]
            mono = mono * algebra.FactoredClass(nvars, 1, kept).expand()
        gamma[p] = gamma[p] + mono
        yield gamma


def test_polynomiality_verdicts_match_the_full_sum(fixtures_dir):
    rng = random.Random(20261018)
    cases = failing = 0
    for data, op_data in paired_cases(fixtures_dir):
        stabs = envelope.stable_envelopes(data)
        op_stabs = envelope.stable_envelopes(op_data)
        args = (stabs, op_stabs, data, op_data)
        expected = reference_check_polynomiality(*args)
        report = envelope.check_polynomiality(*args)
        assert expected.ok and (report.ok, report.messages) == (True, [])
        # the reference sums every pairing as a RationalFn, about 0.3 s per
        # perturbed class on T*P^4, so that case takes 10 classes, not 30
        for gamma in perturbed_gammas(data, rng, 30 if data.nvars < 5 else 10):
            expected = reference_check_polynomiality(*args, gammas=[gamma])
            report = envelope.check_polynomiality(*args, gammas=[gamma])
            assert (report.ok, report.messages) == (expected.ok, expected.messages)
            cases += 1
            failing += not expected.ok
    assert cases == 100 and cases // 2 < failing < cases, failing


def test_polynomiality_on_a_repeated_hyperplane(fixtures_dir):
    # T*P^1 with e(T_P1) = (t1-t2)^2 * (t2-t1+h): the hyperplane t1 = t2 is
    # a double pole at P1, so it is summed as a rational function
    data, op_data = paired(fixtures_dir)
    euler = dict(data.full_euler)
    euler["P1"] = algebra.FactoredClass(2, 1, [((1, 2, 0), 2), ((2, 1, 1), 1)])
    data = dataclasses.replace(data, full_euler=euler)
    _, repeated = data.hyperplanes
    assert repeated == {(1, 2, 0): ["P2", "P1"]}
    args = (envelope.stable_envelopes(data), envelope.stable_envelopes(op_data), data, op_data)
    t12 = algebra.poly_parse("t1-t2", 2)
    gammas = [
        {"P1": t12 * t12, "P2": t12},  # polynomial: the double pole cancels
        {"P1": t12, "P2": algebra.Poly(2)},  # a simple pole is left
        {"P1": algebra.Poly.const(2, 1), "P2": algebra.Poly.const(2, 1)},
    ]
    expected = reference_check_polynomiality(*args, gammas=gammas)
    report = envelope.check_polynomiality(*args, gammas=gammas)
    assert (report.ok, report.messages) == (expected.ok, expected.messages)
    assert [m.split(",")[0] for m in report.messages] == [
        "(Stab(P1)*gamma[1]",
        "(Stab(P1)*gamma[2]",
        "(Stab(P1)*gamma[2]",
    ]
    passing = reference_check_polynomiality(*args, gammas=gammas[:1])
    assert passing.ok and envelope.check_polynomiality(*args, gammas=gammas[:1]).ok


def test_a_pairing_finds_each_hyperplane_and_restriction_once(monkeypatch):
    # gram_matrix and then check_polynomiality on the same T*P^3 envelopes:
    # the hyperplanes are found once for the data, no envelope entry is
    # divided (each is decided factor by factor), and a class with no
    # factored form, asked for twice, is restricted once to each hyperplane
    tstar = tstar_module()
    sigma = (3, 1, 4, 2)
    data = envelope.load_attraction_data(tstar.attraction_data(4, sigma))
    op_data = envelope.load_attraction_data(tstar.attraction_data(4, sigma, opposite=True))
    args = (envelope.stable_envelopes(data), envelope.stable_envelopes(op_data), data, op_data)
    entries = {id(r) for s in args[0] + args[1] for r in s.restrictions.values()}
    zero = algebra.Poly(data.nvars)
    bare = {p: r + zero for p, r in data.restrictions[data.order[-1]].items()}  # no factored form
    hyperplanes, horner, restrict = envelope._hyperplanes, algebra._horner, algebra.restrict
    found, computed, asked = [], [], []  # the lists keep each Poly, so its id stays its own
    monkeypatch.setattr(envelope, "_hyperplanes", lambda d: found.append(d) or hyperplanes(d))
    monkeypatch.setattr(algebra, "_horner", lambda p, k: computed.append((p, k)) or horner(p, k))
    monkeypatch.setattr(algebra, "restrict", lambda p, k: asked.append((p, k)) or restrict(p, k))
    envelope.gram_matrix(*args)
    assert envelope.check_polynomiality(*args).ok
    assert envelope.check_polynomiality(*args, gammas=[bare, bare]).ok
    assert found == [data]
    assert not any(id(p) in entries for p, _ in computed)
    assert computed and {id(p) for p, _ in computed} <= {id(r) for r in bare.values()}
    distinct = {(id(p), key) for p, key in asked if not p.is_constant()}
    assert len(asked) > len(distinct)
    assert sorted((id(p), key) for p, key in computed) == sorted(distinct)


def test_a_tstar_pass_divides_at_most_28_times(tmp_path, monkeypatch):
    # the benchmark's seed-7 tstar pass (T*P^1..T*P^3, both chambers): every
    # entry of its data is a product of weights, so the pairings are decided
    # factor by factor, and only the recursion's integer ratios divide: 28
    # synthetic divisions remain of the 448 the pass once ran (258 before
    # the factored forms)
    tstar = tstar_module()
    horner, bodies = algebra._horner, []
    monkeypatch.setattr(algebra, "_horner", lambda p, k: bodies.append(p) or horner(p, k))
    for n in (2, 3, 4):
        data, op_data = map(envelope.load_attraction_data, tstar.write_pair(n, 7, tmp_path))
        stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
        divided = len(bodies)
        args = (stabs, op_stabs, data, op_data)
        gram = envelope.gram_matrix(*args)
        assert all(e == int(i == j) for i, row in enumerate(gram) for j, e in enumerate(row))
        assert envelope.check_polynomiality(*args).ok
        assert envelope.opposite_order_check(data, op_data).ok
        assert len(bodies) == divided
    assert 0 < len(bodies) <= 28 and not any(p.is_constant() for p in bodies)


def test_points_of_different_dimensions_are_refused(fixtures_dir, monkeypatch, capsys):
    # InconsistentDimension has one raise site: a tangent character that
    # gains a weight at one point makes the points disagree on dimension
    real = tangent.tangent_character

    def skewed(t, pid):
        tc = real(t, pid)
        if pid == "P1":
            terms = dict(tc.char.terms)
            terms[(1, 2, 5)] = terms.get((1, 2, 5), 0) + 1
            tc = dataclasses.replace(tc, char=algebra.Character(tc.char.nvars, terms))
        return tc

    monkeypatch.setattr(tangent, "tangent_character", skewed)
    path = fixtures_dir / "tstar_p1_chamber12.json"
    with pytest.raises(errors.InconsistentDimension, match=r"^\[2, 3\]$"):
        envelope.load_attraction_data(path)
    out = io.StringIO()
    assert cli.run(["stab", "--data", str(path)], out=out) == 2
    assert out.getvalue() == "" and capsys.readouterr().err == "error: [2, 3]\n"


# ---------------------------------------------------------------------------
# factored forms: certificates checked against exact restriction


def exact_on_hyperplanes(vec, simple):
    """The exact view of ``vec`` on each simple hyperplane where it is not 0
    at every point: the one polynomial it is there, or ``{p: vec[p] on H}``."""
    out = {}
    for key, points in simple.items():
        on = [algebra.restrict(vec[p], key) for p in points]
        if any(on):
            out[key] = on[0] if all(r == on[0] for r in on) else dict(zip(points, on))
    return out


def flat_hyperplanes(data):
    simple, _ = data.hyperplanes
    return simple, {key: not sum(ms.values()) for key, ms in simple.items()}


def factored_cases(fixtures_dir):
    """Every fixture and test data file, with the vectors a pairing decides
    on it: its rows of R and, where the recursion runs, its envelopes."""
    for path in sorted(fixtures_dir.glob("*.json")) + sorted(DATA.glob("*.json")):
        data = envelope.load_attraction_data(path)
        vecs = [data.restrictions[p] for p in data.order]
        try:
            vecs += [s.restrictions for s in envelope.stable_envelopes(data)]
        except errors.IntegralityFailure:
            pass
        yield path.name, data, vecs


def test_factored_forms_expand_to_the_parsed_entries(fixtures_dir):
    # every entry that parses as a product of weights keeps that product,
    # which expands to the entry and restricts, factor by factor, to the
    # entry's exact restriction on each simple hyperplane; only the two
    # entries of the test data that are sums keep none
    unfactored = []
    for name, data, _ in factored_cases(fixtures_dir):
        simple, _ = data.hyperplanes
        zero = algebra.Poly(data.nvars)
        for p, row in data.restrictions.items():
            for q, entry in row.items():
                fs = algebra.factored(entry)
                if fs is None:
                    unfactored.append((name, p, q))
                    continue
                assert [c for c, _ in fs.terms] == ([1] if entry else [])
                assert all(f.expand() == entry for _, f in fs.terms)
                for key in simple:
                    products = (
                        c * algebra.FactoredClass(data.nvars, 1, forms).expand()
                        for forms, c in fs.restrict(key).items()
                    )
                    assert sum(products, zero) == algebra.restrict(entry, key)
    assert unfactored == [
        ("tstar_p1_chamber21_nonintegral.json", "D2", "D1"),
        ("tstar_p2_chamber321_perturbed.json", "D3", "D1"),
    ]


def test_factorwise_verdicts_equal_the_exact_ones(fixtures_dir):
    # each verdict of _on_hyperplanes is a proof: H left out is 0 at every
    # point, True is one polynomial on H, not 0 unless H is flat, and False
    # leaves H to exact restriction, as for a row whose entry is not a
    # product of weights, or a sum of several products on a one-point H
    fallbacks = Counter()
    for name, data, vecs in factored_cases(fixtures_dir):
        simple, flat = flat_hyperplanes(data)
        for vec in vecs:
            on, exact = envelope._on_hyperplanes(vec, simple, flat), exact_on_hyperplanes(vec, simple)
            for key in simple:
                if key not in on:
                    assert key not in exact
                elif on[key]:
                    assert not isinstance(exact.get(key), dict) and (key in exact or flat[key])
                else:
                    fallbacks[name] += 1
    assert fallbacks["tstar_p1_chamber21_nonintegral.json"] > 0


def test_classes_without_factored_forms_take_the_exact_path(fixtures_dir, monkeypatch):
    # factored forms live on Polys, not on StabClass.coeffs: an envelope
    # edited by dataclasses.replace keeps its coeffs but holds new Polys, and
    # so does a caller's test class; neither has a factored form, so each
    # residue they meet is decided from the exact restrictions
    data, op_data = (load_fixture(fixtures_dir, f"tstar_p2_chamber{c}.json") for c in ("123", "321"))
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    h = algebra.Poly.variable(data.nvars, 0)
    edited = [
        dataclasses.replace(s, restrictions={p: r * h for p, r in s.restrictions.items()})
        for s in stabs
    ]
    gamma = {p: 2 * r for p, r in data.restrictions[data.order[-1]].items()}
    simple, flat = flat_hyperplanes(data)
    bare = [s.restrictions for s in edited] + [gamma]
    for vec in bare:
        assert envelope._on_hyperplanes(vec, simple, flat) == dict.fromkeys(simple, False)
    calls, vanishes = [], envelope._residue_vanishes
    monkeypatch.setattr(envelope, "_residue_vanishes", lambda *a: calls.append(a) or vanishes(*a))
    args = (edited, op_stabs, data, op_data)
    report = envelope.check_polynomiality(*args, gammas=[gamma])
    expected = reference_check_polynomiality(*args, gammas=[gamma])
    assert (report.ok, report.messages) == (expected.ok, expected.messages)
    reached = 0
    for key, _, classes, _ in calls:
        for vec, on in classes:
            if any(vec is b for b in bare):
                exact = exact_on_hyperplanes(vec, simple)
                assert on.get(key, 0) == exact.get(key, 0)  # completed in place, or dropped as 0
                reached += 1
    assert reached > 0


def test_rows_that_differ_but_agree_on_a_hyperplane_take_the_exact_path(fixtures_dir):
    # a class that is (t2-t3)^2 at both points of t1 = t2 on T*P^2, read at one
    # point as that product and at the other as the combination
    # (t2-t3)*(t2-t3+h) - (t2-t3)*h of two rows: the factor-wise views differ,
    # so the exact restrictions decide, and find one polynomial
    data, op_data = (load_fixture(fixtures_dir, f"tstar_p2_chamber{c}.json") for c in ("123", "321"))
    simple, flat = flat_hyperplanes(data)
    key = (1, 2, 0)
    p, q = simple[key]

    def product(*weights):
        return algebra.FactoredClass(data.nvars, 1, [(w, 1) for w in weights])

    rows = [(1, product((2, 3, 0), (2, 3, 1))), (-1, product((2, 3, 0), (0, 0, 1)))]
    vec = {r: algebra.poly_parse("0", data.nvars) for r in data.order}
    vec[p] = algebra.poly_parse("(t2-t3)^2", data.nvars)
    vec[q] = sum((c * f.expand() for c, f in rows), algebra.Poly(data.nvars))
    vec[q]._factored = algebra.FactoredSum(rows)
    assert vec[q] == vec[p] and algebra.factored(vec[p]).restrict(key) != vec[q]._factored.restrict(key)
    on = envelope._on_hyperplanes(vec, simple, flat)
    assert on[key] is False
    assert envelope._residue_vanishes(key, simple[key], [(vec, on)], flat) == flat[key]
    assert on[key] == exact_on_hyperplanes(vec, simple)[key] == vec[p]
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    args = (stabs, op_stabs, data, op_data)
    report = envelope.check_polynomiality(*args, gammas=[vec])
    expected = reference_check_polynomiality(*args, gammas=[vec])
    assert (report.ok, report.messages) == (expected.ok, expected.messages)


def reference_hyperplanes(data):
    """``simple`` of the hyperplanes, each M_p expanded from c * L / (s_p * F_p|_H)
    with Counter arithmetic on the linear forms."""
    on = {}
    for p in data.order:
        for w, exp in data.full_euler[p].factors:
            on.setdefault(algebra.hyperplane(w)[0], Counter())[p] += exp
    simple = {}
    for key, points in on.items():
        if max(points.values()) > 1:
            continue
        rest = {}
        for p in points:
            s, forms = data.full_euler[p].constant, Counter()
            for w, exp in data.full_euler[p].factors:
                form, scale = algebra.hyperplane(w)
                if form != key:
                    form, scale = algebra.hyperplane(algebra.restrict_weight(w, key))
                    forms[form] += exp
                s *= scale**exp
            rest[p] = (s, forms)
        lcm = Counter()
        for _, forms in rest.values():
            lcm |= forms
        clear = Fraction(math.lcm(*(abs(s.numerator) for s, _ in rest.values())))
        simple[key] = {
            p: algebra.FactoredClass(data.nvars, clear / s, (lcm - forms).items()).expand()
            for p, (s, forms) in rest.items()
        }
    return simple


def test_hyperplane_multiples_match_the_lcm_formula(fixtures_dir):
    # M_p is read as an integer where F_p|_H is the lcm L, and expanded
    # elsewhere (example54 has both); either way it is c * L / (s_p * F_p|_H)
    constant = Counter()
    for _, data, _ in factored_cases(fixtures_dir):
        simple, _ = data.hyperplanes
        assert simple == reference_hyperplanes(data)
        constant.update(m.is_constant() for ms in simple.values() for m in ms.values())
    assert constant[True] and constant[False]


def test_replaced_data_finds_its_own_hyperplanes(fixtures_dir):
    # the hyperplanes are kept on the data, not copied by dataclasses.replace
    data, _ = paired(fixtures_dir)
    assert data.hyperplanes is data.hyperplanes and data.hyperplanes[1] == {}
    euler = dict(data.full_euler)
    euler["P1"] = algebra.FactoredClass(2, 1, [((1, 2, 0), 2), ((2, 1, 1), 1)])
    replaced = dataclasses.replace(data, full_euler=euler)
    assert replaced.hyperplanes[1] == {(1, 2, 0): ["P2", "P1"]}
    assert data.hyperplanes[1] == {} and (1, 2, 0) in data.hyperplanes[0]


def test_classes_that_agree_on_a_hyperplane_form_no_products(monkeypatch):
    # on T*P^3 every envelope and every default class restricts to one
    # polynomial on each simple hyperplane, so neither the gram matrix nor
    # the polynomiality check forms a product; a class edited at one point of
    # one hyperplane is summed from products there, and only there
    tstar = tstar_module()
    sigma = (3, 1, 4, 2)
    data = envelope.load_attraction_data(tstar.attraction_data(4, sigma))
    op_data = envelope.load_attraction_data(tstar.attraction_data(4, sigma, opposite=True))
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    args = (stabs, op_stabs, data, op_data)
    one = {p: algebra.Poly.const(data.nvars, 1) for p in data.order}
    envelope.check_polynomiality(*args, gammas=[one])  # fills the memo of expanded Euler classes
    products, formed = [], Counter()  # formed: hyperplane -> residues there that formed products
    mul, vanishes = algebra.Poly.__mul__, envelope._residue_vanishes

    def counted(key, *a):
        before = len(products)
        result = vanishes(key, *a)
        if len(products) > before:
            formed[key] += 1
        return result

    monkeypatch.setattr(algebra.Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(envelope, "_residue_vanishes", counted)
    gram = envelope.gram_matrix(*args)
    assert envelope.check_polynomiality(*args).ok
    assert products == [] and formed == Counter()
    assert all(e == int(i == j) for i, row in enumerate(gram) for j, e in enumerate(row))

    p = data.order[0]
    simple, _ = data.hyperplanes
    w = next(w for w, _ in data.full_euler[p].factors if len(simple[algebra.hyperplane(w)[0]]) > 1)
    rest = [(v, n) for v, n in data.full_euler[p].factors if v != w]
    edited = dict(one, **{p: one[p] + algebra.FactoredClass(data.nvars, 1, rest).expand()})
    report = envelope.check_polynomiality(*args, gammas=[edited])
    assert list(formed) == [algebra.hyperplane(w)[0]]
    expected = reference_check_polynomiality(*args, gammas=[edited])
    assert not expected.ok and (report.ok, report.messages) == (expected.ok, expected.messages)


# ---------------------------------------------------------------------------
# the gram matrix read off one exact evaluation


def test_gram_entries_equal_the_virtual_pairing_sums(fixtures_dir, monkeypatch):
    # certified entries are evaluated; only the poles of the perturbed data
    # are summed as rational functions, and every entry renders as the sum
    cases = [(data, op_data, False) for data, op_data in paired_cases(fixtures_dir)]
    for fixture, perturbed in (
        ("tstar_p1_chamber12.json", "tstar_p1_chamber21_perturbed.json"),
        ("tstar_p2_chamber123.json", "tstar_p2_chamber321_perturbed.json"),
    ):
        perturbed_data = envelope.load_attraction_data(DATA / perturbed)
        cases.append((load_fixture(fixtures_dir, fixture), perturbed_data, True))
    summed = envelope.virtual_pairing
    calls = []
    monkeypatch.setattr(envelope, "virtual_pairing", lambda *a: calls.append(a) or summed(*a))
    for data, op_data, perturbed in cases:
        stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
        calls.clear()
        gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
        fallbacks = len(calls)
        by_point = {s.point: s.restrictions for s in stabs}
        op_by_point = {s.point: s.restrictions for s in op_stabs}
        poles = 0
        for p, row in zip(data.order, gram, strict=True):
            for q, entry in zip(data.order, row, strict=True):
                expected = summed(by_point[p], op_by_point[q], data)
                assert entry == expected and entry.render() == expected.render(), (p, q)
                poles += not expected.is_polynomial()
        assert fallbacks == poles and bool(poles) == perturbed


def test_gram_sums_entries_whose_degree_or_poles_are_not_certified(fixtures_dir):
    # on T*P^1, each case keeps some entry that is not a constant: restrictions
    # times h (degree dim/2 + 1) pair to h * delta, free of poles on every
    # simple hyperplane; each e(T_p) without its first weight (degree dim - 1)
    # leaves polynomials of degree 1; e(T_P1) = (t1-t2)^2 leaves a double
    # pole on the repeated hyperplane t1 = t2, which only the full sum sees;
    # envelopes that are h at every point agree on every hyperplane, and the
    # one-point hyperplanes keep their poles, as g = h is not zero there
    data, op_data = paired(fixtures_dir)
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    h = algebra.Poly.variable(data.nvars, 0)
    euler = data.full_euler
    scaled = [
        dataclasses.replace(s, restrictions={p: r * h for p, r in s.restrictions.items()})
        for s in stabs
    ]
    hs = [dataclasses.replace(s, restrictions=dict.fromkeys(s.restrictions, h)) for s in stabs]
    op_hs = [dataclasses.replace(s, restrictions=dict.fromkeys(s.restrictions, h)) for s in op_stabs]
    dropped = {p: algebra.FactoredClass(2, e.constant, e.factors[1:]) for p, e in euler.items()}
    repeated = dict(euler, P1=algebra.FactoredClass(2, 1, [((1, 2, 0), 2)]))
    envelope.gram_matrix(stabs, op_stabs, data, op_data)  # keeps the hyperplanes on data
    cases = [
        (scaled, op_stabs, euler), (stabs, op_stabs, dropped), (stabs, op_stabs, repeated),
        (hs, op_hs, euler),
    ]
    for ss, ops, e in cases:
        d = dataclasses.replace(data, full_euler=e)
        gram = envelope.gram_matrix(ss, ops, d, op_data)
        op_by_point = {s.point: s.restrictions for s in ops}
        for s, row in zip(ss, gram, strict=True):
            for q, entry in zip(d.order, row, strict=True):
                expected = envelope.virtual_pairing(s.restrictions, op_by_point[q], d)
                assert entry == expected and entry.render() == expected.render()
        assert any(not (e.is_polynomial() and e.num.is_constant()) for row in gram for e in row)
    # the last case: every entry of the envelopes that are h keeps its poles
    assert {e.render() for row in gram for e in row} == {"(2*h^2) / ((-t1+t2+h)*(t1-t2+h))"}
    report = envelope.check_polynomiality(hs, op_hs, data, op_data)
    expected = reference_check_polynomiality(hs, op_hs, data, op_data)
    assert not report.ok and (report.ok, report.messages) == (expected.ok, expected.messages)


def test_gram_sums_entries_over_euler_values_that_are_not_integers(fixtures_dir):
    # e(T_p) / 2 at every point of T*P^1: its values at the evaluation point
    # are Fractions, which have no integer lcm, so every entry is summed
    data, op_data = paired(fixtures_dir)
    half = Fraction(1, 2)
    euler = {p: algebra.FactoredClass(2, half, e.factors) for p, e in data.full_euler.items()}
    data = dataclasses.replace(data, full_euler=euler)
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    assert [[entry.render() for entry in row] for row in gram] == [["2", "0"], ["0", "2"]]


def twisted(data, k, c):
    """``data`` under the torus twist t_k -> t_k + c*h: every restriction is
    substituted and every weight of an Euler class moved, so each gram entry,
    a constant, is kept."""
    shift = f"(t{k}+{c}*h)" if c >= 0 else f"(t{k}-{-c}*h)"

    def poly(p):
        return algebra.poly_parse(p.render().replace(f"t{k}", shift), data.nvars)

    def euler(e):
        moved = [((i, j, m + c * ((i == k) - (j == k))), n) for (i, j, m), n in e.factors]
        return algebra.FactoredClass(data.nvars, e.constant, moved)

    return dataclasses.replace(
        data,
        restrictions={
            p: {q: poly(r) for q, r in row.items()}
            for p, row in data.restrictions.items()
        },
        minus_euler={p: euler(e) for p, e in data.minus_euler.items()},
        full_euler={p: euler(e) for p, e in data.full_euler.items()},
    )


def test_an_evaluation_point_on_a_pole_is_moved_and_the_gram_stays_exact(fixtures_dir, monkeypatch):
    # T*P^2 twisted so that a factor t1 - t3 + m*h of some e(T_p) vanishes
    # at the first candidate (t1, t2, t3, h) = (1000, 1000^2, 1000^3, 7)
    data = load_fixture(fixtures_dir, "tstar_p2_chamber123.json")
    op_data = load_fixture(fixtures_dir, "tstar_p2_chamber321.json")
    ts = [0, 1000, 1000**2, 1000**3]
    i, j, m = next(
        w for e in data.full_euler.values() for w, _ in e.factors if {w[0], w[1]} == {1, 3}
    )
    root = (ts[j] - ts[i]) // 7  # t_i - t_j + root*h vanishes at h = 7
    c = root - m if i == 3 else m - root
    data, op_data = twisted(data, 3, c), twisted(op_data, 3, c)
    first = (*ts[1:], 7)
    assert any(e.evaluate(first) == 0 for e in data.full_euler.values())
    point = envelope._evaluation_point(data)
    assert point[:3] == first[:3] and point[3] > 7
    assert all(e.evaluate(point) for e in data.full_euler.values())
    summed = envelope.virtual_pairing
    monkeypatch.setattr(envelope, "virtual_pairing", lambda *a: pytest.fail("summed"))
    stabs, op_stabs = envelope.stable_envelopes(data), envelope.stable_envelopes(op_data)
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    op_by_point = {s.point: s.restrictions for s in op_stabs}
    for s, row in zip(stabs, gram, strict=True):
        for q, entry in zip(data.order, row, strict=True):
            expected = summed(s.restrictions, op_by_point[q], data)
            assert entry.render() == expected.render() == str(int(s.point == q))
