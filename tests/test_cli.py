"""Command-line interface: verbs, output formats, exit codes.

A few end-to-end golden tests go through a real subprocess; the rest call
:func:`bowvariety.cli.run` in-process for speed.
"""

import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bowvariety import cli
from bowvariety.algebra import MAX_DEGREE, MAX_DIGITS, MAX_NESTING
from conftest import DATA, EXAMPLE_3BLUE, FIXTURES, FLAG, TSTAR_P1, relabeled, tstar_module


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bowvariety", *argv],
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# golden subprocess tests


def test_subprocess_parse_golden():
    proc = run_subprocess("parse", TSTAR_P1)
    assert proc.returncode == 0
    assert proc.stdout == (
        "diagram: 0/1\\1\\1/0\n"
        "black lines: 5, labels: [0, 1, 1, 1, 0]\n"
        "M (red lines): 2\n"
        "N (blue lines): 2\n"
        "admissible: True\n"
        "sdeg: 2\n"
    )


def test_subprocess_hw_golden():
    proc = run_subprocess("hw", TSTAR_P1, "--at", "3")
    assert proc.returncode == 0
    assert proc.stdout == "0/1\\1/1\\0\n"


GOLDEN = Path(__file__).resolve().parent / "golden"
BIG_DIAGRAM = "0/1/2/3\\3/5\\4/2\\2/0"
TSTAR_P2 = [str(FIXTURES / f"tstar_p2_chamber{c}.json") for c in ("123", "321")]
# goldens whose command reports a failed check
GOLDEN_EXIT = {"pair_tstar_p1_perturbed": 3, "pair_tstar_p2_perturbed": 3}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("tangent_example_chamber321", ["tangent", EXAMPLE_3BLUE, "--chamber", "3,2,1"]),
        ("stab_tstar_p2_chamber123", ["stab", "--data", TSTAR_P2[0], "--check"]),
        ("stab_tstar_p2_chamber321", ["stab", "--data", TSTAR_P2[1], "--check"]),
        ("pair_tstar_p2", ["pair", "--data", TSTAR_P2[0], "--opposite", TSTAR_P2[1]]),
        ("butterfly_example_D2_U2", ["butterfly", EXAMPLE_3BLUE, "--point", "D2", "--blue", "U2"]),
        (
            "butterfly_example_D2_U2_json",
            ["butterfly", EXAMPLE_3BLUE, "--point", "D2", "--blue", "U2", "--json"],
        ),
        ("matrices_big_D1_verify", ["matrices", BIG_DIAGRAM, "--point", "D1", "--verify"]),
        (
            "pair_tstar_p1_perturbed",
            [
                "pair",
                "--data",
                str(FIXTURES / "tstar_p1_chamber12.json"),
                "--opposite",
                # opposite-chamber data with h*(...) added to one off-diagonal
                # entry: still homogeneous, same envelope recursion, but the
                # pairing is not polynomial
                str(DATA / "tstar_p1_chamber21_perturbed.json"),
            ],
        ),
        (
            "pair_tstar_p2_perturbed",
            [
                "pair",
                "--data",
                TSTAR_P2[0],
                "--opposite",
                str(DATA / "tstar_p2_chamber321_perturbed.json"),
            ],
        ),
    ],
)
def test_subprocess_output_matches_recorded_golden(name, argv):
    # tests/golden/<name>.txt was recorded before weights became (i, j, m)
    # keys; the butterfly and matrices goldens before lattices were cached;
    # the perturbed pair goldens before polynomiality was checked one
    # hyperplane at a time
    proc = run_subprocess(*argv)
    assert proc.returncode == GOLDEN_EXIT.get(name, 0), proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()


def test_subprocess_usage_error():
    proc = run_subprocess("parse")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_subprocess_input_error():
    proc = run_subprocess("parse", "1/0")
    assert proc.returncode == 2
    assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# in-process verb coverage


def test_fixed_points_counts():
    code, out = run_cli("fixed-points", EXAMPLE_3BLUE)
    assert code == 0
    assert out.startswith("5 tie diagram(s)")
    assert "D5:" in out


def test_fixed_points_json():
    code, out = run_cli("fixed-points", EXAMPLE_3BLUE, "--json")
    assert code == 0
    blob = json.loads(out)
    assert [p["id"] for p in blob] == ["D1", "D2", "D3", "D4", "D5"]
    assert all("ties" in p for p in blob)


def test_fixed_points_ascii():
    code, out = run_cli("fixed-points", TSTAR_P1, "--ascii")
    assert code == 0
    assert TSTAR_P1 in out


def test_butterfly_ascii_and_json():
    code, out = run_cli("butterfly", EXAMPLE_3BLUE, "--point", "D1", "--blue", "U2")
    assert code == 0
    assert "butterfly of U2" in out
    code, out = run_cli(
        "butterfly", EXAMPLE_3BLUE, "--point", "D1", "--blue", "U2", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["blue"] == "U2"
    assert len(blob["coverCounts"]) == 7


def test_butterfly_unknown_point():
    code, _ = run_cli("butterfly", EXAMPLE_3BLUE, "--point", "D9", "--blue", "U1")
    assert code == 2


def test_matrices_verify():
    code, out = run_cli("matrices", TSTAR_P1, "--point", "D1", "--verify")
    assert code == 0
    assert '"perBlue"' in out
    assert "moment-map" in out
    assert "pass" in out and "FAIL" not in out


def test_tangent_with_chamber():
    code, out = run_cli(
        "tangent", EXAMPLE_3BLUE, "--point", "D3", "--chamber", "3,2,1"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("D3: {")
    assert "plus:" in out and "minus:" in out


def test_separate_verb():
    code, out = run_cli("separate", EXAMPLE_3BLUE)
    assert code == 0
    first, second = out.splitlines()
    assert "\\" in first and "/" in first
    assert second.startswith("moves: ")
    assert len(json.loads(second[len("moves: ") :])) == 4


def test_stab_verb_with_checks():
    code, out = run_cli(
        "stab", "--data", str(FIXTURES / "example54_chamber321.json"), "--check"
    )
    assert code == 0
    assert "all envelope checks passed" in out
    blob = json.loads(out[: out.rindex("]") + 1])
    assert [s["point"] for s in blob] == ["D1", "D2", "D3", "D4", "D5"]


def test_pair_verb():
    code, out = run_cli(
        "pair",
        "--data",
        str(FIXTURES / "tstar_p1_chamber12.json"),
        "--opposite",
        str(FIXTURES / "tstar_p1_chamber21.json"),
    )
    assert code == 0
    assert "gram matrix:" in out
    assert "polynomiality: pass" in out
    assert "order: pass" in out


def test_pair_rejects_unpaired_data():
    code, _ = run_cli(
        "pair",
        "--data",
        str(FIXTURES / "tstar_p1_chamber12.json"),
        "--opposite",
        str(FIXTURES / "tstar_p1_chamber12.json"),
    )
    assert code == 2


def test_pair_rejects_ids_that_name_other_tie_diagrams(tmp_path, capsys):
    # the opposite file of T*P^2 with D1 and D2 exchanged: one error line,
    # not a failed gram matrix
    path, op_path = tstar_module().write_pair(3, 7, tmp_path)
    op_path.write_text(json.dumps(relabeled(json.loads(op_path.read_text()), "D1", "D2")))
    code, out = run_cli("pair", "--data", str(path), "--opposite", str(op_path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    pattern = r"error: point D[12] has ties \[.*\] and \[.*\] in the opposite data\n"
    assert re.fullmatch(pattern, err)


def test_verify_verb():
    # nilpotency does not run on a diagram that is not separated
    code, out = run_cli("verify", TSTAR_P1)
    assert code == 0
    summary = "no check failed; not run: nilpotency on 2 of 2 points"
    assert out.splitlines()[-1] == summary
    code, out = run_cli("verify", "0/1/2\\2\\0")
    assert code == 0
    assert "skip" not in out
    assert out.splitlines()[-1] == "all fixed points verified"


def test_empty_variety_verbs():
    # 0\3/2/0 is admissible but has no tie diagrams: verify, and tangent
    # over every point, say so in one line
    for verb in (("verify",), ("tangent",), ("tangent", "--chamber", "1")):
        code, out = run_cli(*verb, "0\\3/2/0")
        assert code == 0
        assert out == "no fixed points: the variety of 0\\3/2/0 is empty\n", verb
    proc = run_subprocess("separate", "0\\3/2/0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: the variety of 0\\3/2/0 is empty: the move at 2 gives a negative label\n"
    )


def test_missing_data_file(capsys):
    code, _ = run_cli("stab", "--data", "/nonexistent/file.json")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cannot read /nonexistent/file.json: No such file or directory\n"
    )


def test_closed_output_pipe_ends_quietly():
    # the reader closes the pipe after one line of 334 kB of output, far past
    # a pipe's buffer: the next write fails, and the CLI ends without a
    # message and with an exit code that is not the input-error code
    proc = subprocess.Popen(
        [sys.executable, "-m", "bowvariety", "fixed-points", FLAG, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first == "[\n"
    assert "error:" not in err and "Traceback" not in err
    assert code == cli.PIPE_EXIT != cli.INPUT_EXIT


def test_bad_options_exit_2_without_traceback():
    # the messages that name their problem, word for word
    says = {
        ("butterfly", EXAMPLE_3BLUE, "--point", "D1", "--blue", "U7"): (
            "'U7' is not a colored line of 0/1\\1/2\\2\\2/0"
        ),
        ("butterfly", EXAMPLE_3BLUE, "--point", "D1", "--blue", "V1"): (
            "'V1' is not a blue line of 0/1\\1/2\\2\\2/0"
        ),
        ("parse", "0/10"): "first and last black labels must be 0: 0/10",
        # '²' passes str.isdigit but not int(): only ASCII digits are digits
        ("parse", "0/²\\0"): "expected a black-line label (at position 2)",
        ("butterfly", "0/1\\1\\1/0", "--point", "D1", "--blue", "U²"): (
            "'U²' is not a colored line of 0/1\\1\\1/0"
        ),
        # labels past Python's int-to-text limit, read or made by a move
        ("parse", "0/" + "1" * 5000 + "\\0"): (
            f"a label of more than {MAX_DIGITS} digits (at position 2)"
        ),
        ("hw", "0/{0}\\0/{0}\\0".format("9" * MAX_DIGITS), "--at", "2"): (
            f"a black label of more than {MAX_DIGITS} digits"
        ),
        # a line number past Python's int-to-text limit: refused by its length
        ("butterfly", "0/1\\1\\1/0", "--point", "D1", "--blue", "U" + "1" * 5000): (
            f"'U{'1' * 5000}' is not a colored line of 0/1\\1\\1/0"
        ),
    }
    for argv in (
        ("tangent", "0/1\\1\\0", "--chamber", "1,3"),
        ("tangent", "0/1\\1\\0", "--chamber", "1,x"),
        ("tangent", "0/1\\1\\0", "--chamber", "-1,2"),
        ("tangent", "0/1\\1\\0", "--chamber="),
        ("tangent", "0/1\\1\\0", "--chamber=--"),
        ("tangent", EXAMPLE_3BLUE, "--point", "D99"),
        *says,
    ):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        if argv in says:
            assert proc.stderr == f"error: {says[argv]}\n"


def test_bad_chamber_writes_no_output():
    for chamber in ("-1,2", "1,1", "1,2,3", "1,x", "", "--"):
        proc = run_subprocess("tangent", "0/1\\1\\0", f"--chamber={chamber}")
        assert proc.returncode == 2, chamber
        assert proc.stdout == "", chamber
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_bad_attraction_data_exits_2_without_traceback(tmp_path):
    good = json.loads((FIXTURES / "tstar_p1_chamber12.json").read_text())
    cases = {
        "malformed": "{" + json.dumps(good)[1:-1],
        "chamber": json.dumps({**good, "chamber": [1, "2"]}),
        "restrictions": json.dumps({**good, "restrictions": []}),
        "points": json.dumps({**good, "points": [], "order": []}),
        # past the JSON decoder's nesting limit: a RecursionError, not a traceback
        "nested": "[" * 200000,
        # a label past Python's int-to-text limit
        "diagram": json.dumps({**good, "diagram": "0/" + "1" * 5000 + "\\0"}),
        # a tie name past it: the message names the line, not int()'s limit
        "ties": json.dumps(
            {**good, "points": [{**good["points"][0], "ties": [["V2", "U" + "1" * 5000]]}]}
        ),
        # two ids for one fixed point: P2 carries the ties of P1
        "duplicate": json.dumps(
            {**good, "points": [good["points"][0], {**good["points"][0], "id": "P2"}]}
        ),
        # no point for the second fixed point: P1 alone, consistent by itself
        "missing": json.dumps(
            {
                **good,
                "points": good["points"][:1],
                "order": ["P1"],
                "restrictions": {"P1": {"P1": good["restrictions"]["P1"]["P1"]}},
            }
        ),
    }
    for field, text in cases.items():
        path = tmp_path / f"{field}.json"
        path.write_text(text)
        proc = run_subprocess("stab", "--data", str(path))
        assert proc.returncode == 2, field
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert ("JSON" if field in ("malformed", "nested") else field) in proc.stderr
        if field == "ties":
            assert "is not a colored line" in proc.stderr and "limit" not in proc.stderr
        if field == "duplicate":
            assert proc.stderr == "error: duplicate tie diagram: points 'P1' and 'P2'\n"
        if field == "missing":
            assert proc.stderr == "error: missing tie diagram: [['V2', 'U2'], ['U2', 'V1']]\n"
    proc = run_subprocess("stab", "--data", str(tmp_path))  # a directory
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read {tmp_path}: Is a directory\n"


def test_restriction_rows_of_unknown_points_exit_2(tmp_path):
    good = json.loads((FIXTURES / "tstar_p1_chamber12.json").read_text())
    for row in ({"P1": "t1"}, 5):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({**good, "restrictions": {**good["restrictions"], "P9": row}}))
        proc = run_subprocess("stab", "--data", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: restrictions has rows for unknown points ['P9']\n"


TOO_LONG = f"a coefficient of more than {MAX_DIGITS} digits"


@pytest.mark.parametrize(
    "q, entry, message",
    [
        ("P1", "t5-t1", "restrictions[P1][P1]: 't5' is not a variable (N=2)"),
        ("P1", "t1^3", "R[P1][P1] = t1^3 is not homogeneous of degree 1"),
        # 2^20000 has more digits than Python converts to text
        ("P1", "2^20000", f"restrictions[P1][P1]: {TOO_LONG} (at position 7)"),
        (
            "P1",
            f"t1^{MAX_DEGREE + 1}",
            f"restrictions[P1][P1]: degree {MAX_DEGREE + 1} is past the limit {MAX_DEGREE}",
        ),
        # each of these ended in a ValueError traceback: an int past Python's
        # int-to-text limit, or a digit that int() does not read
        (
            "P1",
            "9" * 5000 + "*t1",
            f"restrictions[P1][P1]: an integer of more than {MAX_DIGITS} digits (at position 0)",
        ),
        ("P1", "2^20000*t1", f"restrictions[P1][P1]: {TOO_LONG} (at position 7)"),
        ("P2", "2^20000*(t1-t2)", f"restrictions[P1][P2]: {TOO_LONG} (at position 7)"),
        ("P1", "3^100000000", f"restrictions[P1][P1]: {TOO_LONG} (at position 11)"),
        ("P1", "t²-t1+h", "restrictions[P1][P1]: expected a digit (at position 1)"),
        # nested 5,000 deep it ended in a RecursionError traceback
        (
            "P1",
            "(" * 5000 + "t1-t2" + ")" * 5000,
            f"restrictions[P1][P1]: parentheses nested more than {MAX_NESTING} deep"
            f" (at position {MAX_NESTING})",
        ),
    ],
    ids=[
        "unknown-variable",
        "not-homogeneous",
        "long-constant",
        "past-degree-limit",
        "long-literal",
        "power-on-diagonal",
        "power-off-diagonal",
        "huge-power",
        "ascii-digits",
        "deep-parentheses",
    ],
)
def test_bad_restriction_entry_names_its_problem(tmp_path, q, entry, message):
    raw = json.loads((FIXTURES / "tstar_p1_chamber12.json").read_text())
    raw["restrictions"]["P1"][q] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(raw))
    proc = run_subprocess("stab", "--data", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "n, entry",
    [(2, "(t1^2+10^4000*t1*t2+t2^2)^127"), (5, "(t1+t2+t3+t4+t5+h)^24")],
    ids=["coefficient-growth", "term-growth"],
)
def test_powers_past_half_the_dimension_exit_2_at_once(tmp_path, n, entry):
    # both ran for minutes before anything checked their degree
    raw = tstar_module().attraction_data(n)
    p = raw["order"][0]
    raw["restrictions"][p][p] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    code, out = run_cli("stab", "--data", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    proc = run_subprocess("stab", "--data", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: R[{p}][{p}] = {entry} is not homogeneous of degree {n - 1}\n"


def test_non_integral_attraction_data_exits_2_without_traceback():
    # loads cleanly, but R[D2][D1] is not an integer multiple of e(T_D1^-) mod h
    proc = run_subprocess("stab", "--data", str(DATA / "tstar_p1_chamber21_nonintegral.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: point D2, step D1: t1 + t2 vs t1 - t2\n"


def test_unknown_verb_is_usage_error():
    code, _ = run_cli("frobnicate")
    assert code == 1


# ---------------------------------------------------------------------------
# fuzzing the input boundary: any input ends in exit 0, 2 or 3


def run_fuzzed(*argv):
    code, _ = run_cli(*argv)  # an exception escaping cli.run fails the test
    assert code in (0, 2, 3), (argv, code)


dsl_text = st.one_of(
    st.text(alphabet="0123/\\ x²", max_size=10),
    st.lists(
        st.tuples(st.sampled_from("/\\"), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=5,
    ).map(lambda cs: "0" + "".join(c + str(n) for c, n in cs[:-1]) + cs[-1][0] + "0"),
)
chamber_text = st.one_of(
    st.text(alphabet="0123456789,-+ x²", max_size=8),
    st.lists(st.integers(min_value=-1, max_value=5), max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    ),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=4)
    | st.sampled_from(
        ["", "D1", "P1", "U1", "V2", "U7", "X2", "U²", "t1-t2", "(t1", "t9", "t²", "h^2"]
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["D1", "P1", "P2", "id", "x"]), inner, max_size=3),
    max_leaves=6,
)
PAIRS = {
    "tstar_p1_chamber12.json": "tstar_p1_chamber21.json",
    "tstar_p2_chamber321.json": "tstar_p2_chamber123.json",
    "example54_chamber321.json": None,
}


def _slots(node):
    """Every (container, key) place inside a JSON document."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_fixture(draw):
    name = draw(st.sampled_from(sorted(PAIRS)))
    raw = json.loads((FIXTURES / name).read_text())
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        node, key = draw(st.sampled_from(list(_slots(raw))))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
    text = json.dumps(raw)
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return name, text


@settings(max_examples=120, deadline=None)
@given(dsl_text, chamber_text, st.integers(min_value=-1, max_value=6))
def test_fuzz_diagram_verbs(dsl, chamber, k):
    run_fuzzed("parse", dsl)
    run_fuzzed("fixed-points", dsl, "--json")
    run_fuzzed("tangent", dsl, "--chamber", chamber)
    run_fuzzed("hw", dsl, "--at", str(k))
    run_fuzzed("separate", dsl)
    run_fuzzed("butterfly", dsl, "--point", f"D{k}", "--blue", f"U{k}")
    run_fuzzed("matrices", dsl, "--point", f"D{k}", "--verify")
    run_fuzzed("verify", dsl)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_fixture())
def test_fuzz_attraction_data(tmp_path, case):
    name, text = case
    path = tmp_path / "mutated.json"
    path.write_text(text)
    run_fuzzed("stab", "--data", str(path), "--check")
    opposite = PAIRS[name]
    if opposite:
        run_fuzzed("pair", "--data", str(path), "--opposite", str(FIXTURES / opposite))
        run_fuzzed("pair", "--data", str(FIXTURES / opposite), "--opposite", str(path))
