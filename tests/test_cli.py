"""Command-line interface: verbs, output formats, exit codes.

A few end-to-end golden tests go through a real subprocess; the rest call
:func:`bowvariety.cli.run` in-process for speed.
"""

import io
import json
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bowvariety import cli
from conftest import EXAMPLE_3BLUE, FIXTURES, TSTAR_P1


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


def test_missing_data_file():
    code, _ = run_cli("stab", "--data", "/nonexistent/file.json")
    assert code == 2


def test_bad_options_exit_2_without_traceback():
    for argv in (
        ("tangent", "0/1\\1\\0", "--chamber", "1,3"),
        ("tangent", "0/1\\1\\0", "--chamber", "1,x"),
        ("tangent", "0/1\\1\\0", "--chamber", "-1,2"),
        ("butterfly", EXAMPLE_3BLUE, "--point", "D1", "--blue", "U7"),
    ):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def test_bad_attraction_data_exits_2_without_traceback(tmp_path):
    good = json.loads((FIXTURES / "tstar_p1_chamber12.json").read_text())
    cases = {
        "malformed": "{" + json.dumps(good)[1:-1],
        "chamber": json.dumps({**good, "chamber": [1, "2"]}),
        "restrictions": json.dumps({**good, "restrictions": []}),
        "points": json.dumps({**good, "points": [], "order": []}),
    }
    for field, text in cases.items():
        path = tmp_path / f"{field}.json"
        path.write_text(text)
        proc = run_subprocess("stab", "--data", str(path))
        assert proc.returncode == 2, field
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert ("JSON" if field == "malformed" else field) in proc.stderr
    proc = run_subprocess("stab", "--data", str(tmp_path))  # a directory
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_unknown_verb_is_usage_error():
    code, _ = run_cli("frobnicate")
    assert code == 1


# ---------------------------------------------------------------------------
# fuzzing the input boundary: any input ends in exit 0, 2 or 3


def run_fuzzed(*argv):
    code, _ = run_cli(*argv)  # an exception escaping cli.run fails the test
    assert code in (0, 2, 3), (argv, code)


dsl_text = st.one_of(
    st.text(alphabet="0123/\\ x", max_size=10),
    st.lists(
        st.tuples(st.sampled_from("/\\"), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=5,
    ).map(lambda cs: "0" + "".join(c + str(n) for c, n in cs[:-1]) + cs[-1][0] + "0"),
)
chamber_text = st.one_of(
    st.text(alphabet="0123456789,-+ x", max_size=8),
    st.lists(st.integers(min_value=-1, max_value=5), max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    ),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=4)
    | st.sampled_from(["", "D1", "P1", "U1", "V2", "U7", "t1-t2", "(t1", "t9", "h^2"]),
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
