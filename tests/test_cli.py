"""Command-line interface: verbs, output formats, exit codes.

A few end-to-end golden tests go through a real subprocess; the rest call
:func:`bowvariety.cli.run` in-process for speed.
"""

import io
import json
import subprocess
import sys

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
