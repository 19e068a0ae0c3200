"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tstar  # noqa: E402
import workloads  # noqa: E402
from bowvariety import algebra, envelope  # noqa: E402

FIXTURES = HERE.parent / "src" / "bowvariety" / "fixtures"


@pytest.mark.parametrize("opposite,fixture", [(False, "tstar_p1_chamber12.json"), (True, "tstar_p1_chamber21.json")])
def test_tstar_n2_reproduces_fixture(opposite, fixture):
    want = json.loads((FIXTURES / fixture).read_text())
    got = tstar.attraction_data(2, opposite=opposite)

    def renamed(pid):
        return pid.replace("P", "D")

    assert got["diagram"] == want["diagram"]
    assert got["chamber"] == want["chamber"]
    assert got["points"] == [{**pt, "id": renamed(pt["id"])} for pt in want["points"]]
    assert got["order"] == [renamed(pid) for pid in want["order"]]
    assert got["restrictions"].keys() == {renamed(p) for p in want["restrictions"]}
    for p, row in want["restrictions"].items():
        got_row = got["restrictions"][renamed(p)]
        assert got_row.keys() == {renamed(q) for q in row}
        for q, expr in row.items():
            assert algebra.poly_parse(got_row[renamed(q)], 2) == algebra.poly_parse(expr, 2)


@pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
def test_tstar_relabelings_are_orthogonal(sigma):
    data = envelope.load_attraction_data(tstar.attraction_data(3, sigma))
    op_data = envelope.load_attraction_data(tstar.attraction_data(3, sigma, opposite=True))
    stabs = envelope.stable_envelopes(data)
    op_stabs = envelope.stable_envelopes(op_data)
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    assert all(e == (1 if i == j else 0) for i, row in enumerate(gram) for j, e in enumerate(row))
    assert envelope.check_polynomiality(stabs, op_stabs, data, op_data).ok
    assert envelope.opposite_order_check(data, op_data).ok


def test_sweep_seed7_is_the_criterion3_sample():
    inputs = workloads.make_inputs("sweep", 7, run.OUT)
    parsed = [workloads.brane.parse(dsl) for dsl, _chamber in inputs["diagrams"]]
    admissible = [d for d in parsed if workloads.brane.admissible(d)]
    assert len(admissible) == 6906
    assert sum(len(workloads.tie.enumerate_tie_diagrams(d)) for d in admissible) == 1634


def test_inputs_depend_only_on_the_seed():
    for workload in ("sweep", "flag"):
        first = workloads.make_inputs(workload, 5, run.OUT)
        assert workloads.make_inputs(workload, 5, run.OUT) == first
        assert workloads.make_inputs(workload, 6, run.OUT) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_runs_and_traces(workload):
    inputs = workloads.make_inputs(workload, 3, run.OUT, "smoke")
    untraced_wall, p = run.timed_pass(workloads.PASSES[workload], inputs)
    assert p.attempted > 0 and p.failed == 0, p.errors
    tracer = run.Tracer()
    wall, traced = run.timed_pass(workloads.PASSES[workload], inputs, tracer)
    assert traced.hexdigests() == p.hexdigests()
    m = run.layer_metrics(workloads, wall, traced, tracer.spans, untraced_wall)
    busy = sum(v for name, (v, _u) in m.items() if name.endswith(".busy_s"))
    assert busy + m["bench.self_s"][0] == pytest.approx(m["trace.wall_s"][0])
    assert m["bench.self_s"][0] > 0


def test_clocked_pass_matches_a_direct_pass():
    inputs = workloads.make_inputs("sweep", 3, run.OUT, "smoke")
    _wall, direct = run.timed_pass(workloads.sweep_pass, inputs)
    clock, clocked = run.clocked_pass(workloads.sweep_pass, inputs)
    assert clocked.hexdigests() == direct.hexdigests()
    assert clock.segments and clock.wall() > 0 and clock.norm_wall() > 0


def test_clock_scales_each_segment_by_the_calibration_around_it():
    clock = run.Clock()
    ref = run.CALIBRATION_REF_S
    clock.segments = [(1.0, ref, ref), (2.0, ref, 3 * ref)]
    assert clock.wall() == 3.0
    assert clock.norm_wall() == pytest.approx(1.0 + 2.0 / 2)


def test_corrupted_digest_fails_every_operation():
    inputs = workloads.make_inputs("tstar", 3, run.OUT, "smoke")
    _wall, p = run.timed_pass(workloads.tstar_pass, inputs)
    ref = workloads.reference_entry(p)
    workloads.check_reference(p, ref)
    assert p.failed == 0
    ref["digests"]["gram"] = "0" * 64
    workloads.check_reference(p, ref)
    assert run.shares(workloads, [p])["failed_share"][0] == 1.0


def test_smoke_run_prints_every_metric(capsys):
    result = run.run_workload("flag", 3, seconds=1, trace=False, size="smoke")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"norm_wall_s", "setup_s", "peak_rss_mb"}
    result = run.run_workload("flag", 3, seconds=1, trace=True, size="smoke")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["verify.nilpotency.not_run"]["value"] > 0
    out = capsys.readouterr().out
    assert "failed_share" in out and "checks_not_run_share" in out


def test_run_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tstar", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
