"""Run one workload of the bowvariety benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Run it from anywhere; the program is imported from ``src/`` next to this
directory.  The run makes its inputs from the seed, times set-up in fresh
interpreters, then runs whole passes over the inputs until ``--seconds`` is
spent, checking every output of every pass.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
pass with the median wall time.  Untraced passes are timed against a fixed
calibration loop run between short segments of each pass, so that the speed
of a shared host, which drifts over seconds and minutes, cancels out of
``norm_wall_s`` and ``setup_s``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
Result files and spans are written to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("sweep", "flag", "tstar")
SETUP_REPEATS = 7

# Untraced passes are cut into segments of about SEGMENT_S seconds, with the
# calibration loop run between segments.  Each segment's time is scaled by
# CALIBRATION_REF_S over the mean time of the loop on either side of it:
# ``norm_wall_s`` is the pass time on a host where the loop takes
# CALIBRATION_REF_S.  On a 2-vCPU virtual machine with Python 3.11 the loop
# takes 0.019-0.029 s.
SEGMENT_S = 0.5
CALIBRATION_REF_S = 0.02

# interpreter start, import and input generation, timed from outside
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def _direct(_layer, fn, *args):
    return fn(*args)


def calibration_loop():
    """A fixed amount of exact-fraction, dict, tuple and sorting work, like
    the program's own, that uses none of the program's code."""
    total = Fraction(0)
    table = {}
    for i in range(1, 3000):
        total += Fraction(i % 17 + 1, i % 13 + 2)
        key = (i % 31, i % 29)
        table[key] = table.get(key, 0) + i
        if i % 100 == 0:
            sorted(table.items())
    return total


def calibrate():
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class Clock:
    """Times an untraced pass in segments of about SEGMENT_S seconds.  A
    one-shot timer signal ends each segment and runs the calibration loop, so
    that segments also cut through long library calls."""

    def __init__(self):
        self.segments = []  # (seconds, loop time before, loop time after)
        self.running = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.before = calibrate()
        self.running = True
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
        return self

    def __exit__(self, *_exc):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.cut()

    def _tick(self, _signum, _frame):
        if self.running:
            self.cut()
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def cut(self):
        end = time.perf_counter()
        after = calibrate()
        self.segments.append((end - self.start, self.before, after))
        self.before = after
        self.start = time.perf_counter()

    def wall(self):
        return sum(seconds for seconds, _before, _after in self.segments)

    def norm_wall(self):
        return sum(
            seconds * 2 * CALIBRATION_REF_S / (before + after)
            for seconds, before, after in self.segments
        )


class Tracer:
    """Spans (layer, start, end) of the library calls of one pass, all
    children of the pass span ``root``."""

    def __init__(self):
        self.root = None
        self.spans = []

    def call(self, layer, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((layer, start, time.perf_counter()))


def import_program():
    """Import ``bowvariety`` from this checkout's ``src/``, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import bowvariety
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bowvariety from {SRC}: {exc}")
    if SRC not in Path(bowvariety.__file__).resolve().parents:
        sys.exit(f"perfbench: bowvariety was imported from {bowvariety.__file__}, not {SRC}")


def setup_seconds(workload, seed):
    """Wall times of fresh interpreters that import the program and make the
    workload's inputs, raw and scaled like the segments of a pass."""
    raw, norm = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), workload, str(seed), str(OUT)],
            check=True,
        )
        raw.append(time.perf_counter() - start)
        after = calibrate()
        norm.append(raw[-1] * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return raw, norm


def timed_pass(run_pass, inputs, tracer=None):
    gc.collect()
    call = tracer.call if tracer else _direct
    start = time.perf_counter()
    p = run_pass(inputs, call)
    end = time.perf_counter()
    if tracer:
        tracer.root = ("pass", start, end)
    return end - start, p


def clocked_pass(run_pass, inputs):
    gc.collect()
    with Clock() as clock:
        p = run_pass(inputs, _direct)
    return clock, p


def measure(run_pass, inputs, seconds, trace):
    """Whole passes until the next would overrun ``seconds``; with ``trace``,
    each untraced (clocked) pass is followed by a traced one."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(clocked_pass(run_pass, inputs))
        if trace:
            tracer = Tracer()
            traced.append((*timed_pass(run_pass, inputs, tracer), tracer))
        elapsed = time.perf_counter() - start
        if elapsed / len(untraced) * (len(untraced) + 1) > seconds:
            return untraced, traced


def layer_metrics(workloads, wall, p, spans, untraced_wall):
    """Per-layer metrics of one traced pass."""
    calls, busy = Counter(), defaultdict(float)
    for layer, start, end in spans:
        calls[layer] += 1
        busy[layer] += end - start
    m = {}
    for layer in workloads.LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.busy_s"] = (busy[layer], "s")
    for name in workloads.WORK_COUNTS:
        m[name] = (p.counts[name], "count")
    for check in workloads.CHECKS:
        for outcome in workloads.OUTCOMES:
            m[f"verify.{check}.{outcome}"] = (p.counts[f"verify.{check}.{outcome}"], "count")
    m["bench.self_s"] = (wall - sum(busy.values()), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    return m


def shares(workloads, passes):
    """failed_share and checks_not_run_share over all passes of a run."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    outcomes = Counter()
    for p in passes:
        for check in workloads.CHECKS:
            for outcome in workloads.OUTCOMES:
                outcomes[outcome] += p.counts[f"verify.{check}.{outcome}"]
    checks = sum(outcomes.values())
    return {
        "failed_share": (failed / attempted, "share"),
        "checks_not_run_share": (outcomes["not_run"] / checks if checks else 0.0, "share"),
    }


def metadata(seed):
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        revision = None
    return {
        "python": platform.python_version(),
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(
            len(f.read_text().splitlines()) for f in (SRC / "bowvariety").rglob("*.py")
        ),
    }


def write_outputs(workload, seed, seconds, trace, passes, setup, clocks, traced, result):
    """Report failures on standard error; write the result file and the
    spans of the traced passes."""
    errors = [e for p in passes for e in p.errors]
    for message in errors[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for i, (_wall, _p, tracer) in enumerate(traced):
                run = f"{workload}-{seed}-{i}"
                for name, start, end in [tracer.root] + tracer.spans:
                    parent = None if name == "pass" else "pass"
                    span = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    fh.write(json.dumps(span) + "\n")
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "seconds": seconds,
                "trace": trace,
                "metadata": metadata(seed),
                "setup_walls_s": setup[0],
                "setup_norm_walls_s": setup[1],
                "pass_walls_s": [c.wall() for c in clocks],
                "pass_norm_walls_s": [c.norm_wall() for c in clocks],
                "calibration_s": [before for c in clocks for _s, before, _a in c.segments],
                "traced_pass_walls_s": [t[0] for t in traced],
                "errors": errors[:100],
                "result": result,
            },
            indent=1,
        )
    )


def run_workload(workload, seed, seconds, trace, size="full"):
    """Run one workload; print its metrics and return the result object."""
    import_program()
    import workloads

    inputs = workloads.make_inputs(workload, seed, OUT, size)
    run_pass = workloads.PASSES[workload]
    for _ in range(5):  # warm up the calibration loop
        calibrate()
    setup = ([], []) if trace else setup_seconds(workload, seed)
    untraced, traced = measure(run_pass, inputs, seconds, trace)

    passes = [p for _clock, p in untraced] + [p for _wall, p, _tracer in traced]
    if size == "full":
        reference = json.loads(REFERENCE.read_text())[workload]
        ref = reference.get(str(seed % workloads.REFERENCE_SEEDS))
        for p in passes:
            workloads.check_reference(p, ref)
    clocks = [clock for clock, _p in untraced]
    if trace:
        wall, p, tracer = sorted(traced, key=lambda r: r[0])[(len(traced) - 1) // 2]
        untraced_wall = statistics.median(c.wall() for c in clocks)
        metrics = layer_metrics(workloads, wall, p, tracer.spans, untraced_wall)
        metrics.update(shares(workloads, passes))
    else:
        metrics = {
            "norm_wall_s": (statistics.median(c.norm_wall() for c in clocks), "s"),
            "setup_s": (statistics.median(setup[1]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    write_outputs(workload, seed, seconds, trace, passes, setup, clocks, traced, result)
    printed = dict(metrics)
    if not trace:
        printed.update(shares(workloads, passes))
    for name, (value, unit) in printed.items():
        print(f"{workload:<6} {name:<32} {value:>14.6g} {unit}")
    return result


def run_all(seed, seconds, trace):
    """Each workload in a fresh process; prints every metric of each."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
