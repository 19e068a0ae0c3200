"""Record the output reference of the benchmark.

    python3 perfbench/record.py [--workload sweep flag tstar]

For every input seed of each named workload, runs one pass, requires it to
pass every oracle check, and stores its operation count, work counts and
output digests in ``perfbench/reference.json``.  Run it only on a commit
whose outputs are known to be right; every benchmark run is checked against
what it records.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=run.WORKLOADS)
    args = parser.parse_args(argv)
    run.import_program()
    import workloads

    recorded = {}
    for workload in args.workload:
        recorded[workload] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            inputs = workloads.make_inputs(workload, seed, run.OUT)
            _wall, p = run.timed_pass(workloads.PASSES[workload], inputs)
            if p.failed:
                sys.exit(f"{workload} seed {seed}: {p.failed} operations failed: {p.errors[:3]}")
            recorded[workload][str(seed)] = workloads.reference_entry(p)
            print(workload, seed, p.attempted, dict(p.counts), flush=True)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    reference.update(recorded)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
