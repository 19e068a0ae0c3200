"""Command-line interface: every pipeline stage as a verb.

Exit codes: 0 success, 1 usage error, 2 input validation failure,
3 verification/check failure, 141 (128 + SIGPIPE) when the output was closed
early, as ``| head -1`` closes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import algebra, brane, butterfly, envelope, errors, tangent, tie

USAGE_EXIT = 1
INPUT_EXIT = 2
CHECK_EXIT = 3
PIPE_EXIT = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser():
    parser = _Parser(prog="bowvariety", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="summarize a brane diagram")
    p.add_argument("dsl")

    p = sub.add_parser("fixed-points", help="enumerate tie diagrams")
    p.add_argument("dsl")
    p.add_argument("--json", action="store_true")
    p.add_argument("--ascii", action="store_true")

    p = sub.add_parser("butterfly", help="show one butterfly diagram")
    p.add_argument("dsl")
    p.add_argument("--point", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("matrices", help="assembled fixed-point matrices")
    p.add_argument("dsl")
    p.add_argument("--point", required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("tangent", help="tangent characters, optionally chamber-split")
    p.add_argument("dsl")
    p.add_argument("--point")
    p.add_argument("--chamber")

    p = sub.add_parser("hw", help="apply one Hanany-Witten move")
    p.add_argument("dsl")
    p.add_argument("--at", required=True, type=int)

    p = sub.add_parser("separate", help="separate a diagram by Hanany-Witten moves")
    p.add_argument("dsl")

    p = sub.add_parser("stab", help="stable-envelope recursion over attraction data")
    p.add_argument("--data", required=True)
    p.add_argument("--check", action="store_true")

    p = sub.add_parser("pair", help="orthogonality and polynomiality for paired data")
    p.add_argument("--data", required=True)
    p.add_argument("--opposite", required=True)

    p = sub.add_parser("verify", help="full verification report for every fixed point")
    p.add_argument("dsl")
    return parser


def _point(d, point_id):
    points = tie.enumerate_tie_diagrams(d)
    for k, t in enumerate(points, start=1):
        if f"D{k}" == point_id:
            return t
    raise errors.BowError(f"no fixed point {point_id!r} (found {len(points)})")


def _cmd_parse(args, out):
    d = brane.parse(args.dsl)
    out.write(f"diagram: {brane.render(d)}\n")
    out.write(f"black lines: {len(d.blacks)}, labels: {list(d.blacks)}\n")
    out.write(f"M (red lines): {d.n_red}\n")
    out.write(f"N (blue lines): {d.n_blue}\n")
    out.write(f"admissible: {brane.admissible(d)}\n")
    out.write(f"sdeg: {brane.sdeg(d)}\n")
    return 0


def _fixed_points(d, out):
    """The tie diagrams of ``d``, in order; if there are none, a line says so."""
    points = tie.enumerate_tie_diagrams(d)
    if not points:
        out.write(f"no fixed points: the variety of {brane.render(d)} is empty\n")
    return points


def _cmd_fixed_points(args, out):
    d = brane.parse(args.dsl)
    if args.json:
        out.write(json.dumps(
            [{"id": f"D{k}", "ties": t.named_ties()}
             for k, t in enumerate(tie.enumerate_tie_diagrams(d), start=1)], indent=2))
        out.write("\n")
        return 0
    points = _fixed_points(d, out)
    if points:
        out.write(f"{len(points)} tie diagram(s) on {brane.render(d)}\n")
    for k, t in enumerate(points, start=1):
        out.write(f"D{k}: {t.named_ties()}\n")
        if args.ascii:
            out.write(tie.render_ascii(t) + "\n")
    return 0


def _cmd_butterfly(args, out):
    d = brane.parse(args.dsl)
    t = _point(d, args.point)
    bf = butterfly.build_butterfly(t, args.blue)
    if args.json:
        out.write(json.dumps(bf.to_json(), indent=2) + "\n")
    else:
        out.write(butterfly.render_ascii(bf, d) + "\n")
    return 0


def _cmd_matrices(args, out):
    d = brane.parse(args.dsl)
    t = _point(d, args.point)
    f = butterfly.assemble_fixed_point(t)
    out.write(json.dumps(f.to_json(), indent=2) + "\n")
    if args.verify:
        report = butterfly.verify_fixed_point(f)
        out.write(report.render() + "\n")
        if not report.ok:
            return CHECK_EXIT
    return 0


def _cmd_tangent(args, out):
    d = brane.parse(args.dsl)
    chamber = None
    if args.chamber is not None:
        if not args.chamber:  # '' from --chamber=; [] from --chamber=--
            raise errors.BadChamber("empty --chamber")
        try:
            chamber = tuple(int(x) for x in args.chamber.split(","))
        except ValueError:
            raise errors.BadChamber(f"non-integer --chamber {args.chamber!r}") from None
        tangent.check_chamber(chamber, d.n_blue)
    if args.point is None:
        points = [(f"D{k}", t) for k, t in enumerate(_fixed_points(d, out), start=1)]
    else:
        points = [(args.point, _point(d, args.point))]
    for pid, t in points:
        tc = tangent.tangent_character(t, pid)
        out.write(f"{pid}: {{{', '.join(map(algebra.render_weight, tc.char.weights()))}}}\n")
        if chamber is not None:
            split = tangent.chamber_split(tc, chamber)
            out.write(f"  plus:  {split.plus.render()}\n")
            out.write(f"  minus: {split.minus.render()}\n")
    return 0


def _cmd_hw(args, out):
    d = brane.parse(args.dsl)
    out.write(brane.render(brane.hw_transition(d, args.at)) + "\n")
    return 0


def _cmd_separate(args, out):
    d = brane.parse(args.dsl)
    sep, moves = brane.separate(d)
    out.write(brane.render(sep) + "\n")
    out.write(f"moves: {moves}\n")
    return 0


def _cmd_stab(args, out):
    data = envelope.load_attraction_data(args.data)
    stabs = envelope.stable_envelopes(data)
    out.write(json.dumps([s.to_json() for s in stabs], indent=2) + "\n")
    if args.check:
        # axioms are verified inside the recursion; additionally confirm the
        # coefficients do not depend on how incomparable points are ordered
        rev = list(data.order)
        for i in range(len(rev) - 1):
            p, q = rev[i], rev[i + 1]
            if data.restrictions[q][p].is_zero():
                swapped = rev[:i] + [q, p] + rev[i + 2 :]
                redone = envelope.stable_envelopes(data, order=swapped)
                if any(a.coeffs != b.coeffs for a, b in zip(stabs, redone)):
                    out.write(f"order-refinement check FAILED at {p},{q}\n")
                    return CHECK_EXIT
        out.write("all envelope checks passed\n")
    return 0


def _cmd_pair(args, out):
    data = envelope.load_attraction_data(args.data)
    op_data = envelope.load_attraction_data(args.opposite)
    stabs = envelope.stable_envelopes(data)
    op_stabs = envelope.stable_envelopes(op_data)
    gram = envelope.gram_matrix(stabs, op_stabs, data, op_data)
    out.write("gram matrix:\n")
    for row in gram:
        out.write("  [" + ", ".join(entry.render() for entry in row) + "]\n")
    ok = all(e == int(i == j) for i, row in enumerate(gram) for j, e in enumerate(row))
    poly_report = envelope.check_polynomiality(stabs, op_stabs, data, op_data)
    order_report = envelope.opposite_order_check(data, op_data)
    for report in (poly_report, order_report):
        out.write(f"{report.name}: {'pass' if report.ok else 'FAIL'}\n")
        for msg in report.messages:
            out.write(f"  {msg}\n")
        ok = ok and report.ok
    return 0 if ok else CHECK_EXIT


def _cmd_verify(args, out):
    d = brane.parse(args.dsl)
    points = _fixed_points(d, out)
    ok = True
    not_run = Counter()  # check name -> points it did not run on
    for k, t in enumerate(points, start=1):
        f = butterfly.assemble_fixed_point(t)
        report = butterfly.verify_fixed_point(f)
        out.write(f"D{k}:\n")
        for line in report.render().splitlines():
            out.write(f"  {line}\n")
        ok = ok and report.ok
        not_run.update(c.name for c in report.checks if c.skipped)
    if not ok:
        out.write("verification FAILED\n")
        return CHECK_EXIT
    elif not_run:
        counts = ", ".join(
            f"{name} on {n} of {len(points)} points" for name, n in not_run.items()
        )
        out.write(f"no check failed; not run: {counts}\n")
    elif points:
        out.write("all fixed points verified\n")
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "fixed-points": _cmd_fixed_points,
    "butterfly": _cmd_butterfly,
    "matrices": _cmd_matrices,
    "tangent": _cmd_tangent,
    "hw": _cmd_hw,
    "separate": _cmd_separate,
    "stab": _cmd_stab,
    "pair": _cmd_pair,
    "verify": _cmd_verify,
}


def run(argv=None, out=None):
    out = out or sys.stdout
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for k, token in enumerate(argv[:-1]):
        if token == "--chamber":  # argparse reads a value like -1,2 as an option
            argv[k : k + 2] = [f"--chamber={argv[k + 1]}"]
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.verb](args, out)
    except errors.BowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


def main():
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the Python docs' recipe: no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PIPE_EXIT
    raise SystemExit(code)
