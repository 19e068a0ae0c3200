"""Torus fixed points: tie diagrams, butterfly diagrams, and verified matrices.

The torus fixed points of a bow variety are indexed by tie diagrams: sets of
red-blue ties such that the number of ties covering each black line equals
its label.  Each fixed point is realized by explicit rational matrices read
off one butterfly diagram per blue line; a battery of exact checks certifies
that the matrices really present a torus-fixed stable point.

Run with:  python3 demos/02_fixed_points_and_butterflies.py
"""

from bowvariety import brane, butterfly, tie

DIAGRAM = "0/1\\1/2\\2\\2/0"


def main():
    d = brane.parse(DIAGRAM)
    points = tie.enumerate_tie_diagrams(d)
    print(f"{DIAGRAM} has {len(points)} tie diagrams:\n")
    for k, t in enumerate(points, start=1):
        print(f"  D{k}: {sorted(t.named_ties())}")
    print()

    # Pick one fixed point and draw the butterfly of its second blue line.
    t = points[0]
    print(tie.render_ascii(t))
    bf = butterfly.build_butterfly(t, "U2")
    print(f"butterfly of U2 at D1 (cover counts {list(bf.cover_counts)}):")
    print(butterfly.render_ascii(bf, d))

    # Each butterfly vertex carries an equivariant height: its lattice
    # height less max(d_{U^-} - 1, 0), one shift per butterfly, which puts
    # the green-in target at 0 and the green-out source at 1.  The fiber over
    # a black line X_j then has one weight t_U + height*h per vertex in
    # column j, across all blue lines U: the basis labels (U, i, height) of
    # the assembled W_j, listed here as pairs (U, height); the heights of a
    # column differ, so each weight occurs once.
    f = butterfly.assemble_fixed_point(t)
    for j, labels in f.bases.items():
        print(f"  weights of W_{j}: {sorted((u, height) for u, _i, height in labels)}")
    print()

    # Run the full verification report on the assembled matrices:
    # moment map + triangle relations, the two stability criteria,
    # graded stability, junction conditions, nilpotency, and torus grading.
    report = butterfly.verify_fixed_point(f)
    print("verification at D1:")
    print(report.render())
    assert report.ok


if __name__ == "__main__":
    main()
