"""Equivariant tangent characters, chamber splits, and Euler classes.

The tangent space at a torus fixed point decomposes into one-dimensional
weight spaces; every weight has the form t_i - t_j + m*h.  A chamber (a total
order on the torus parameters) splits the character into an attracting and a
repelling half, whose Euler classes drive the stable-envelope recursion.

Run with:  python3 demos/03_tangent_characters.py
"""

from bowvariety import brane, tangent, tie

DIAGRAM = "0/1\\1/2\\2\\2/0"
CHAMBER = (3, 2, 1)  # t3 > t2 > t1


def main():
    d = brane.parse(DIAGRAM)
    for k, t in enumerate(tie.enumerate_tie_diagrams(d), start=1):
        tc = tangent.tangent_character(t, f"D{k}")
        print(f"{tc.point} (dimension {tc.char.total()}): {tc.char.render()}")
        split = tangent.chamber_split(tc, CHAMBER)
        print(f"  attracting: {split.plus.render()}")
        print(f"  repelling:  {split.minus.render()}")
        # the Euler class of the repelling half is the diagonal entry of the
        # restriction matrix fed to the envelope recursion
        e_minus = tangent.euler_class(split.minus)
        print(f"  e(T^-) = {e_minus.expand().render()}")
        # the symplectic form pairs w with h - w (tangent_character checks
        # that the character is stable under it), so the dimension is even
        assert tc.char.total() % 2 == 0
        print()


if __name__ == "__main__":
    main()
