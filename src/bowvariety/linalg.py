"""Small exact linear algebra used by fixed-point verification.

:class:`Mat` is a dense matrix with an explicit shape, so that
zero-dimensional fibers (empty bases) compose correctly.  Its entries are
kept as given: assembly writes the integers 0 and +-1, and a Fraction
written into a matrix stays a Fraction.  Every subspace question the checks
ask is a rank, computed exactly by :func:`rank` and :func:`krylov_rank`
with integer elimination.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import mul


class Mat:
    """Dense exact matrix with explicit shape (rows x cols)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(row) for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("shape mismatch")

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, value):
        self.data[ij[0]][ij[1]] = value

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __add__(self, other):
        self._same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __neg__(self):
        return Mat(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError(f"cannot compose {self.shape()} with {other.shape()}")
            out = Mat(self.rows, other.cols)
            for i in range(self.rows):
                for k in range(self.cols):
                    a = self.data[i][k]
                    if a:
                        row = other.data[k]
                        orow = out.data[i]
                        for j in range(other.cols):
                            orow[j] += a * row[j]
            return out
        return Mat(
            self.rows, self.cols, [[x * other for x in r] for r in self.data]
        )

    __rmul__ = __mul__

    def power(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = Mat.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def support(self, rows, cols):
        """(row label, column label) of every nonzero entry, row by row, given
        a label for each row and each column."""
        return [(r, c) for r, row in zip(rows, self.data) if any(row) for c in compress(cols, row)]

    def shape(self):
        return (self.rows, self.cols)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.data})"

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")


# ---------------------------------------------------------------------------
# ranks


class _Echelon:
    """Integer rows in echelon form: each row is zero at the pivot columns of
    the rows before it and nonzero at its own pivot."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = []  # of (column, row)

    def add(self, vector):
        """Reduce ``vector`` and keep it if it is independent of the rows
        already kept; return whether it was kept."""
        den = lcm(*(x.denominator for x in vector))
        row = [x.numerator * (den // x.denominator) for x in vector]
        for col, prow in self.pivots:
            c = row[col]
            if c:
                p = prow[col]
                row = [p * x - c * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        self.pivots.append((col, row))
        return True


def rank(rows):
    """Exact rank of a list of row vectors with int or Fraction entries.

    Each row is scaled to integers and reduced fraction-free against the rows
    kept so far, then divided by the gcd of its entries, so entries stay
    bounded without any rational arithmetic.
    """
    echelon = _Echelon()
    return sum(echelon.add(row) for row in rows)


def krylov_rank(vectors, m):
    """Dimension of the smallest subspace that contains ``vectors`` and is
    mapped into itself by the square :class:`Mat` ``m``, acting as v -> m v.

    Only the vectors that raised the rank are mapped again: if they span the
    subspace modulo the previous one, their images span the next one modulo
    the current one, so the closure stops when a round adds nothing.
    """
    echelon = _Echelon()
    new = [v for v in vectors if echelon.add(v)]
    while new:
        images = ([sum(map(mul, row, v)) for row in m.data] for v in new)
        new = [w for w in images if echelon.add(w)]
    return len(echelon.pivots)
