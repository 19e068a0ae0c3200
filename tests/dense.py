"""The dense exact matrix and ranks that ``linalg`` had before its operators
became sparse rows, kept as a test reference, and conversions between a
sparse ``linalg.Mat`` and dense lists of rows."""

from itertools import compress
from math import gcd, lcm
from operator import mul

from bowvariety import linalg
from conftest import entry


class DenseMat:
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

    def __eq__(self, other):
        return (
            isinstance(other, DenseMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return DenseMat(
            self.rows,
            self.cols,
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("cannot compose")
        out = DenseMat(self.rows, other.cols)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.data[i][k]
                if a:
                    row = other.data[k]
                    orow = out.data[i]
                    for j in range(other.cols):
                        orow[j] += a * row[j]
        return out

    def power(self, n):
        out = DenseMat.identity(self.rows)
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
        return [(r, c) for r, row in zip(rows, self.data) if any(row) for c in compress(cols, row)]

    def columns(self):
        return [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]


class DenseEchelon:
    """Dense integer rows in echelon form: each row is zero at the pivot
    columns of the rows before it and nonzero at its own pivot."""

    def __init__(self):
        self.pivots = []  # of (column, row)

    def add(self, vector):
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


def dense_rank(rows):
    echelon = DenseEchelon()
    return sum(echelon.add(row) for row in rows)


def dense_krylov_rank(vectors, m):
    """The Krylov rank of dense ``vectors`` under v -> m v, ``m`` a DenseMat."""
    echelon = DenseEchelon()
    new = [v for v in vectors if echelon.add(v)]
    while new:
        images = ([sum(map(mul, row, v)) for row in m.data] for v in new)
        new = [w for w in images if echelon.add(w)]
    return len(echelon.pivots)


def dense(m):
    """The rows of the sparse ``linalg.Mat`` ``m`` as lists, zeros filled in."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for i, row in m.entries.items():
        for j, x in row.items():
            rows[i][j] = x
    return rows


def columns(m):
    """The columns of the sparse ``m`` as lists."""
    return DenseMat(m.rows, m.cols, dense(m)).columns()


def sparse(rows, cols, data):
    """The ``linalg.Mat`` with the dense rows ``data``, written entry by entry."""
    m = linalg.Mat(rows, cols)
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("shape mismatch")
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            entry(m, i, j, x)
    return m


def sparse_rows(data):
    """Dense row vectors as the sparse rows ``linalg.rank`` reads."""
    return [{j: x for j, x in enumerate(row) if x} for row in data]


def copied(m):
    """A copy of the sparse ``m`` that shares no row with it."""
    return linalg.Mat(m.rows, m.cols, {i: dict(row) for i, row in m.entries.items()})
