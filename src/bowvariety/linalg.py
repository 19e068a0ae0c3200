"""Small exact linear algebra over Q used by fixed-point verification.

:class:`Mat` is a dense matrix of Fractions with an explicit shape, so that
zero-dimensional fibers (empty bases) compose correctly.  Subspaces are
represented by reduced row-echelon bases: lists of row vectors.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    """Dense exact matrix with explicit shape (rows x cols)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            self.data = [[Fraction(x) for x in row] for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("shape mismatch")

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, value):
        self.data[ij[0]][ij[1]] = Fraction(value)

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

    def shape(self):
        return (self.rows, self.cols)

    def apply(self, v):
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [
            sum((row[j] * v[j] for j in range(self.cols)), Fraction(0))
            for row in self.data
        ]

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def rank(self):
        return len(rref(self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.data})"

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")


# ---------------------------------------------------------------------------
# subspaces (bases as lists of row vectors over a fixed ambient dimension)


def rref(rows):
    """Reduced row echelon form; returns the nonzero rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [x * inv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [r for r in m[:pivot_row] if any(r)]


def kernel_basis(mat):
    """Basis of {x : mat x = 0}."""
    n = mat.cols
    red = rref(mat.data)
    pivots = []
    for row in red:
        pivots.append(next(j for j, x in enumerate(row) if x))
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def image_basis(mat):
    """Basis of the column span of mat (as row vectors of length mat.rows)."""
    return rref([mat.column(j) for j in range(mat.cols)])


def span_sum(dim, *bases):
    rows = [list(r) for b in bases for r in b]
    if not rows:
        return []
    return rref(rows)


def annihilator(basis, dim):
    """Rows w with w . v = 0 for all v in span(basis)."""
    if not basis:
        return [Mat.identity(dim).data[i] for i in range(dim)]
    return kernel_basis(Mat(len(basis), dim, basis))


def intersect(b1, b2, dim):
    a = annihilator(b1, dim) + annihilator(b2, dim)
    if not a:
        return [Mat.identity(dim).data[i] for i in range(dim)]
    return kernel_basis(Mat(len(a), dim, a))


def preimage(mat, basis):
    """Basis of {v : mat v in span(basis)} inside the domain of mat."""
    ann = annihilator(basis, mat.rows)
    if not ann:
        return [Mat.identity(mat.cols).data[i] for i in range(mat.cols)]
    constraint = Mat(len(ann), mat.rows, ann) * mat
    return kernel_basis(constraint)


def span_equal(b1, b2):
    return rref([list(r) for r in b1]) == rref([list(r) for r in b2])


def span_dim(basis):
    return len(rref([list(r) for r in basis]))
