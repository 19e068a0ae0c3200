"""Small exact linear algebra used by fixed-point verification.

:class:`Mat` has an explicit shape, so that zero-dimensional fibers compose
correctly, and sparse signed rows ``{row: {col: value}}`` with no stored
zeros: assembly writes one entry, +-1, per graded pair of basis lines, which a
butterfly draws as an arrow, so every operation here pays per nonzero, not
per cell.  Entries stay as given (int or Fraction).  :func:`rank` and
:func:`krylov_rank` are exact, by row echelon over the rationals, each call
keeping its sparse echelon rows in a dict of pivots (:func:`_reduce`).
Verification calls them only when a row (column) it ranks has two entries: on
partial injections, as assembled, S1, S2 and the junctions count reachable
unit vectors (``butterfly._rank``), and graded stability is a closure walk.
"""

from __future__ import annotations

from fractions import Fraction

_NO_ROW = {}  # read-only stand-in for a zero row


class Mat:
    """Exact rows x cols matrix: ``entries[i][j]`` is the entry at (i, j) if
    it is nonzero, and a zero row is absent.  The constructor takes
    ``entries`` as they are: they must hold no zero and no empty row."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = {i: dict(row) for i, row in self.entries.items()}
        for i, row in other.entries.items():
            acc = out.setdefault(i, {})
            for j, y in row.items():
                acc[j] = acc.get(j, 0) + y
        out = {i: {j: x for j, x in row.items() if x} for i, row in out.items()}
        return Mat(self.rows, self.cols, {i: row for i, row in out.items() if row})

    def __neg__(self):
        out = {i: {j: -x for j, x in row.items()} for i, row in self.entries.items()}
        return Mat(self.rows, self.cols, out)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.cols} columns with {other.rows} rows")
        if not (self.entries and other.entries):  # most operator products
            return Mat(self.rows, other.cols)
        out = {i: _row_times(row, other.entries) for i, row in self.entries.items()}
        return Mat(self.rows, other.cols, {i: row for i, row in out.items() if row})

    def power(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative power of a matrix")
        out = Mat(self.rows, self.rows, {i: {i: 1} for i in range(self.rows)})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return not self.entries

    def support(self, rows, cols):
        """(row label, column label) of every nonzero entry, in storage
        order, given a label for each row and each column."""
        return [(rows[i], cols[j]) for i, row in self.entries.items() for j in row]

    def transpose(self):
        out = {}
        for i, row in self.entries.items():
            for j, x in row.items():
                out.setdefault(j, {})[i] = x
        return Mat(self.cols, self.rows, out)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {self.entries})"


def _row_times(v, rows):
    """The sparse row vector ``v`` times the matrix with sparse ``rows``,
    without zeros."""
    out = {}
    for k, x in v.items():
        for j, y in rows.get(k, _NO_ROW).items():
            out[j] = out.get(j, 0) + x * y
    return {j: x for j, x in out.items() if x}


# ---------------------------------------------------------------------------
# ranks


def _reduce(pivots, row):
    """Reduce the sparse row ``row`` against ``pivots`` and keep it there if
    it is independent of the rows already kept; return whether it was kept.

    ``pivots`` maps the leading (least) column of each kept row to the row,
    which is zero left of it.  While the row's lead is a pivot column, the
    multiple of that pivot row that cancels the lead is subtracted; the row is
    kept under its new lead, or dropped at zero.  It is copied without its
    zero entries, which a caller's row may hold, and never written.
    """
    row = {j: x for j, x in row.items() if x}
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            pivots[lead] = row
            return True
        c = Fraction(row[lead]) / prow[lead]
        for j, y in prow.items():
            x = row.get(j, 0) - c * y
            if x:
                row[j] = x
            else:
                del row[j]
    return False


def rank(rows):
    """Exact rank of sparse rows ``{column: value}`` of int or Fraction
    entries, zeros allowed, by row echelon over the rationals (:func:`_reduce`)."""
    pivots = {}
    return sum(_reduce(pivots, row) for row in rows)


def krylov_rank(vectors, m):
    """Dimension of the smallest subspace that contains the sparse row
    ``vectors`` and is mapped into itself by the square :class:`Mat` ``m``,
    acting as v -> v m.

    Only the vectors that raised the rank are mapped again: if they span the
    subspace modulo the previous one, their images span the next one modulo
    the current one, so the closure stops when a round adds nothing.
    """
    pivots = {}
    new = [v for v in vectors if _reduce(pivots, v)]
    while new:
        images = (_row_times(v, m.entries) for v in new)
        new = [w for w in images if _reduce(pivots, w)]
    return len(pivots)
