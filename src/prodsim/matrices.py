"""Sparse integer matrices shared by the complex builder and the homology
solver.  Entries are arbitrary-precision Python integers."""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate, chain, repeat
from operator import sub


class IntMatrix:
    """A sparse integer matrix stored row-major in three flat sequences.

    ``starts`` is an array of nrows + 1 offsets: row r's nonzeros lie at
    ``starts[r]:starts[r + 1]`` of ``cols``, their columns in ascending
    order, and of ``vals``, their values, nonzero Python ints of any size.
    ``cols`` and ``vals`` are lists; in a boundary matrix they hold the
    complex's shared cell indices and the shared ints +-1, so a nonzero costs
    two list slots, 16 bytes.  A matrix is not changed once built: `snf`
    makes row dicts of its own, and equal matrices have equal sequences.
    """

    __slots__ = ("nrows", "ncols", "starts", "cols", "vals")

    def __init__(self, nrows: int, ncols: int, entries=None):
        entries = dict(entries or {})
        for r, c in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
        entries = sorted((rc, v) for rc, v in entries.items() if v)
        rows = [r for (r, _), _ in entries]
        self.nrows, self.ncols = nrows, ncols
        self.starts = array("q", map(bisect_left, repeat(rows), range(nrows + 1)))
        self.cols, self.vals = [c for (_, c), _ in entries], [v for _, v in entries]

    @classmethod
    def from_column_major(cls, nrows: int, ncols: int, rows, cols, vals) -> "IntMatrix":
        """The matrix with nonzero ``vals[e]`` at row ``rows[e]`` and column
        ``cols[e]``, listed in ascending column order, each place once.
        ``rows`` is a sequence; ``cols`` and ``vals`` are read once, in step
        with it.  One counting pass lays the nonzeros out row by row, and each
        row's columns come out ascending."""
        free = [0] * (nrows + 1)
        for r in rows:
            free[r + 1] += 1
        free = list(accumulate(free))  # each row's next free place
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.starts = nrows, ncols, array("q", free)
        m.cols, m.vals = out_cols, out_vals = [0] * len(rows), [0] * len(rows)
        for r, c, v in zip(rows, cols, vals):
            at = free[r]
            free[r] = at + 1
            out_cols[at] = c
            out_vals[at] = v
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, {(i, j): v for i, row in enumerate(rows)
                                      for j, v in enumerate(row)})

    def _row_ids(self):
        """Each nonzero's row, in storage order."""
        starts = self.starts
        return chain.from_iterable(map(repeat, range(self.nrows), map(sub, starts[1:], starts)))

    @property
    def entries(self):
        """The nonzeros as a {(row, col): value} dict."""
        return dict(zip(zip(self._row_ids(), self.cols), self.vals))

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.triplets():
            rows[r][c] = v
        return rows

    def triplets(self):
        """Sorted (row, col, value) triplets."""
        return list(zip(self._row_ids(), self.cols, self.vals))

    def annihilates(self, other: "IntMatrix") -> bool:
        """Whether the product self * other is zero.  Each row of the
        product is accumulated in turn, and the first nonzero one answers."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        starts, a_cols, a_vals = self.starts.tolist(), self.cols, self.vals
        b_cols, b_vals = other.cols, other.vals
        b_rows = list(map(range, other.starts, other.starts[1:]))  # places of each row
        for s, e in zip(starts, starts[1:]):
            acc = {}
            get = acc.get
            for q in range(s, e):
                v = a_vals[q]
                for p in b_rows[a_cols[q]]:
                    c = b_cols[p]
                    acc[c] = get(c, 0) + v * b_vals[p]
            if any(acc.values()):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.starts == other.starts
                and self.cols == other.cols and self.vals == other.vals)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, {len(self.vals)} nonzeros)"
