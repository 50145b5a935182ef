"""Sparse integer matrices shared by the complex builder and the homology
solver.  Entries are arbitrary-precision Python integers."""

from __future__ import annotations


class IntMatrix:
    """A sparse integer matrix stored as a {(row, col): value} dict."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in dict(entries).items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                if v:
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def triplets(self):
        """Sorted (row, col, value) triplets."""
        return [(r, c, self.entries[(r, c)]) for r, c in sorted(self.entries)]

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                acc[(r, c)] = acc.get((r, c), 0) + v * w
        return IntMatrix(self.nrows, other.ncols, acc)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzeros)"
