"""Sparse integer matrices shared by the complex builder and the homology
solver.  Entries are arbitrary-precision Python integers."""

from __future__ import annotations


class IntMatrix:
    """A sparse integer matrix stored as {row: {col: value}} dicts, the form
    the Smith elimination consumes: nonzeros only, and no empty rows.

    ``disposable`` is set only by `ChainComplex.release_cells`, on the
    matrices it hands over to a reduction: `snf` then eliminates on their
    row dicts, which leave them, instead of on a copy."""

    __slots__ = ("nrows", "ncols", "rows", "disposable")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows, self.ncols, self.rows = nrows, ncols, {}
        self.disposable = False
        for (r, c), v in dict(entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            if v:
                self.rows.setdefault(r, {})[c] = v

    @classmethod
    def from_row_dicts(cls, nrows: int, ncols: int, rows) -> "IntMatrix":
        """Wrap row dicts as they are: in range, no zeros, no empty rows."""
        m = cls(nrows, ncols)
        m.rows = rows
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, {(i, j): v for i, row in enumerate(rows)
                                      for j, v in enumerate(row)})

    @property
    def entries(self):
        """The nonzeros as a {(row, col): value} dict."""
        return {(r, c): v for r, row in self.rows.items() for c, v in row.items()}

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for r, row in self.rows.items():
            for c, v in row.items():
                rows[r][c] = v
        return rows

    def triplets(self):
        """Sorted (row, col, value) triplets."""
        return [(r, c, v) for r in sorted(self.rows) for c, v in sorted(self.rows[r].items())]

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        product = {}
        for r, row in self.rows.items():
            acc = {}
            for k, v in row.items():
                for c, w in other.rows.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            if any(acc.values()):
                product[r] = {c: v for c, v in acc.items() if v}
        return IntMatrix.from_row_dicts(self.nrows, other.ncols, product)

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, {sum(map(len, self.rows.values()))} nonzeros)"
