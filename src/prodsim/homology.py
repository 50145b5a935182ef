"""Exact integer homology of a chain complex.

Betti numbers and torsion coefficients come from Smith normal forms of the
boundary matrices, computed over arbitrary-precision integers: intermediate
entries overflow 64 bits on the larger word-graph complexes, so machine
integers are never used.  `homology_summary` takes the degrees in ascending
order and clears across them: the columns of each degree's +-1 pivots are
cells of the next degree's row space, and those rows are left out of the
next Smith form, which keeps every invariant factor (see `snf`).  Every
Smith form is taken by one path, on nested leading blocks of the matrix, the
whole matrix being the largest block; `homology_summaries` reads the
homology of nested subcomplexes off one reduction per degree.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from typing import NamedTuple

from .cells import ChainComplex
from .matrices import IntMatrix


class SnfResult:
    """Invariant factors d1 | d2 | ... | dr; their number r is the rank.

    `snf` also hands forward ``per_cut``, each cut's (rank, non-unit
    invariant factors), and ``paired``, the columns of the +-1 pivots found
    in their own block; neither takes part in equality, hash or repr.  A
    frozen record, not a tuple, so that equality can leave them out.
    """

    __slots__ = ("invariant_factors", "per_cut", "paired")

    def __init__(self, invariant_factors, per_cut=(), paired=None):
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "per_cut", per_cut)
        object.__setattr__(self, "paired", set() if paired is None else paired)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not SnfResult:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash((self.invariant_factors,))

    def __reduce__(self):
        return SnfResult, (self.invariant_factors, self.per_cut, self.paired)

    def __repr__(self):
        return f"SnfResult(invariant_factors={self.invariant_factors!r})"

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def snf(m: IntMatrix, *, cleared=(), cuts=None) -> SnfResult:
    """Smith normal form via unimodular row/column operations.

    A pre-pass eliminates the +-1 pivots (see `_unit_pass`); the non-unit
    remainder is diagonalized by `_snf`, each pivot the entry of least
    absolute value (then least row, then column) to limit coefficient
    growth, and its diagonal is folded into a divisibility chain with one
    gcd/lcm pass per non-unit entry.

    ``cuts`` lists nested leading blocks (rows, cols) in ascending order, by
    default the whole shape alone, and the result is the Smith form of the
    last, with each cut's rank and non-unit invariant factors in its
    ``per_cut``.  A block is the boundary of a subcomplex only
    when the leading cells are face-closed: every facet of the first
    ``cols`` cells lies among the first ``rows``, so no column of the block
    loses a nonzero to the cut and the block still squares to zero with its
    neighbours, which clearing relies on.  Every cut but the last must be
    face-closed within the last, or ValueError is raised.

    One pass serves every cut.  Block k's rows and columns enter together;
    the unit pass runs on the columns entered so far, and the columns where
    it met no +-1 carry into the next block.  The pivots of blocks 1..k are
    +-1 pivots of the k-th cut, whose later rows are zero on their columns,
    so the working rows cut at block k's columns are a unimodular Schur
    complement of that cut: its Smith form is the units so far plus `_snf`
    of a copy of the leftover columns, the last cut's included (at most 2
    rows on `table 16`); with one cut this is a single unit pass and Smith
    loop.

    The eliminations work on row dicts that m hands out as their cut
    enters them (`IntMatrix.row_dicts`), the cleared ones left out, so m
    stays as it was and its layout is read in `matrices` alone.

    For m = d_{n+1} with d_n m = 0, `cleared` may name the columns of the
    +-1 pivots that `_unit_pass` found in d_n, under the same cuts; those
    rows of m are left out and every result is unchanged.  The result's
    ``paired`` holds the columns of this matrix's +-1 pivots, but only those
    pivoted in the block they entered with, since a row left out of d_{n+1}
    must be left out of every cut that holds it.
    """
    # Clearing (Chen-Kerber's twist, exact over Z for +-1 pivots): the unit
    # pass on d_n eliminated pivots in rows R and columns P, so A = d_n[R, P]
    # is unimodular (det = +-product of the pivots = +-1).  On ker d_n the P
    # coordinates are fixed by the rest, z_P = -A^-1 B z_Q, so dropping them,
    # or any subset of them, is injective on ker d_n and its image, the
    # kernel of an integer matrix, is saturated.  im d_{n+1} lies in ker d_n,
    # so d_{n+1} without those rows has the same rank and invariant factors.
    cuts = cuts or ((m.nrows, m.ncols),)
    ncols = cuts[-1][1]
    rows, cols = {}, {}
    units = 0
    stuck, paired, per_cut = [], set(), []
    r0 = c0 = 0
    last = len(cuts) - 1
    for k, (nr, nc) in enumerate(cuts):
        if nr < r0 or nc < c0:
            raise ValueError(f"cut {(nr, nc)} does not contain the cut {(r0, c0)} before it")
        before = len(rows)
        rows.update(m.row_dicts(range(r0, nr), cleared, ncols))
        if k == last:
            # every row is read: a matrix and a cleared set handed over, as
            # `homology_summaries` hands them, are freed before the last
            # cut's columns are listed and its pass runs
            del m, cleared
        for r, row in islice(rows.items(), before, None):
            if c0 and min(row) < c0:
                raise ValueError(f"cut {(r0, c0)} is not face-closed: row {r} meets column {min(row)}")
            for c in row:
                cols.setdefault(c, []).append(r)
        pivots, stuck = _unit_pass(rows, cols, stuck + [c for c in cols if c0 <= c < nc])
        units += len(pivots)
        paired.update(c for c in pivots if c >= c0)
        rest = _snf(_leftover(rows, cols, stuck))
        per_cut.append((units + len(rest), tuple(d for d in rest if d != 1)))
        r0, c0 = nr, nc
    return SnfResult((1,) * units + rest, tuple(per_cut), paired)


def _leftover(rows, cols, stuck):
    """A copy of the entries in columns ``stuck``, which hold every nonzero
    the unit pass left in the columns entered so far."""
    out = {}
    for c in stuck:
        for r in cols[c]:
            out.setdefault(r, {})[c] = rows[r][c]
    return out


def _unit_pass(rows, cols, candidates):
    """Eliminate +-1 pivots in Markowitz order, in place on {row: {col: v}}.

    ``cols`` indexes every column of ``rows`` exactly, as {col: [row, ...]}
    in the order the rows gained the column, and is kept so: a pivoted
    column leaves it.  Only the ``candidates`` columns may pivot.  They come
    off a heap keyed by (length, first row listed, -col), taken when the
    column is pushed: shortest first, then the column whose first row comes
    first, then the latest column; one whose length changed since goes back
    on it with a fresh key, and an empty one keys first row 0 and is stuck
    when popped.  Most columns of a boundary matrix have the same length,
    so the tie-break sets the fill: on `table 16` this one makes 0.74 M
    entry updates, where lowest index first made 2.50 M.  The order keeps
    the columns short (2.9 rows on average and 17 at most where a row
    leaves a column during `table 16`), so a removal is a short scan, and
    lists take less memory than dicts.  In each column, the pivot is the
    shortest row holding a +-1, the first in column order on a tie.
    Clearing the pivot column with row operations and dropping the pivot
    row and column is a unimodular Schur step, so the rank and the
    invariant factors are kept.  Returns the pivot columns in elimination
    order and the candidates that held no +-1 when popped; `rows` is left
    holding the non-unit remainder.
    """
    # the key (length, first row, -col) as one int, its fields in bit ranges
    # wide enough for any row and candidate: it orders as the tuple would,
    # in half the memory and without a new int for -col
    cbits = max(candidates, default=0).bit_length()
    rbits = cbits + max(rows, default=0).bit_length()
    cmax = (1 << cbits) - 1
    heap = []
    for c in candidates:
        live = cols[c]
        heap.append((len(live) << rbits) | ((live[0] if live else 0) << cbits) | (cmax - c))
    heapq.heapify(heap)
    pivots, stuck = [], []
    while heap:
        key = heapq.heappop(heap)
        c = cmax - (key & cmax)
        live = cols[c]
        if len(live) != key >> rbits:
            if live:
                heapq.heappush(heap, (len(live) << rbits) | (live[0] << cbits) | (cmax - c))
            continue
        piv = None
        for r in live:
            if rows[r][c] in (1, -1) and (piv is None or len(rows[r]) < len(rows[piv])):
                piv = r
        if piv is None:
            stuck.append(c)
            continue
        del cols[c]
        prow = rows.pop(piv)
        pv = prow.pop(c)
        for k in prow:
            cols[k].remove(piv)
        for r in live:
            if r == piv:
                continue
            # row -= q * prow as in `_sub` (pv is +-1, so q = row[c] / pv),
            # inlined to keep the column index exact
            row = rows[r]
            q = row.pop(c) * pv
            for k, v in prow.items():
                if k in row:
                    nv = row[k] - q * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
                        cols[k].remove(r)
                else:
                    row[k] = -q * v
                    cols[k].append(r)
            if not row:
                del rows[r]
        pivots.append(c)
    return pivots, stuck


def _quotient(e, v):
    # nearest quotient: the remainder e - q*v lies in (-v/2, v/2]
    q = e // v
    return q + 1 if 2 * (e - q * v) > v else q


def _sub(target, source, q):
    """target -= q * source on sparse {position: value} dicts."""
    if not q:
        return
    for k, v in source.items():
        nv = target.get(k, 0) - q * v
        if nv:
            target[k] = nv
        else:
            del target[k]


def _snf(rows) -> tuple:
    """The invariant factors of {row: {col: v}}, which is used up."""
    diag = []
    while rows:
        # nonzero entry of least absolute value, ties by row, then column
        _, r, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        while True:
            # clear column c with row operations, smallest row first (a
            # sorted list is a heap); a nonzero remainder becomes the pivot
            # and the old pivot row waits its turn
            pending = sorted(r2 for r2, row2 in rows.items() if c in row2 and r2 != r)
            while True:
                row = rows[r]
                v = row[c]
                if v < 0:
                    for cc in row:
                        row[cc] = -row[cc]
                    v = -v
                if not pending:
                    break
                r2 = heapq.heappop(pending)
                row2 = rows[r2]
                _sub(row2, row, _quotient(row2[c], v))
                if not row2:
                    del rows[r2]
                elif c in row2:
                    heapq.heappush(pending, r)
                    r = r2
            # column c now holds only the pivot, so a column operation
            # changes just the pivot row
            for c2 in sorted(row):
                if c2 == c:
                    continue
                e = row[c2]
                rem = e - _quotient(e, v) * v
                if rem:
                    row[c2] = rem
                    c = c2  # remainder is a smaller pivot
                    break
                del row[c2]
            else:
                break
        diag.append(v)
        del rows[r]

    units = diag.count(1)
    vals = []
    for d in diag:
        if d != 1:
            # insert d into the chain: one gcd/lcm pass keeps it dividing
            for i, a in enumerate(vals):
                g = math.gcd(a, d)
                vals[i], d = g, a * d // g
            vals.append(d)
    return (1,) * units + tuple(vals)


def rational_rank(m: IntMatrix) -> int:
    """Rank over the rationals by fraction-free cross-multiplication
    elimination; independent of the Smith normal form path."""
    a = m.to_rows()
    nrows, ncols = m.nrows, m.ncols
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        p = prow[col]
        for i in range(rank + 1, nrows):
            f = a[i][col]
            if f:
                g = math.gcd(f, p)
                pf, ff = p // g, f // g
                a[i] = [pf * x - ff * y for x, y in zip(a[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


class HomologySummary(NamedTuple):
    """Betti numbers and torsion coefficients per degree, plus the Euler
    characteristic of the built complex."""

    betti: dict
    torsion: dict
    euler: int
    cell_counts: dict
    truncated: tuple = ()

    def to_json_obj(self):
        obj = {str(k): {"betti": v, "torsion": list(self.torsion.get(k, []))}
               for k, v in sorted(self.betti.items())}
        obj["euler"] = self.euler
        obj["cells"] = {str(k): v for k, v in sorted(self.cell_counts.items())}
        obj["truncated_degrees"] = list(self.truncated)
        return obj


def homology_summary(cx: ChainComplex, max_deg: int | None = None) -> HomologySummary:
    """Betti numbers and torsion for degrees 0..max_deg.

    beta_n = c_n - rank(d_n) - rank(d_{n+1}); torsion in degree n is the list
    of invariant factors of d_{n+1} exceeding 1.  Degrees whose exactness
    would need cells above the built dimension cap are flagged as truncated
    rather than silently reported.  The complex's cells are used up.
    """
    return homology_summaries(cx, max_deg=max_deg)[0]


def homology_summaries(cx: ChainComplex, born_by=None, max_deg: int | None = None):
    """`homology_summary` of the cells born by each of ``born_by``, in one
    reduction; ``None`` reports the whole complex alone.

    The births must ascend and the complex must be birth-ordered (see
    `build_complex`), or ValueError is raised.  The cells born by t are a
    face-closed prefix of every dimension (see `snf`'s ``cuts``), each
    holding the one before it.  Every degree's boundary matrix is reduced
    once, by one `snf` over all the cuts, and clearing runs across degrees
    as for one cut.  Ranks and invariant factors do not depend on the order
    of rows and columns, so each result is exact over Z, torsion included;
    its cell counts and Euler characteristic are the prefix's.

    The complex hands its checked matrices over (`ChainComplex.release_cells`),
    and each matrix, with the columns it is cleared by, is freed once `snf`
    has read the rows of its last cut.
    """
    cuts = [cx.counts()] if born_by is None else [cx.born_by(t) for t in born_by]
    if max_deg is None:
        max_deg = max(cx.max_dim - 1, 0)
    top = min(max_deg + 1, max((d for d, c in cuts[-1].items() if c), default=0))
    matrices = cx.release_cells(top)
    forms = {}
    cleared = [()]
    for n in range(1, top + 1):
        # the +-1 pivot columns of d_n are n-cells, rows that d_{n+1} drops;
        # each matrix and set is handed to `snf`, which frees it once read,
        # so nothing here keeps them: not even ``res``
        res = snf(matrices.pop(n), cleared=cleared.pop(),
                  cuts=[(c.get(n - 1, 0), c.get(n, 0)) for c in cuts])
        forms[n] = res.per_cut
        cleared.append(res.paired)
        del res
    return [_summary(cx, counts, {n: f[i] for n, f in forms.items()}, max_deg)
            for i, counts in enumerate(cuts)]


def _summary(cx, counts, forms, max_deg):
    """One cut's summary from its (rank, non-unit factors) per degree."""
    def rank_of(n):
        return forms[n][0] if n in forms else 0

    betti = {}
    torsion = {}
    truncated = []
    for n in range(max_deg + 1):
        betti[n] = counts.get(n, 0) - rank_of(n) - rank_of(n + 1)
        torsion[n] = list(forms[n + 1][1]) if n + 1 in forms else []
        if n + 1 > cx.max_dim and not cx.complete:
            truncated.append(n)
    euler = sum((-1) ** d * c for d, c in counts.items())
    return HomologySummary(betti, torsion, euler, counts, tuple(truncated))
