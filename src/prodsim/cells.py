"""Prodsimplicial cells in a digraph and the graded chain complex they form.

A cell of shape (n1, ..., nk) is a product of simplicial digraphs (directed
transitive tournaments).  Its data is an injective grid of host vertices,
one per multi-index, whose induced subgraph equals the Cartesian-product
skeleton exactly: a cell is attached only when no extra edges run between
its grid vertices.  Within a factor the vertex order is the tournament's
unique topological order; factors are kept sorted by descending dimension
with ties broken by the second vertex on each axis, and that canonical
ordering is the orientation representative used by the boundary operator.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Sequence
from itertools import chain, compress, groupby, islice, repeat
from operator import and_, itemgetter, lshift, lt, mul
from typing import NamedTuple

from .digraph import Digraph, longest_path_length
from .matrices import IntMatrix


class InconsistentComplexError(RuntimeError):
    """The boundary operator failed to square to zero (construction bug)."""


# grids per pass of the cell search and cells per pass of boundary assembly:
# it bounds each pass's transient lists
_RUN = 1024


def _positions(walk):
    """Grid positions of a row-major walk over per-factor offset lists."""
    pos = [0]
    for offsets in walk:
        pos = [p + q for p in pos for q in offsets]
    return tuple(pos)


def _block_sign(dims, order):
    """Orientation parity of reordering blocks of dimensions ``dims``."""
    sign = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b] and (dims[order[a]] * dims[order[b]]) % 2:
                sign = -sign
    return sign


@functools.cache
def _shape_rule(shape):
    """What a shape alone decides: each factor's axis positions from the
    grid origin, and the facet rule.

    Per factor i and deleted vertex j, the rule holds the grid positions the
    facet keeps, its sub-shape, with a one-vertex factor absorbed and the
    rest stably sorted by descending dimension, and its sign: (-1)^(alpha+j),
    alpha the dimensions before factor i, times the parity of that sort.
    When the sub-shape repeats a dimension, the label order of those factors
    is the cell's to settle, and the rule adds their `_Ties`.
    """
    axes, stride = (), 1
    for n in reversed(shape):
        axes = (tuple(range(0, (n + 1) * stride, stride)),) + axes
        stride *= n + 1
    rule = []
    for i, n in enumerate(shape):
        dims = shape[:i] + (n - 1,) + shape[i + 1:]
        order = sorted(range(len(shape)), key=lambda a: -dims[a])
        sign = (-1) ** sum(shape[:i]) * _block_sign(dims, order)
        sub = tuple(dims[a] for a in order if dims[a])
        tied = tuple(f for f, d in enumerate(sub) if sub.count(d) > 1)
        for j in range(n + 1):
            walk = [[q for t, q in enumerate(axes[a]) if a != i or t != j] for a in order]
            positions = _positions(walk)
            rule.append((positions, sub, sign, _Ties(sub, positions, sign, tied) if tied else None))
            sign = -sign
    return axes, tuple(rule)


class _Ties:
    """How a cell's labels order a facet's equal-dimension factors.

    ``pairs`` lists every pair of tied factors of equal dimension, and
    ``seconds`` the cell-grid positions of the two factors' second vertices,
    pair by pair; the grid is injective and every axis starts at the
    origin, so those labels decide.  A cell's comparison pattern holds one flag per pair, true when
    the later factor's label is the smaller, and names the order of the tied
    factors; `entry` tables each pattern's gather of the facet grid from the
    cell grid and its sign as patterns occur (see `_facet_plan`).
    """

    __slots__ = ("shape", "positions", "sign", "tied", "pairs", "seconds", "orders")

    def __init__(self, shape, positions, sign, tied):
        self.shape, self.positions, self.sign, self.tied = shape, positions, sign, tied
        self.pairs = tuple((a, b) for a in tied for b in tied if a < b and shape[a] == shape[b])
        axes = _shape_rule(shape)[0]
        self.seconds = tuple((positions[axes[a][1]], positions[axes[b][1]])
                             for a, b in self.pairs)
        self.orders = {}

    def entry(self, pattern):
        """The facet grid's gather from the cell grid, an itemgetter, and the
        sign, with the tied factors in the order that the comparison
        ``pattern`` names."""
        entry = self.orders.get(pattern)
        if entry is None:
            # a flipped pair moves its first factor a slot later, its second one earlier
            slot = list(range(len(self.shape)))
            for (a, b), flip in zip(self.pairs, pattern):
                slot[a] += flip
                slot[b] -= flip
            order = sorted(range(len(slot)), key=slot.__getitem__)
            axes = _shape_rule(self.shape)[0]
            walk = _positions([axes[f] for f in order])
            entry = self.orders[pattern] = (itemgetter(*(self.positions[q] for q in walk)),
                                            self.sign * _block_sign(self.shape, order))
        return entry


class Cell(NamedTuple):
    """One prodsimplicial cell: a factor shape plus a row-major vertex grid.

    ``shape`` is () for a vertex, (n,) for an n-simplex, and a non-increasing
    tuple of factor dimensions otherwise.  ``grid`` lists host vertices over
    the multi-index range, last factor varying fastest: labels, or in a
    `ChainComplex` indices into its sorted labels.  Both are tuples, so
    cells hash, compare and sort by ``(shape, grid)``.
    """

    shape: tuple
    grid: tuple

    @property
    def dim(self) -> int:
        return sum(self.shape)

    @property
    def factors(self):
        """Axis tuples: the vertex rows from the grid origin along each factor."""
        return tuple(tuple(self.grid[p] for p in axis) for axis in _shape_rule(self.shape)[0])

    def vertices(self):
        return set(self.grid)

    def __repr__(self):
        if not self.shape:
            return f"Cell(vertex {self.grid[0]!r})"
        facs = "x".join(str(n) for n in self.shape)
        return f"Cell({facs}: {self.grid})"


def _gather(positions, grids):
    """Each grid's labels at ``positions``, as tuples."""
    if len(positions) == 1:
        return zip(map(itemgetter(*positions), grids))
    return map(itemgetter(*positions), grids)


def _facet_plan(shape, grids):
    """The facets of every cell of ``shape``, one facet rule at a time.

    Yields (sub-shape, signs, facet grids) per rule, in the shape's rule
    order, with one sign and one facet grid per grid of ``grids``, in
    order.  A rule without ties gathers every facet grid at its positions,
    under its one sign.  A rule with ties compares each cell's labels one
    tied pair at a time, and takes each cell's facet grid and sign from the
    entry `_Ties` tables for the cell's comparison pattern.
    """
    for positions, sub_shape, sign, ties in _shape_rule(shape)[1]:
        if ties is None:
            yield sub_shape, repeat(sign, len(grids)), _gather(positions, grids)
        else:
            patterns = list(zip(*[map(lt, map(itemgetter(b), grids), map(itemgetter(a), grids))
                                  for a, b in ties.seconds]))
            table = {pattern: ties.entry(pattern) for pattern in set(patterns)}
            entries = list(map(table.__getitem__, patterns))
            yield (sub_shape, map(itemgetter(1), entries),
                   map(itemgetter.__call__, map(itemgetter(0), entries), grids))


def _spread(runs, field):
    """Each cell's ``field`` (0 its birth, 1 its shape), cell by cell, from
    a dimension's (birth, shape, count) runs."""
    return chain.from_iterable(repeat(run[field], run[2]) for run in runs)


def _shape_chunks(grids, runs):
    """A dimension's grids in runs of consecutive cells of one shape, each
    at most `_RUN` long: (shape, the run's grids)."""
    lo = 0
    for shape, same in groupby(runs, itemgetter(1)):
        hi = lo + sum(map(itemgetter(2), same))
        for start in range(lo, hi, _RUN):
            yield shape, grids[start:min(start + _RUN, hi)]
        lo = hi


def facets(cell: Cell):
    """Signed facets of a cell under the product boundary rule.

    Factor i contributes its simplex boundary with global sign (-1)^alpha(i),
    alpha(i) the sum of the preceding factor dimensions; deleting vertex j
    inside the factor carries (-1)^j, and re-sorting the resulting factors
    multiplies by the block-permutation parity.  The shape's facet rule
    decides all of it, the cell's labels only the order of equal-dimension
    factors (see `_Ties`).  This is the one-cell case of `_facet_plan`.
    """
    if cell.dim == 0:
        raise ValueError("a vertex has no facets")
    return [(Cell(sub_shape, grid), sign)
            for sub_shape, signs, grids in _facet_plan(cell.shape, (cell.grid,))
            for grid, sign in zip(grids, signs)]


def _partitions(n, max_part=None):
    """Non-increasing integer partitions of n with parts >= 1."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _fold(op, columns):
    """``op`` folded across the columns, grid by grid."""
    columns = iter(columns)
    out = next(columns)
    for col in columns:
        out = map(op, out, col)
    return list(out)


def _add_layer(shape, smaller, fwd, far, ids):
    """Canonical grids of every cell of ``shape``, grown from ``smaller``,
    the canonical grids of its predecessor: S+(m-1) for S+(m), or S when
    m = 1.  Dropping the last vertex of a canonical cell's last factor
    leaves a canonical predecessor, so every cell is reached this way.

    Grids hold vertex indices, each the one int ``ids`` holds for it;
    ``fwd[v]`` and ``far[v]`` are bitmasks of v's one-way out-neighbours
    and of the vertices other than v not adjacent to it.  The predecessor
    grid splits into rows of m vertices, one per multi-index of S, and each
    row gains a vertex that is a one-way out-neighbour of the whole row,
    adjacent to no other row, new to the cell, and joined to the other new
    vertices exactly as the first layer is joined.  When S ends in a factor
    of dimension m too, the grown factor must sort after it, so each cell
    is found once and already canonical.

    The rows' candidate masks are worked out a grid position at a time, over
    runs of at most `_RUN` grids; only grids with a candidate in every row
    are searched, one at a time.
    """
    m = shape[-1]
    tie = len(shape) > 1 and shape[-2] == m
    if tie and m > 1:
        smaller = [grid for grid in smaller if grid[1] > grid[m]]
    found = []
    for start in range(0, len(smaller), _RUN):
        run = smaller[start:start + _RUN]
        cols = list(zip(*run))
        rows = [cols[i:i + m] for i in range(0, len(cols), m)]
        # per row: the one-way out-neighbours of all its vertices, which are
        # never its own vertices, and far from every vertex of the other rows
        outs = [_fold(and_, (map(fwd.__getitem__, col) for col in row)) for row in rows]
        masks = [_fold(and_, [outs[t], *(map(far.__getitem__, col)
                                          for col in cols[:t * m] + cols[(t + 1) * m:])])
                 for t in range(len(rows))]
        if tie and m == 1:  # the first new vertex must sort after the grid's second
            masks[0] = list(map(and_, masks[0], map(lshift, repeat(-2), cols[1])))
        masks = list(zip(*masks))
        for grid, base in compress(zip(run, masks), map(all, masks)):
            _search(grid, m, base, fwd, far, ids, found)
    return found


def _search(grid, m, base, fwd, far, ids, found):
    """Append to ``found`` every grid that grows ``grid`` by one new vertex
    per row of m, the t-th drawn from ``base[t]``.

    A depth-first search: ``cands[t]`` holds row t's candidates not yet
    tried under the new vertices of rows before it, lowest vertex first.
    """
    rows = [grid[i:i + m] for i in range(0, len(grid), m)]
    first = [row[0] for row in rows]
    linked = [[fwd[y] >> x & 1 for y in first[:t]] for t, x in enumerate(first)]
    last = len(rows) - 1
    new = [0] * len(rows)
    cands = [base[0]] + [0] * last
    t = 0
    while t >= 0:
        cand = cands[t]
        if not cand:
            t -= 1
            continue
        low = cand & -cand
        cands[t] = cand ^ low
        new[t] = ids[low.bit_length() - 1]
        if t == last:
            found.append(tuple(v for row, x in zip(rows, new) for v in (*row, x)))
            continue
        t += 1
        cand = base[t]
        for y, link in zip(new, linked[t]):
            cand &= fwd[y] if link else far[y]
        cands[t] = cand


class _Cells(Sequence):
    """One dimension's cells, in order, each `Cell` built from the
    dimension's index grids and runs as it is read."""

    __slots__ = ("_grids", "_runs")

    def __init__(self, grids, runs):
        self._grids, self._runs = grids, runs

    def __len__(self):
        return len(self._grids)

    def __iter__(self):
        return map(Cell, _spread(self._runs, 1), self._grids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        grid = self._grids[i]
        i %= len(self._grids)
        for _, shape, n in self._runs:
            if i < n:
                return Cell(shape, grid)
            i -= n

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _Cells) else other)


class ChainComplex:
    """Cells graded by dimension with integer boundary matrices.

    A dimension is held as its cells' grids, in order, and its runs: each
    run (birth, shape, count) stands for ``count`` consecutive cells of one
    shape and, when the cells are ordered by birth (see `build_complex`),
    of one birth, None otherwise.  Only the dimensions that hold cells are
    kept, so a large ``max_dim`` costs nothing above the top cell.  A grid
    holds indices into ``labels``, the sorted vertex labels, so index order
    is label order and cells sort, and settle factor ties, as their labelled
    forms do.  Cells are sorted, so the matrices are byte-identical across
    runs.  ``complete`` records whether the graph provably has no cells
    above ``max_dim``.

    ``cells`` maps every dimension 0..max_dim to a sequence of its `Cell`s,
    each built as it is read; `labelled` gives them with labels, and
    ``births``, on a birth-ordered complex, each cell's birth.

    `boundary_matrix` builds a matrix afresh from the grids on each call;
    `release_cells` hands every matrix over once and drops the grids, after
    which only the runs stay: the counts and births.
    """

    def __init__(self, labels, max_dim: int, grids, runs, complete: bool, by_birth=False):
        self.max_dim = max_dim
        self.labels = labels
        self.complete = complete
        self.by_birth = by_birth
        self._grids = grids  # {d: [grid, ...]} for each d that holds cells
        self._runs = runs  # {d: [(birth, shape, count), ...]}, the same d
        # cell indices, one shared int each, as every grid shares its vertex
        # indices: the matrices' columns hold them, and a row dict's keys
        self._index = list(range(max(map(len, grids.values()), default=0)))

    @classmethod
    def from_cells(cls, labels, max_dim: int, cells, complete: bool):
        """The complex of ``cells``, a {d: [Cell]} map of index-grid cells
        in the order the matrices take them."""
        grids, runs = {}, {}
        for d, cs in cells.items():
            if cs:
                grids[d] = [c.grid for c in cs]
                runs[d] = [(None, shape, len(list(same)))
                           for shape, same in groupby(c.shape for c in cs)]
        return cls(labels, max_dim, grids, runs, complete)

    @property
    def cells(self):
        """{d: dimension d's `Cell`s} for d = 0..max_dim, None once released."""
        if self._grids is None:
            return None
        return {d: _Cells(*self._dimension(d)) for d in range(self.max_dim + 1)}

    @property
    def births(self):
        """{d: each d-cell's birth, in order} on a birth-ordered complex,
        else None."""
        if not self.by_birth:
            return None
        return {d: list(_spread(self._runs.get(d, ()), 0)) for d in range(self.max_dim + 1)}

    def counts(self):
        return {d: sum(map(itemgetter(2), self._runs.get(d, ()))) for d in range(self.max_dim + 1)}

    def born_by(self, t):
        """{d: how many d-cells are born by ``t``} for d = 0..max_dim: a
        leading block of each dimension of a birth-ordered complex."""
        if not self.by_birth:
            raise ValueError("births to report need a complex built with births")
        return {d: sum(n for b, _, n in self._runs.get(d, ()) if b <= t)
                for d in range(self.max_dim + 1)}

    def top_dim(self) -> int:
        return max(self._runs, default=0)

    def _named(self, cell: Cell) -> Cell:
        return Cell(cell.shape, tuple(map(self.labels.__getitem__, cell.grid)))

    def _dimension(self, d: int):
        """Dimension d's grids and runs."""
        if self._grids is None:
            raise RuntimeError("the cells were released; build the complex again")
        return self._grids.get(d, ()), self._runs.get(d, ())

    def labelled(self, d: int):
        """Dimension d's cells, in order, with grids of vertex labels."""
        return list(map(self._named, _Cells(*self._dimension(d))))

    def release_cells(self, top: int | None = None) -> dict:
        """{n: d_n} for n = 1..``top``, by default the top dimension, checked
        to square to zero.  They are built from d_top down, and each
        dimension's grids go once the last matrix that reads them is built,
        all of them even when an assembly raises; reading the cells after
        this raises RuntimeError.  The flat matrices are all a reduction
        needs: it makes row dicts of its own from them."""
        top = self.top_dim() if top is None else top
        matrices = {}
        try:
            for n in range(top, 0, -1):
                matrices[n] = self.boundary_matrix(n)
                self._grids.pop(n, None)
        finally:
            self._grids = self._index = None
        self.check_boundary_squares_to_zero(matrices)
        return matrices

    def boundary_matrix(self, n: int) -> IntMatrix:
        """Signed incidence of n-cells (columns) on (n-1)-cells (rows)."""
        if not 1 <= n <= self.max_dim:
            raise ValueError(f"boundary degree {n} outside 1..{self.max_dim}")
        (cols, runs), (below, below_runs) = self._dimension(n), self._dimension(n - 1)
        row_of = defaultdict(dict)  # {shape: {grid: row}}
        rows, index = iter(below), iter(self._index)
        for _, shape, count in below_runs:
            row_of[shape].update(zip(islice(rows, count), index))
        # a run's facets are looked up rule by rule and laid out cell by
        # cell, so the entries come in column order: ``at`` holds their rows
        # and ``signs`` their values, in lists of the exact size, and a cell
        # has one facet per rule of its shape; the facets of a cell are
        # distinct cells, so each entry is written once
        nfacets = [len(_shape_rule(shape)[1]) for _, shape, _ in runs]
        size = sum(map(mul, nfacets, map(itemgetter(2), runs)))
        at, signs = [None] * size, [None] * size
        lo = 0
        try:
            for shape, grids in _shape_chunks(cols, runs):
                nrules = len(_shape_rule(shape)[1])
                hi = lo + nrules * len(grids)
                for rule, (sub_shape, facet_signs, fac_grids) in enumerate(_facet_plan(shape, grids)):
                    at[lo + rule:hi:nrules] = map(row_of[sub_shape].__getitem__, fac_grids)
                    signs[lo + rule:hi:nrules] = facet_signs
                lo = hi
        except KeyError as exc:
            fac = Cell(sub_shape, exc.args[0])
            cell = next(c for c in _Cells(cols, runs) if any(f == fac for f, _ in facets(c)))
            raise InconsistentComplexError(
                f"facet {self._named(fac)!r} of {self._named(cell)!r} "
                f"missing from dimension {n - 1}") from None
        del row_of  # d3's layout is the peak of `table N`; the index is done
        # each entry's column: a cell's index, once per facet
        per_cell = chain.from_iterable(map(repeat, nfacets, map(itemgetter(2), runs)))
        where = chain.from_iterable(map(repeat, self._index, per_cell))
        return IntMatrix.from_column_major(len(below), len(cols), at, where, signs)

    def check_boundary_squares_to_zero(self, matrices):
        """Raise InconsistentComplexError when d_{n-1} o d_n is nonzero for
        two adjacent degrees of ``matrices``, a {n: d_n} map.

        The check covers every face-closed prefix too: there the product of
        the restricted d_{n-1} and d_n is a submatrix of the full product,
        since no facet of a kept n-cell falls outside the cut.
        """
        for n in sorted(matrices):
            if n - 1 in matrices and not matrices[n - 1].annihilates(matrices[n]):
                raise InconsistentComplexError(f"d_{n - 1} o d_{n} != 0")


def _ordered(groups, born):
    """One dimension's grids, in order, from (shape, grids) groups, and
    their (birth, shape, count) runs.  The groups' lists are sorted in place.

    The grids come sorted by cell and then, when ``born`` maps each vertex
    index to its birth, stably by birth, so by (birth, cell): each grid's
    birth is worked out once and the grids, taken in cell order, are
    bucketed by birth and shape, a run per bucket.
    """
    groups = sorted(groups, key=itemgetter(0))
    for _, grids in groups:
        grids.sort()
    if born is None:
        return (list(chain.from_iterable(map(itemgetter(1), groups))),
                [(None, shape, len(grids)) for shape, grids in groups if grids])
    buckets = defaultdict(list)  # {(birth, shape): grids}
    for shape, grids in groups:
        for b, grid in zip(map(max, map(map, repeat(born.__getitem__), grids)), grids):
            buckets[b, shape].append(grid)
    del groups
    ordered, runs = [], []
    for b, shape in sorted(buckets):
        grids = buckets.pop((b, shape))
        ordered += grids
        runs.append((b, shape, len(grids)))
    return ordered, runs


def build_complex(g: Digraph, max_dim: int = 3, birth=None) -> ChainComplex:
    """Assemble the prodsimplicial complex of a digraph through max_dim.

    Dimension 0 holds every vertex and dimension 1 every edge; higher cells
    are simplices and products detected under the induced-subgraph rule.
    Facets of detected cells are always detected themselves, so the result
    is closed under faces by construction.  Grids hold vertex indices (see
    `ChainComplex`), each vertex's index one int object shared by every
    grid: a fresh int above 256 would cost a grid more than its label.

    ``birth``, a {vertex: int} map, orders each dimension by (birth, cell)
    instead of by cell, where a cell is born with the latest vertex on its
    grid, and the complex's runs carry the births.  Under the
    induced-subgraph rule the cells born by t are the complex of the
    subgraph on the vertices born by t: a face-closed prefix of every
    dimension.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    labels = sorted(g.vertices)
    ids = list(range(len(labels)))
    index = dict(zip(labels, ids))
    out = [sum(1 << index[w] for w in g.out(v)) for v in labels]
    inn = [sum(1 << index[w] for w in g.inn(v)) for v in labels]
    fwd = [o & ~i for o, i in zip(out, inn)]
    far = [~(o | i | 1 << v) for v, o, i in zip(ids, out, inn)]
    del out, inn
    # grids of vertex indices per shape; a 2-cycle never lies in a higher
    # cell, so the (1,) grids that grow the higher cells are the one-way
    # edges only, while dimension 1 holds every edge
    by_shape = {(): [(v,) for v in ids]}
    groups = {0: [((), by_shape[()])],
              1: [((1,), [(index[u], index[v]) for u, v in g.edges])]}
    for n in range(1, max_dim + 1):
        shapes = _partitions(n)
        for shape in shapes:
            smaller = shape[:-1] + (shape[-1] - 1,) if shape[-1] > 1 else shape[:-1]
            by_shape[shape] = _add_layer(shape, by_shape[smaller], fwd, far, ids)
        if not any(by_shape[shape] for shape in shapes):
            break  # every cell of dimension n + 1 grows from one of these
        if n > 1:
            groups[n] = [(shape, by_shape[shape]) for shape in shapes]
    # each dimension's lists go once it is ordered; no dimension above the
    # first empty one is kept
    del by_shape, fwd, far
    born = None if birth is None else [birth[v] for v in labels]
    grids, runs = {}, {}
    for n in sorted(groups):
        ordered, ordered_runs = _ordered(groups.pop(n), born)
        if ordered:
            grids[n], runs[n] = ordered, ordered_runs
    complete = max_dim not in grids
    if not complete:
        try:
            complete = max_dim >= longest_path_length(g)
        except ValueError:  # cyclic: no path length bounds the cell dimension
            pass
    return ChainComplex(labels, max_dim, grids, runs, complete, birth is not None)


def complex_to_json_obj(cx: ChainComplex) -> dict:
    cells = {str(d): [{"shape": list(c.shape),
                       "factors": [list(ax) for ax in c.factors],
                       "grid": list(c.grid)}
                      for c in cx.labelled(d)]
             for d in range(cx.max_dim + 1)}
    boundaries = {}
    for n in range(1, cx.top_dim() + 1):
        m = cx.boundary_matrix(n)
        boundaries[str(n)] = {"rows": m.nrows, "cols": m.ncols,
                              "triplets": [[r, c, v] for r, c, v in m.triplets()]}
    return {"max_dim": cx.max_dim, "complete": cx.complete,
            "cells": cells, "boundaries": boundaries}


def complex_to_json(cx: ChainComplex) -> str:
    import json  # here alone, so that importing the package leaves json out

    return json.dumps(complex_to_json_obj(cx), indent=2, sort_keys=True)
