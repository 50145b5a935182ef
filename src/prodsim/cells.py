"""Prodsimplicial cells in a digraph and the graded chain complex they form.

A cell of shape (n1, ..., nk) is a product of simplicial digraphs (directed
transitive tournaments).  Its data is an injective grid of host vertices,
one per multi-index, whose induced subgraph equals the Cartesian-product
skeleton exactly: a cell is attached only when no extra edges run between
its grid vertices.  Within a factor the vertex order is the tournament's
unique topological order; factors are kept sorted by descending dimension
with ties broken by their axis label tuples, and that canonical ordering is
the orientation representative used by the boundary operator.
"""

from __future__ import annotations

import itertools
import json
from math import prod
from typing import NamedTuple

from .digraph import Digraph, longest_path_length
from .matrices import IntMatrix


class InconsistentComplexError(RuntimeError):
    """The boundary operator failed to square to zero (construction bug)."""


def _strides(shape):
    sizes = [n + 1 for n in shape]
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return sizes, strides


class Cell(NamedTuple):
    """One prodsimplicial cell: a factor shape plus a row-major vertex grid.

    ``shape`` is () for a vertex, (n,) for an n-simplex, and a non-increasing
    tuple of factor dimensions otherwise.  ``grid`` lists host vertex labels
    over the multi-index range, last factor varying fastest.  Both are
    tuples, so cells hash, compare and sort by ``(shape, grid)``.
    """

    shape: tuple
    grid: tuple

    @property
    def dim(self) -> int:
        return sum(self.shape)

    @property
    def factors(self):
        """Axis tuples: the vertex rows from the grid origin along each factor."""
        sizes, strides = _strides(self.shape)
        return tuple(tuple(self.grid[j * strides[i]] for j in range(sizes[i]))
                     for i in range(len(self.shape)))

    def vertices(self):
        return set(self.grid)

    def __repr__(self):
        if not self.shape:
            return f"Cell(vertex {self.grid[0]!r})"
        facs = "x".join(str(n) for n in self.shape)
        return f"Cell({facs}: {self.grid})"

    @classmethod
    def canonical(cls, shape, grid) -> "Cell":
        return canonical_with_sign(shape, grid)[0]


def canonical_with_sign(shape, grid):
    """Sort factors into canonical order; the sign is the orientation parity
    of the factor-block permutation (blocks weighted by their dimensions)."""
    shape = tuple(shape)
    grid = tuple(grid)
    k = len(shape)
    if k <= 1:
        return Cell(shape, grid), 1
    sizes, strides = _strides(shape)
    axes = [tuple(grid[j * strides[i]] for j in range(sizes[i])) for i in range(k)]
    order = sorted(range(k), key=lambda i: (-shape[i], axes[i]))
    if order == list(range(k)):
        return Cell(shape, grid), 1
    sign = 1
    for a in range(k):
        for b in range(a + 1, k):
            if order[a] > order[b] and (shape[order[a]] * shape[order[b]]) % 2:
                sign = -sign
    new_shape = tuple(shape[i] for i in order)
    new_sizes = [n + 1 for n in new_shape]
    new_grid = []
    old_multi = [0] * k
    for multi in itertools.product(*(range(s) for s in new_sizes)):
        for t in range(k):
            old_multi[order[t]] = multi[t]
        new_grid.append(grid[sum(m * s for m, s in zip(old_multi, strides))])
    return Cell(new_shape, tuple(new_grid)), sign


def _subgrid(shape, grid, axis, kept):
    """Restrict one factor to the kept vertex indices; a factor reduced to a
    single vertex is absorbed into the remaining grid."""
    sizes, strides = _strides(shape)
    ranges = [range(sz) for sz in sizes]
    ranges[axis] = kept
    new_grid = tuple(grid[sum(m * s for m, s in zip(multi, strides))]
                     for multi in itertools.product(*ranges))
    if len(kept) == 1:
        new_shape = shape[:axis] + shape[axis + 1:]
    else:
        new_shape = shape[:axis] + (len(kept) - 1,) + shape[axis + 1:]
    return new_shape, new_grid


def facets(cell: Cell):
    """Signed facets of a cell under the product boundary rule.

    Factor i contributes its simplex boundary with global sign (-1)^alpha(i),
    alpha(i) the sum of the preceding factor dimensions; deleting vertex j
    inside the factor carries (-1)^j, and re-sorting the resulting factors
    multiplies by the block-permutation parity.
    """
    if cell.dim == 0:
        raise ValueError("a vertex has no facets")
    out = []
    alpha = 0
    for axis, n in enumerate(cell.shape):
        for j in range(n + 1):
            kept = [t for t in range(n + 1) if t != j]
            sub_shape, sub_grid = _subgrid(cell.shape, cell.grid, axis, kept)
            fac, csign = canonical_with_sign(sub_shape, sub_grid)
            sign = csign if (alpha + j) % 2 == 0 else -csign
            out.append((fac, sign))
        alpha += n
    return out


def _tournaments(g: Digraph, max_n: int):
    """Transitive tournaments by dimension, each as its unique topological
    vertex order.  Extension appends a common out-neighbor with no edges back
    into the current tuple, so 2-cycles never enter."""
    touts = {0: [(v,) for v in sorted(g.vertices)]}
    for d in range(1, max_n + 1):
        nxt = []
        for tup in touts[d - 1]:
            cands = set(g.out(tup[0]))
            for v in tup[1:]:
                cands &= g.out(v)
            for w in sorted(cands):
                if any(g.has_edge(w, v) for v in tup):
                    continue
                nxt.append(tup + (w,))
        touts[d] = nxt
    return touts


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


def _skeleton_relation(shape):
    """rel[t1][t2] = 1 when the product skeleton has edge t1 -> t2, i.e. the
    multi-indices differ in exactly one coordinate, increasing."""
    sizes, strides = _strides(shape)
    total = prod(sizes)
    multis = list(itertools.product(*(range(s) for s in sizes)))
    rel = [[0] * total for _ in range(total)]
    for t1 in range(total):
        for t2 in range(total):
            if t1 == t2:
                continue
            diff = [i for i in range(len(sizes)) if multis[t1][i] != multis[t2][i]]
            if len(diff) == 1 and multis[t1][diff[0]] < multis[t2][diff[0]]:
                rel[t1][t2] = 1
    return rel


def _product_cells(g: Digraph, shape, base_grids):
    """All cells of a k>=2 shape, built by stacking exact copies of a
    base-shape cell along the last (smallest) factor.

    Layer 0 runs over canonical base cells; further layers are grids found by
    depth-first search subject to exact translate edges, absence of any other
    edges between layers, and global vertex distinctness.  Every abstract
    cell is found at least once and deduplicated by canonical form.
    """
    base_shape = shape[:-1]
    layers_needed = shape[-1] + 1
    base_len = prod(n + 1 for n in base_shape)
    rel = _skeleton_relation(base_shape)
    found = set()

    def extend(stack, used):
        if len(stack) == layers_needed:
            grid = []
            for t in range(base_len):
                for layer in stack:
                    grid.append(layer[t])
            found.add(Cell.canonical(base_shape + (shape[-1],), grid))
            return
        last = stack[-1]
        layer = [None] * base_len

        def ok(x, t):
            if x in used:
                return False
            for h in stack:
                if not g.has_edge(h[t], x) or g.has_edge(x, h[t]):
                    return False
                for t2 in range(base_len):
                    if t2 == t:
                        continue
                    if g.has_edge(h[t2], x) or g.has_edge(x, h[t2]):
                        return False
            for t2 in range(t):
                y = layer[t2]
                if x == y:
                    return False
                if rel[t2][t]:
                    if not g.has_edge(y, x) or g.has_edge(x, y):
                        return False
                else:
                    if g.has_edge(y, x) or g.has_edge(x, y):
                        return False
            return True

        def assign(t):
            if t == base_len:
                new_layer = tuple(layer)
                used.update(new_layer)
                stack.append(new_layer)
                extend(stack, used)
                stack.pop()
                used.difference_update(new_layer)
                return
            for x in sorted(g.out(last[t])):
                if ok(x, t):
                    layer[t] = x
                    assign(t + 1)
                    layer[t] = None

        assign(0)

    for g0 in base_grids:
        extend([g0], set(g0))
    return sorted(found)


class ChainComplex:
    """Cells graded by dimension with integer boundary matrices.

    Cell lists are sorted, so the index maps and matrices are byte-identical
    across runs.  ``complete`` records whether the graph provably has no
    cells above ``max_dim``.
    """

    def __init__(self, graph: Digraph, max_dim: int, cells):
        self.graph = graph
        self.max_dim = max_dim
        self.cells = cells
        self.index = {d: {c: i for i, c in enumerate(cs)} for d, cs in cells.items()}
        self._matrices = {}
        top = max(d for d in cells)
        self.complete = not cells.get(top)
        if not self.complete:
            try:
                self.complete = max_dim >= longest_path_length(graph)
            except ValueError:  # cyclic: no path length bounds the cell dimension
                pass

    def counts(self):
        return {d: len(cs) for d, cs in self.cells.items()}

    def top_dim(self) -> int:
        return max((d for d, cs in self.cells.items() if cs), default=0)

    def boundary_matrix(self, n: int) -> IntMatrix:
        """Signed incidence of n-cells (columns) on (n-1)-cells (rows)."""
        if not 1 <= n <= self.max_dim:
            raise ValueError(f"boundary degree {n} outside 1..{self.max_dim}")
        if n in self._matrices:
            return self._matrices[n]
        rows = self.index.get(n - 1, {})
        cols = self.cells.get(n, [])
        entries = {}
        for j, cell in enumerate(cols):
            for fac, sign in facets(cell):
                i = rows.get(fac)
                if i is None:
                    raise InconsistentComplexError(
                        f"facet {fac!r} of {cell!r} missing from dimension {n - 1}")
                key = (i, j)
                entries[key] = entries.get(key, 0) + sign
        m = IntMatrix(len(rows), len(cols), entries)
        self._matrices[n] = m
        return m

    def check_boundary_squares_to_zero(self):
        """Raise InconsistentComplexError when some product of consecutive
        boundary matrices is nonzero."""
        for n in range(2, self.top_dim() + 1):
            if self.cells.get(n) and not self.boundary_matrix(n - 1).matmul(
                    self.boundary_matrix(n)).is_zero():
                raise InconsistentComplexError(f"d_{n - 1} o d_{n} != 0")


def build_complex(g: Digraph, max_dim: int = 3) -> ChainComplex:
    """Assemble the prodsimplicial complex of a digraph through max_dim.

    Dimension 0 holds every vertex and dimension 1 every edge; higher cells
    are simplices and products detected under the induced-subgraph rule.
    Facets of detected cells are always detected themselves, so the result
    is closed under faces by construction.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be at least 1")
    touts = _tournaments(g, max_dim)
    cells = {
        0: [Cell((), (v,)) for v in sorted(g.vertices)],
        1: [Cell((1,), e) for e in sorted(g.edges)],
    }
    by_shape = {(d,): sorted(touts[d]) for d in range(1, max_dim + 1)}
    for n in range(2, max_dim + 1):
        items = [Cell((n,), t) for t in by_shape[(n,)]]
        for shape in _partitions(n):
            if len(shape) < 2:
                continue
            prods = _product_cells(g, shape, by_shape[shape[:-1]])
            by_shape[shape] = [c.grid for c in prods]
            items.extend(prods)
        cells[n] = sorted(items)
    return ChainComplex(g, max_dim, cells)


def complex_to_json_obj(cx: ChainComplex) -> dict:
    cells = {str(d): [{"shape": list(c.shape),
                       "factors": [list(ax) for ax in c.factors],
                       "grid": list(c.grid)}
                      for c in cs]
             for d, cs in sorted(cx.cells.items())}
    boundaries = {}
    for n in range(1, cx.top_dim() + 1):
        m = cx.boundary_matrix(n)
        boundaries[str(n)] = {"rows": m.nrows, "cols": m.ncols,
                              "triplets": [[r, c, v] for r, c, v in m.triplets()]}
    return {"max_dim": cx.max_dim, "complete": cx.complete,
            "cells": cells, "boundaries": boundaries}


def complex_to_json(cx: ChainComplex) -> str:
    return json.dumps(complex_to_json_obj(cx), indent=2, sort_keys=True)
