"""What the test modules draw from or compare against, defined once.

- Random generators.  `random_dow`, `random_consistent_digraph` and
  `random_matrix` are the ones `prodsim verify` ships, re-exported from the
  CLI; `random_digraph` gives DAGs and graphs with 2-cycles,
  `random_packed` matrices with empty rows and huge values,
  `random_dense_matrix` small dense ones, `random_unit_heavy_matrix`
  sparse ones of mostly unit entries and `random_scaled_matrix` those with
  some rows multiplied by a given prime.
- Fixed inputs: `dow` parses a word, `simplex_digraph` is the transitive
  tournament.
- Oracles: `longest_repeat_and_return` for the maximal factors of a word,
  `canonical_with_sign` and `brute_force_cells` for the cell search,
  `add_layer_per_grid` for its layer step, `dense_product` for the d.d
  check, `minor_gcd_invariant_factors` for the Smith form, `rank_mod_p` for
  the invariant factors divisible by a prime, `betti` (the Smith path's
  Betti numbers), and `rational_betti` and `convolve`, the `product`
  suite's rational Betti numbers and Kunneth formula.
- Reference tables: `TANGLED_REFERENCE`.
"""

import math
from itertools import combinations, permutations
from itertools import product as grid_points

from prodsim import Cell, Digraph, Dow, IntMatrix, build_complex, homology_summary, parse_word
from prodsim.cells import _block_sign, _positions, _shape_rule
from prodsim.cli import (  # re-exported: `verify` ships these
    _convolve as convolve,
    _random_consistent_digraph as random_consistent_digraph,
    _random_dow as random_dow,
    _random_matrix as random_matrix,
    _rational_betti as rational_betti,
)

TANGLED_REFERENCE = {  # n: (beta1, beta2, vertices) of the tangled cord
    2: (0, 0, 2), 3: (1, 0, 5), 4: (1, 2, 8), 5: (2, 6, 13),
    6: (1, 27, 21), 7: (1, 54, 34), 8: (1, 86, 55),
    9: (1, 111, 89), 10: (1, 126, 144), 11: (1, 116, 233), 12: (1, 112, 377),
    13: (1, 102, 610), 14: (1, 108, 987),
}


def dow(text):
    return Dow(parse_word(text))


def simplex_digraph(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(n + 1)]
    return Digraph(vs, [(vs[i], vs[j]) for i in range(n + 1) for j in range(i + 1, n + 1)])


def random_digraph(rng, n, forward, backward=None):
    """Vertices v0..v{n-1} and one draw r per pair i < j: the edge vi -> vj
    when r < forward, and vj -> vi when r lies strictly inside the interval
    ``backward``; without it the graph is acyclic."""
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i, j in combinations(range(n), 2):
        r = rng.random()
        if r < forward:
            edges.append((vs[i], vs[j]))
        if backward and backward[0] < r < backward[1]:
            edges.append((vs[j], vs[i]))
    return Digraph(vs, edges)


def random_packed(rng, nrows, ncols):
    """A random matrix with empty rows and values past 2**63, of both signs."""
    entries = {}
    for r in range(nrows):
        if rng.random() < 0.3:
            continue
        for c in range(ncols):
            if rng.random() < 0.4:
                entries[r, c] = rng.choice((1, -1)) * rng.choice((1, 2, 3, 2**64 + 1, 3**50))
    return IntMatrix(nrows, ncols, entries)


def random_dense_matrix(rng):
    """1-5 rows and columns, every entry drawn from -10..10."""
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    return IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(nc)] for _ in range(nr)])


def random_unit_heavy_matrix(rng):
    """0-10 rows and columns, each entry present with a density drawn per
    matrix, values from 1, -1, 2, -2, 3, -3, 4, 6, so that fill-in can turn a
    unit into a non-unit and back."""
    values = (1, -1, 2, -2, 3, -3, 4, 6)
    nr, nc, density = rng.randint(0, 10), rng.randint(0, 10), rng.random()
    return IntMatrix(nr, nc, {(r, c): rng.choice(values)
                              for r in range(nr) for c in range(nc)
                              if rng.random() < density})


def random_scaled_matrix(rng, p):
    """A `random_unit_heavy_matrix` with each row multiplied by ``p`` with
    probability 1/3, so that p divides some invariant factors for any p."""
    m = random_unit_heavy_matrix(rng)
    scaled = {r for r in range(m.nrows) if rng.random() < 1 / 3}
    return IntMatrix(m.nrows, m.ncols, {(r, c): v * p if r in scaled else v
                                        for (r, c), v in m.entries.items()})


def longest_repeat_and_return(w, symbol):
    """Oracle: the lengths of the longest repeat and the longest return
    through the two occurrences p < q of ``symbol`` in ``w``, trying every
    extent (r, s).  A repeat needs w[p - r .. p + s] == w[q - r .. q + s], a
    return needs the reverse of w[p - r .. p + s] == w[q - s .. q + r], and
    both need the two intervals inside the word, the first ending before the
    second starts."""
    w = tuple(w)
    n = len(w)
    p, q = (i for i, x in enumerate(w) if x == symbol)
    repeat = ret = 0
    for r in range(p + 1):
        for s in range(n - p):
            u = w[p - r:p + s + 1]
            if p + s < q - r and q + s < n and w[q - r:q + s + 1] == u:
                repeat = max(repeat, len(u))
            if p + s < q - s and q + r < n and w[q - s:q + r + 1] == u[::-1]:
                ret = max(ret, len(u))
    return repeat, ret


def canonical_with_sign(shape, grid):
    """Oracle: sort factors into canonical order, equal dimensions by the
    second vertex on each axis; the sign is the orientation parity of the
    factor-block permutation (blocks weighted by their dimensions)."""
    shape = tuple(shape)
    grid = tuple(grid)
    k = len(shape)
    if k <= 1:
        return Cell(shape, grid), 1
    axes = _shape_rule(shape)[0]
    order = sorted(range(k), key=lambda i: (-shape[i], grid[axes[i][1]]))
    if order == list(range(k)):
        return Cell(shape, grid), 1
    new_grid = tuple(grid[p] for p in _positions([axes[i] for i in order]))
    return (Cell(tuple(shape[i] for i in order), new_grid),
            _block_sign(shape, order))


def add_layer_per_grid(shape, smaller, fwd, adj):
    """Oracle: the layer search of `cells._add_layer`, each predecessor
    grid's row masks worked out on their own."""
    m = shape[-1]
    tie = len(shape) > 1 and shape[-2] == m
    found = []
    for grid in smaller:
        if tie and m > 1 and grid[1] < grid[m]:
            continue
        rows = [grid[i:i + m] for i in range(0, len(grid), m)]
        used = 0
        row_adj = []
        for row in rows:
            seen = 0
            for v in row:
                seen |= adj[v]
                used |= 1 << v
            row_adj.append(seen)
        base = []
        for t, row in enumerate(rows):
            cand = ~used
            for v in row:
                cand &= fwd[v]
            for t2, seen in enumerate(row_adj):
                if t2 != t:
                    cand &= ~seen
            base.append(cand)
        if tie and m == 1:
            base[0] &= -2 << grid[1]
        if not all(base):
            continue
        first = [row[0] for row in rows]
        linked = [[fwd[y] >> x & 1 for y in first[:t]] for t, x in enumerate(first)]
        new = [0] * len(rows)

        def assign(t):
            if t == len(rows):
                found.append(tuple(v for row, x in zip(rows, new) for v in (*row, x)))
                return
            cand = base[t]
            for y, link in zip(new, linked[t]):
                cand &= fwd[y] if link else ~(adj[y] | 1 << y)
            while cand:
                low = cand & -cand
                new[t] = low.bit_length() - 1
                assign(t + 1)
                cand ^= low

        assign(0)
    return found


def _skeleton_edges(shape):
    multis = list(grid_points(*(range(n + 1) for n in shape)))
    edges = set()
    for i, a in enumerate(multis):
        for j, b in enumerate(multis):
            diff = [k for k in range(len(shape)) if a[k] != b[k]]
            if len(diff) == 1 and a[diff[0]] < b[diff[0]]:
                edges.add((i, j))
    return multis, edges


def brute_force_cells(g, shape):
    """Oracle: try every injective assignment of vertices to grid positions
    and keep those whose induced subgraph equals the product skeleton."""
    multis, skeleton = _skeleton_edges(shape)
    total = len(multis)
    found = set()
    for subset in combinations(sorted(g.vertices), total):
        for perm in permutations(subset):
            ok = True
            for i in range(total):
                for j in range(total):
                    if i == j:
                        continue
                    if g.has_edge(perm[i], perm[j]) != ((i, j) in skeleton):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(canonical_with_sign(shape, perm)[0])
    return found


def betti(g, max_dim=3):
    """Betti numbers {degree: beta} of g's complex through ``max_dim``, by
    the Smith path."""
    return homology_summary(build_complex(g, max_dim)).betti


def dense_product(a: IntMatrix, b: IntMatrix):
    """Oracle: the product a * b as dense rows, entry by entry."""
    left, right = a.to_rows(), b.to_rows()
    return [[sum(row[k] * right[k][c] for k in range(b.nrows)) for c in range(b.ncols)]
            for row in left]


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def minor_gcd_invariant_factors(m: IntMatrix):
    """Oracle: d_1 ... d_k = gcd of all k x k minors (dims <= 5)."""
    rows = m.to_rows()
    factors = []
    prev = 1
    for k in range(1, min(m.nrows, m.ncols) + 1):
        g = 0
        for rsel in combinations(range(m.nrows), k):
            for csel in combinations(range(m.ncols), k):
                g = math.gcd(g, _det([[rows[r][c] for c in csel] for r in rsel]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Oracle: the rank of m over GF(p), p prime; the rank over Q minus this
    counts the invariant factors of m that p divides.

    Gaussian elimination mod p, with no arithmetic in common with the Smith
    path: each row in turn is reduced by its last column against the rows
    kept so far, and kept, scaled to end in 1, once that column is new."""
    kept = {}  # last column: the kept row that ends there
    starts = m.starts
    for s, e in zip(starts, starts[1:]):
        row = {c: v % p for c, v in zip(m.cols[s:e], m.vals[s:e]) if v % p}
        while row:
            last = max(row)
            if last not in kept:
                inverse = pow(row[last], -1, p)
                kept[last] = {c: v * inverse % p for c, v in row.items()}
                break
            f = row[last]
            for c, v in kept[last].items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(kept)
