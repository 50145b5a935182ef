"""Graph generators, oracles and reference tables shared by the test modules."""

import math
from itertools import combinations

from prodsim import Digraph, Dow, IntMatrix, parse_word

TANGLED_REFERENCE = {  # n: (beta1, beta2, vertices) of the tangled cord
    2: (0, 0, 2), 3: (1, 0, 5), 4: (1, 2, 8), 5: (2, 6, 13),
    6: (1, 27, 21), 7: (1, 54, 34), 8: (1, 86, 55),
    9: (1, 111, 89), 10: (1, 126, 144), 11: (1, 116, 233), 12: (1, 112, 377),
    13: (1, 102, 610), 14: (1, 108, 987),
}


def dow(text):
    return Dow(parse_word(text))


def simplex_digraph(n):
    vs = [f"v{i}" for i in range(n + 1)]
    return Digraph(vs, [(vs[i], vs[j]) for i in range(n + 1) for j in range(i + 1, n + 1)])


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
