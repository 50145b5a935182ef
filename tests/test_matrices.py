"""The sparse integer matrix shared by the complex builder and the solver."""

import random

import pytest

from prodsim import IntMatrix, build_complex, rooted_word_graph
from oracles import (
    dense_product,
    random_consistent_digraph,
    random_dow,
    random_matrix,
    random_packed,
)


def _all_zero(rows):
    return not any(map(any, rows))


def test_out_of_range_entry_raises():
    for key in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            IntMatrix(2, 3, {key: 1})
    with pytest.raises(IndexError):
        IntMatrix(0, 0, {(0, 0): 1})


def test_explicit_zeros_are_dropped():
    m = IntMatrix(3, 3, {(0, 0): 0, (1, 2): 5, (2, 1): 0})
    assert m == IntMatrix(3, 3, {(1, 2): 5})
    assert len(m.entries) == 1
    assert m.entries == {(1, 2): 5}
    zero = IntMatrix(2, 2, {(0, 1): 0, (1, 0): 0})
    assert zero == IntMatrix(2, 2)
    assert len(zero.entries) == 0
    assert IntMatrix.from_rows([[0, 0], [0, 7]]) == IntMatrix(2, 2, {(1, 1): 7})


def test_equality_needs_equal_dimensions():
    assert IntMatrix(2, 3) != IntMatrix(3, 2)
    assert IntMatrix(2, 2, {(0, 0): 1}) != IntMatrix(2, 2, {(0, 0): -1})
    assert IntMatrix(1, 1) != [[0]]


def test_annihilates_equals_dense_product():
    # random pairs, and the adjacent boundary matrices of small complexes,
    # as built (a zero product) and with one entry of d_n sign-flipped
    rng = random.Random(211)
    sizes = (0, 1, 2, 3, 5, 7)
    pairs = []
    for i in range(200):
        nr, inner, nc = (rng.choice(sizes) for _ in range(3))
        if i < 8:  # an empty side in every position
            nr, inner, nc = [(0, 2, 3), (3, 0, 2), (2, 3, 0), (0, 0, 0)][i % 4]
        pairs.append((random_matrix(rng, nr, inner, rng.choice((1, 3, 10))),
                      random_matrix(rng, inner, nc, rng.choice((1, 3, 10)))))
    for i in range(40):
        g = (rooted_word_graph(random_dow(rng, rng.randint(2, 5))).graph if i % 2
             else random_consistent_digraph(rng, rng.randint(3, 8)))
        cx = build_complex(g, 3)
        for n in range(2, cx.top_dim() + 1):
            d, dn = cx.boundary_matrix(n - 1), cx.boundary_matrix(n)
            entries = dn.entries
            flip = rng.choice(sorted(entries))
            flipped = IntMatrix(dn.nrows, dn.ncols, {**entries, flip: -entries[flip]})
            pairs += [(d, dn), (d, flipped)]
    answers = []
    for a, b in pairs:
        answers.append(a.annihilates(b))
        assert answers[-1] == _all_zero(dense_product(a, b))
    assert answers.count(True) > 100 and answers.count(False) > 100
    with pytest.raises(ValueError):
        IntMatrix(2, 3).annihilates(IntMatrix(2, 3))


def test_triplets_sorted_and_dense_round_trip():
    rng = random.Random(223)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        trip = m.triplets()
        assert trip == sorted(trip)
        assert {(r, c): v for r, c, v in trip} == m.entries
        dense = m.to_rows()
        assert len(dense) == m.nrows and all(len(row) == m.ncols for row in dense)
        back = IntMatrix.from_rows(dense)
        if m.nrows:
            assert back == m
        assert back.to_rows() == dense
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


# shapes with no rows, no columns, or both, then random ones
_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (5, 3), (3, 7)]


def _shapes(rng, count):
    return _SHAPES + [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(count)]


def test_packed_round_trips():
    rng = random.Random(307)
    big = 0
    for nr, nc in _shapes(rng, 300):
        m = random_packed(rng, nr, nc)
        entries = m.entries
        big += any(abs(v) > 2**63 for v in entries.values())
        assert IntMatrix(nr, nc, entries) == m
        trip = m.triplets()
        assert trip == sorted(trip)
        assert {(r, c): v for r, c, v in trip} == entries
        dense = m.to_rows()
        assert len(dense) == nr and all(len(row) == nc for row in dense)
        assert {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v} == entries
        if nr:  # no rows leave no columns to read
            assert IntMatrix.from_rows(dense) == m
        # column by column, the rows of a column in any order
        order = sorted(entries, key=lambda rc: (rc[1], rng.random()))
        assert IntMatrix.from_column_major(nr, nc, [r for r, _ in order], [c for _, c in order],
                                           [entries[rc] for rc in order]) == m
    assert big > 100


def test_packed_equality():
    rng = random.Random(311)
    for nr, nc in _shapes(rng, 100):
        m = random_packed(rng, nr, nc)
        assert m == IntMatrix(nr, nc, m.entries)
        assert m != IntMatrix(nr, nc + 1, m.entries)
        assert m != IntMatrix(nr + 1, nc, m.entries)
        for (r, c), v in list(m.entries.items())[:3]:
            assert m != IntMatrix(nr, nc, {**m.entries, (r, c): v + 2**64})
            moved = dict(m.entries)
            del moved[r, c]
            assert m != IntMatrix(nr, nc, moved)


def test_packed_annihilates_equals_dense_product():
    # values past 2**63 and empty rows; a pair whose product's last row
    # alone is nonzero must not pass on the rows before it
    rng = random.Random(313)
    for nr, inner in _shapes(rng, 150):
        nc = rng.choice((0, 1, 4, 7))
        a, b = random_packed(rng, nr, inner), random_packed(rng, inner, nc)
        assert a.annihilates(b) == _all_zero(dense_product(a, b))
    big = 2**64 + 1
    a = IntMatrix.from_rows([[1, -1], [0, 0], [big, 0]])
    b = IntMatrix.from_rows([[big, 1], [big, 1]])
    assert dense_product(a, b)[:2] == [[0, 0], [0, 0]]
    assert not a.annihilates(b)
    assert IntMatrix.from_rows([[1, -1], [0, 0]]).annihilates(b)

