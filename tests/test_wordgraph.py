"""Word graphs: rooted/global construction, enumeration, coprimality."""

import gc
import random

import pytest

from prodsim import (
    Digraph,
    Dow,
    analyze,
    are_coprime,
    cartesian_product,
    concat,
    enumerate_dows,
    global_word_graph,
    is_isomorphic,
    parse_word,
    rooted_word_graph,
    successors,
    word_label,
)
from prodsim.cli import SUITES
from oracles import dow, random_dow


def _induced(g, keep):
    keep = set(keep)
    return Digraph([v for v in g.vertices if v in keep],
                   [(u, v) for u, v in g.edges if u in keep and v in keep])


def _brute_canonical(word):
    # independent relabeling for oracle comparisons
    seen = {}
    out = []
    for s in word:
        if s not in seen:
            seen[s] = len(seen) + 1
        out.append(seen[s])
    return tuple(out)


def _all_matchings(positions):
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1:]
        for m in _all_matchings(rest):
            yield [(first, positions[i])] + m


def _dows_by_matching(n):
    """Oracle: distinct canonical words from all perfect matchings on 2n slots."""
    words = set()
    for matching in _all_matchings(list(range(2 * n))):
        word = [0] * (2 * n)
        for sym, (a, b) in enumerate(matching, start=1):
            word[a] = sym
            word[b] = sym
        words.add(_brute_canonical(word))
    return words


class TestRootedWordGraph:
    def test_worked_closure(self):
        wg = rooted_word_graph(dow("1234523541"))
        expected = {"1234523541", "12341243", "123321", "123231",
                    "1221", "1212", "11", "e"}
        assert {w.text() for w in wg.word_set()} == expected
        assert len(wg.graph.vertices) == 8

    def test_single_square(self):
        wg = rooted_word_graph(dow("11"))
        assert len(wg.graph.vertices) == 2
        assert len(wg.graph.edges) == 1

    def test_pentagon(self):
        wg = rooted_word_graph(dow("121323"))
        assert len(wg.graph.vertices) == 5
        assert len(wg.graph.edges) == 5

    def test_empty_root(self):
        wg = rooted_word_graph(Dow())
        assert list(wg.graph.vertices) == ["e"]

    def test_consistently_directed(self):
        rng = random.Random(29)
        for _ in range(120):
            w = random_dow(rng, rng.randint(1, 5))
            wg = rooted_word_graph(w)
            rep = analyze(wg.graph)
            assert rep.consistently_directed
            assert rep.sources == (word_label(w),)
            assert rep.targets == ("e",)

    def test_edges_are_immediate_successors(self):
        wg = rooted_word_graph(dow("12132434"))
        for label, w in wg.words.items():
            expected = {word_label(v) for v in successors(w)}
            assert set(wg.graph.out(label)) == expected


class TestGlobalWordGraph:
    def test_size_two(self):
        wg = global_word_graph(2)
        assert sorted(wg.words) == ["1,1", "1,1,2,2", "1,2,1,2", "1,2,2,1", "e"]
        assert len(wg.graph.edges) == 4

    def test_size_zero(self):
        wg = global_word_graph(0)
        assert list(wg.graph.vertices) == ["e"]

    def test_size_three_count(self):
        # oracle: perfect matchings on 6 slots give 15 distinct canonical words
        assert len(_dows_by_matching(3)) == 15
        assert len(global_word_graph(3).graph.vertices) == 20


class TestEnumerateDows:
    def test_size_one(self):
        assert [w.text() for w in enumerate_dows(1)] == ["11"]

    def test_size_two(self):
        assert [w.text() for w in enumerate_dows(2)] == ["1122", "1212", "1221"]

    def test_matches_matching_oracle(self):
        for n in range(5):
            got = {w.symbols for w in enumerate_dows(n)}
            assert got == _dows_by_matching(n)

    def test_double_factorial_counts(self):
        count = 1
        for n in range(1, 6):
            count *= 2 * n - 1
            assert len(enumerate_dows(n)) == count

    def test_sorted_output(self):
        for n in range(7):
            words = enumerate_dows(n)
            assert words == sorted(words, key=lambda w: w.symbols)


_REVERSAL = dow("1213243545")


@pytest.mark.parametrize("work", [
    lambda: enumerate_dows(4),
    lambda: global_word_graph(3),
    lambda: is_isomorphic(rooted_word_graph(_REVERSAL).graph,
                          rooted_word_graph(_REVERSAL.reverse()).graph),
], ids=["enumerate_dows", "global_word_graph", "is_isomorphic"])
def test_leaves_no_garbage_cycles(work):
    # no recursive closure and no other reference cycle, so reference
    # counting alone frees the work and the cyclic collector finds nothing
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCoprime:
    def test_worked_pair(self):
        assert are_coprime(dow("12234143"), dow("5678978956"))

    def test_squares_not_coprime(self):
        # the four concatenations of {11, e} x {11, e} collide on 11
        pairs = {concat(u, v)
                 for u in (dow("11"), Dow()) for v in (dow("11"), Dow())}
        assert len(pairs) == 3
        assert not are_coprime(dow("11"), dow("11"))

    def test_empty_always_coprime(self):
        for text in ("11", "1212", "121323"):
            assert are_coprime(dow(text), Dow())
            assert are_coprime(Dow(), dow(text))

    def test_symmetry(self):
        rng = random.Random(47)
        for _ in range(100):
            words = [random_dow(rng, rng.randint(1, 3)) for _ in range(2)]
            assert are_coprime(words[0], words[1]) == are_coprime(words[1], words[0])


class TestWordGraphStructure:
    def test_reverse_isomorphism(self):
        assert SUITES["reverse"](random.Random(53), 150) == (
            True, "150 words, reverse graphs all isomorphic")

    def test_coprime_concatenation_is_product(self):
        # graphs, and rational Betti numbers by the Kunneth formula
        assert SUITES["product"](random.Random(59), 60) == (
            True, "60 coprime pairs, concatenation graph = product graph")

    def test_fresh_pair_concatenation_multiplies_by_edge(self):
        # appending a fresh repeat pair multiplies the graph by one edge when
        # its class is not already a vertex
        for text, fresh_text in (("123321", "12"), ("1234523541", "123")):
            w = dow(text)
            fresh = parse_word(fresh_text)
            uu = Dow(fresh + fresh)
            assert uu not in rooted_word_graph(w).word_set()
            lhs = rooted_word_graph(concat(w, uu)).graph
            edge = rooted_word_graph(dow("11")).graph
            rhs = cartesian_product(rooted_word_graph(w).graph, edge)
            assert is_isomorphic(lhs, rhs)

    def test_doubling(self):
        rng = random.Random(61)
        done = 0
        while done < 40:
            w = random_dow(rng, rng.randint(1, 3))
            uu = Dow((w.size + 1, w.size + 1))
            if not are_coprime(w, uu):
                continue
            done += 1
            big = rooted_word_graph(concat(w, uu))
            small = rooted_word_graph(w)
            # identity-class copy: the induced subgraph on V(G_w) equals G_w
            labels = set(small.words)
            assert labels <= set(big.words)
            assert _induced(big.graph, labels) == small.graph
            # shifted copy: v -> v.uu is an injective induced embedding
            image = {word_label(v): word_label(concat(v, uu))
                     for v in small.word_set()}
            assert len(set(image.values())) == len(image)
            induced = _induced(big.graph, image.values())
            relabeled = small.graph.relabel(image)
            assert induced == relabeled
            # concatenating on either side gives isomorphic graphs
            other = rooted_word_graph(concat(uu, w))
            assert is_isomorphic(big.graph, other.graph)

    def test_insertion_preserves_reduction_structure(self):
        # slipping a fresh block into the middle of a maximal factor keeps the
        # factor census: the widened factor deletes to the same class, and the
        # other factors survive untouched
        from prodsim import delete_factor, insert_between, maximal_factors
        rng = random.Random(71)
        done = 0
        while done < 200:
            w = random_dow(rng, rng.randint(2, 4))
            factors = maximal_factors(w)
            f = factors[rng.randrange(len(factors))]
            cut = rng.randint(0, len(f.letters))
            u1, u2 = f.letters[:cut], f.letters[cut:]
            (a1, b1), (a2, b2) = f.spans
            x = w.symbols[:a1]
            y = w.symbols[b1 + 1:a2]
            z = w.symbols[b2 + 1:]
            v = tuple(range(w.size + 1, w.size + 1 + rng.randint(1, 3)))
            inserted = insert_between(x, y, z, u1, u2, v, f.kind)
            new_factors = maximal_factors(inserted)
            assert len(new_factors) == len(factors)
            # locate the widened factor via the canonical relabeling of the
            # raw inserted word, which maps v's letters positionally
            block = u1 + v + u2
            raw = (x + block + y
                   + (block if f.kind == "repeat" else block[::-1]) + z)
            relabel = {}
            for s in raw:
                relabel.setdefault(s, len(relabel) + 1)
            v_set = {relabel[s] for s in v}
            widened = [g for g in new_factors if v_set <= set(g.letters)]
            assert len(widened) == 1
            assert len(widened[0].letters) == len(f.letters) + len(v)
            assert delete_factor(inserted, widened[0]) == delete_factor(w, f)
            done += 1

    def test_insertion_invariance_instances(self):
        # graph-level invariance under factor-splitting insertion holds on
        # these frozen instances (it is not universal: see the test below)
        from prodsim import insert_between
        cases = [
            # (host pieces, kind): host word = x u1 u2 y [u1 u2 | reversed] z
            (((), (), (), (1,), (2, 3), (4, 5)), "repeat"),            # 123123
            (((), (), (), (), (1, 2), (3,)), "repeat"),                # 1212
            (((), (), (), (), (1, 2), (3,)), "return"),                # 1221
            (((), (), (), (1, 2, 3), (), (4,)), "return"),             # 123321
            (((1,), (1,), (), (2,), (3,), (4, 5)), "return"),          # 123132
            (((1, 2, 1), (), (2,), (), (3, 4), (5, 6)), "return"),     # 12134432
        ]
        for pieces, kind in cases:
            x, y, z, u1, u2, v = pieces
            base = x + u1 + u2 + y + ((u1 + u2) if kind == "repeat"
                                      else (u1 + u2)[::-1]) + z
            w = Dow(base)
            inserted = insert_between(x, y, z, u1, u2, v, kind)
            assert is_isomorphic(rooted_word_graph(w).graph,
                                 rooted_word_graph(inserted).graph), (pieces, kind)

    def test_insertion_can_change_the_graph(self):
        # widening a factor can split previously coincident successor classes,
        # so graph-level invariance fails in general: 1122 gains a vertex
        from prodsim import insert_between
        w = dow("1122")
        inserted = insert_between((), (), (2, 2), (1,), (), (3,), "repeat")
        assert inserted == dow("121233")
        assert len(rooted_word_graph(w).word_set()) == 3
        assert len(rooted_word_graph(inserted).word_set()) == 4
        assert not is_isomorphic(rooted_word_graph(w).graph,
                                 rooted_word_graph(inserted).graph)

    def test_successor_induced_subgraph(self):
        rng = random.Random(67)
        for _ in range(60):
            wg = rooted_word_graph(random_dow(rng, rng.randint(1, 4)))
            for label, w in wg.words.items():
                sub = rooted_word_graph(w)
                assert _induced(wg.graph, sub.words) == sub.graph


class TestCoprimeExampleWords:
    def test_worked_successor_sets(self):
        lhs = {w.text() for w in rooted_word_graph(dow("12234143")).word_set()}
        assert lhs == {"12234143", "1221", "112332", "123132", "11", "e"}
        rhs = {w.text() for w in rooted_word_graph(dow("5678978956")).word_set()}
        assert rhs == {"1234534512", "1212", "123123", "e"}
