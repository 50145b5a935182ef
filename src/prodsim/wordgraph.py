"""Word graphs: reduction DAGs of double occurrence words.

The graph rooted at w has w and all iterated-deletion successors as
vertices and an edge w -> v for each immediate successor v.  Rooted word
graphs are consistently directed with source w and target the empty word.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .digraph import Digraph
from .dow import Dow, concat, format_word, successors


def word_label(w: Dow) -> str:
    """Vertex label: comma-separated symbols, "e" for the empty word."""
    return format_word(w, commas=True)


class WordGraph(NamedTuple):
    """A digraph whose vertices are canonical words; root is None for the
    global graph on all words up to a given size."""

    graph: Digraph
    words: dict  # label -> Dow
    root: Dow | None = None

    def word_set(self) -> set:
        return set(self.words.values())


def _word_graph(words: list, root: Dow | None) -> WordGraph:
    """Breadth-first closure of ``words`` under immediate successors: the
    list grows while it is walked, and each word's label is rendered once
    and its successors looked up once."""
    labels = {w: word_label(w) for w in words}
    edges = []
    for w in words:
        for v in successors(w):
            if v not in labels:
                labels[v] = word_label(v)
                words.append(v)
            edges.append((labels[w], labels[v]))
    return WordGraph(Digraph(labels.values(), edges),
                     {label: w for w, label in labels.items()}, root)


def rooted_word_graph(d: Dow) -> WordGraph:
    """Breadth-first closure of immediate successors, memoized on canonical
    forms."""
    return _word_graph([d], d)


def enumerate_dows(n: int) -> list[Dow]:
    """All canonical double occurrence words of size exactly n, sorted.

    The words of size k come from those of size k - 1: raise every symbol
    by one, put a 1 first and the second 1 at each later position.  Deleting
    both 1s of a canonical word and lowering the rest gives a canonical word
    of size k - 1, so each word arises exactly once.  Every word built this
    way is canonical already, so it becomes a ``Dow`` as it is, neither
    checked nor relabelled.

    For one position j of the second 1 the map keeps the order of the
    shorter words, so taking j outermost over the sorted shorter words
    lays each size out as 2k - 1 sorted runs, and the sort only merges them.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    word = partial(tuple.__new__, Dow)
    words = [word(())]
    for k in range(1, n + 1):
        raised = [tuple(s + 1 for s in w) for w in words]
        words = [word((1, *r[:j], 1, *r[j:])) for j in range(2 * k - 1) for r in raised]
        words.sort()
    return words


def global_word_graph(n: int) -> WordGraph:
    """The graph on all canonical words of size <= n with deletion edges."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    words = []
    for k in range(n + 1):
        words.extend(enumerate_dows(k))
    # closed under deletion, so the walk appends nothing
    return _word_graph(words, None)


def are_coprime(d1: Dow, d2: Dow) -> bool:
    """True when all concatenations u v over the two word graphs' vertex sets
    land in distinct ascending-order classes."""
    left = rooted_word_graph(d1).word_set()
    right = rooted_word_graph(d2).word_set()
    seen = set()
    for u in left:
        for v in right:
            c = concat(u, v)
            if c in seen:
                return False
            seen.add(c)
    return True
