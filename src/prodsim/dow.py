"""Double occurrence words in ascending-order canonical form.

A double occurrence word (DOW) uses every symbol of its alphabet exactly
twice.  Ascending order relabels symbols to 1, 2, 3, ... in order of first
appearance, which makes equality of equivalence classes plain sequence
equality.  This module provides canonicalization, maximal repeat/return
factor detection, factor deletion, and the word operations (reversal,
concatenation, insertion, tangled cords) used to build word graphs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


class NotDoubleOccurrenceError(ValueError):
    """Some symbol occurs a number of times other than zero or two."""


class EmptyWordError(ValueError):
    """Operation undefined on the empty word."""


class NotAMaximalFactorError(ValueError):
    """The given factor is not a maximal repeat/return factor of the word."""


class AlphabetCollisionError(ValueError):
    """Inserted letters collide with the host word's alphabet."""


def ascending_form(symbols) -> tuple[int, ...]:
    """Relabel symbols to 1, 2, 3, ... in order of first appearance."""
    relabel = {}
    out = []
    for s in symbols:
        r = relabel.get(s)
        if r is None:
            r = relabel[s] = len(relabel) + 1
        out.append(r)
    return tuple(out)


class Dow:
    """A double occurrence word, stored in ascending-order canonical form.

    The constructor accepts any double occurrence sequence and relabels it,
    so two ``Dow`` objects compare equal exactly when the input words are
    ascending-order equivalent.  Instances are immutable and hashable.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols=()):
        symbols = tuple(symbols)
        counts = {}
        for s in symbols:
            if not isinstance(s, int) or s < 1:
                raise NotDoubleOccurrenceError(f"symbols must be positive integers, got {s!r}")
            counts[s] = counts.get(s, 0) + 1
        bad = sorted(s for s, c in counts.items() if c != 2)
        if bad:
            raise NotDoubleOccurrenceError(
                f"symbols {bad} do not occur exactly twice in {symbols}")
        object.__setattr__(self, "symbols", ascending_form(symbols))

    @property
    def size(self) -> int:
        return len(self.symbols) // 2

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __bool__(self):
        return bool(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Dow) and self.symbols == other.symbols

    def __lt__(self, other):
        return self.symbols < other.symbols

    def __le__(self, other):
        return self.symbols <= other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Dow({format_word(self.symbols)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Dow is immutable")

    def reverse(self) -> "Dow":
        """Canonical form of the reversed word; an involution."""
        return Dow(self.symbols[::-1])

    def is_palindrome(self) -> bool:
        return self.reverse() == self

    def text(self, commas=False) -> str:
        return format_word(self.symbols, commas=commas)


@dataclass(frozen=True)
class Factor:
    """One maximal repeat or return factor u of a host word.

    ``letters`` is the single-occurrence word u; ``spans`` gives the two
    inclusive position intervals holding u and (for returns) its reverse.
    """

    letters: tuple[int, ...]
    kind: str  # "repeat" or "return"
    spans: tuple[tuple[int, int], tuple[int, int]]

    def __len__(self):
        return len(self.letters)


def _grow_repeat(w, p, q):
    # intervals [p-r, p+s] and [q-r, q+s] carry equal subwords and stay disjoint
    n = len(w)
    r = s = 0
    grown = True
    while grown:
        grown = False
        if p - r - 1 >= 0 and p + s < q - r - 1 and w[p - r - 1] == w[q - r - 1]:
            r += 1
            grown = True
        if q + s + 1 < n and p + s + 1 < q - r and w[p + s + 1] == w[q + s + 1]:
            s += 1
            grown = True
    return r + s + 1, ((p - r, p + s), (q - r, q + s))


def _grow_return(w, p, q):
    # intervals [p-r, p+s] and [q-s, q+r]; the second holds the reversed subword
    n = len(w)
    r = s = 0
    grown = True
    while grown:
        grown = False
        if p - r - 1 >= 0 and q + r + 1 < n and w[p - r - 1] == w[q + r + 1]:
            r += 1
            grown = True
        if p + s + 1 < q - s - 1 and w[p + s + 1] == w[q - s - 1]:
            s += 1
            grown = True
    return r + s + 1, ((p - r, p + s), (q - s, q + r))


def maximal_factors(d: Dow) -> tuple[Factor, ...]:
    """The maximal repeat/return factors of ``d``, in order of first occurrence.

    Every symbol of the word lies in exactly one factor (its letter sets
    partition the alphabet).  Trivial one-letter factors are tagged "repeat".
    """
    w = d.symbols
    if not w:
        raise EmptyWordError("the empty word has no factors")
    positions = {}
    for i, s in enumerate(w):
        positions.setdefault(s, []).append(i)
    factors = []
    assigned = set()
    for s in w:
        if s in assigned:
            continue
        p, q = positions[s]
        rep_len, rep_spans = _grow_repeat(w, p, q)
        ret_len, ret_spans = _grow_return(w, p, q)
        if ret_len > rep_len:
            kind, spans = "return", ret_spans
        else:
            kind, spans = "repeat", rep_spans
        letters = w[spans[0][0]:spans[0][1] + 1]
        factors.append(Factor(letters, kind, spans))
        assigned.update(letters)
    return tuple(factors)


def delete_factor(d: Dow, factor: Factor) -> Dow:
    """Remove both occurrence intervals of a maximal factor and normalize."""
    if factor not in maximal_factors(d):
        raise NotAMaximalFactorError(f"{factor} is not a maximal factor of {d!r}")
    return _delete(d, factor)


def _delete(d: Dow, factor: Factor) -> Dow:
    # the two spans are disjoint and the first comes first
    (a, b), (c, e) = factor.spans
    w = d.symbols
    return Dow(w[:a] + w[b + 1:c] + w[e + 1:])


@functools.lru_cache(maxsize=None)
def successors(d: Dow) -> tuple[Dow, ...]:
    """D(d): canonical single-deletion successors, deduplicated and sorted."""
    if not d:
        return ()
    return tuple(sorted({_delete(d, f) for f in maximal_factors(d)}))


def is_squarefree(d: Dow) -> bool:
    """True when no two distinct maximal factors share the same length."""
    if not d:
        return True
    lengths = [len(f) for f in maximal_factors(d)]
    return len(lengths) == len(set(lengths))


def concat(d1: Dow, d2: Dow) -> Dow:
    """Concatenation after relabeling d2 away from d1's alphabet."""
    shift = d1.size
    return Dow(d1.symbols + tuple(s + shift for s in d2.symbols))


def insert_between(x, y, z, u1, u2, v, kind="repeat") -> Dow:
    """Insert the fresh single-occurrence word v inside the factor u = u1 u2.

    The host word is x u1 u2 y u1 u2 z for kind "repeat" and
    x u1 u2 y u2^R u1^R z for kind "return"; the result places v between u1
    and u2 in both occurrence blocks (reversed in the second block of a
    return).  The host must be a valid double occurrence word and v must use
    fresh symbols.
    """
    x, y, z, u1, u2, v = (tuple(t) for t in (x, y, z, u1, u2, v))
    if kind not in ("repeat", "return"):
        raise ValueError(f"kind must be 'repeat' or 'return', got {kind!r}")
    u = u1 + u2
    second = u if kind == "repeat" else u[::-1]
    host = x + u + y + second + z
    Dow(host)  # validates double occurrence
    if len(set(v)) != len(v):
        raise NotDoubleOccurrenceError(f"insertion word {v} is not single-occurrence")
    if set(v) & set(host):
        raise AlphabetCollisionError(f"insertion symbols {sorted(set(v) & set(host))} already used")
    if kind == "repeat":
        word = x + u1 + v + u2 + y + u1 + v + u2 + z
    else:
        word = x + u1 + v + u2 + y + u2[::-1] + v[::-1] + u1[::-1] + z
    return Dow(word)


def tangled_cord(n: int) -> Dow:
    """The n-symbol tangled cord 1213243...(n-1)(n-2)n(n-1)n."""
    if n < 2:
        raise ValueError(f"tangled cords need at least 2 symbols, got {n}")
    word = [1, 2]
    for i in range(3, n + 1):
        word += [i - 2, i]
    word += [n - 1, n]
    return Dow(word)


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a word from text: digits for symbols <= 9, else comma-separated.

    The empty word is written "" or "e".
    """
    text = text.strip()
    if text in ("", "e", "ε"):
        return ()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        symbols = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}") from None
    if any(s < 1 for s in symbols):
        raise ValueError(f"symbols must be positive integers: {text!r}")
    return symbols


def format_word(symbols, commas=False) -> str:
    """Render a word: "e" for the empty word, digit string when the alphabet
    fits in single digits, comma-separated integers otherwise."""
    if not symbols:
        return "e"
    if not commas and max(symbols) <= 9:
        return "".join(str(s) for s in symbols)
    return ",".join(str(s) for s in symbols)
