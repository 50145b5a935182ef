"""Double occurrence words in ascending-order canonical form.

A double occurrence word (DOW) uses every symbol of its alphabet exactly
twice.  Ascending order relabels symbols to 1, 2, 3, ... in order of first
appearance, which makes equality of equivalence classes plain tuple
equality: a ``Dow`` is the tuple of its canonical symbols.  This module
provides canonicalization, maximal repeat/return factor detection (a
return is a repeat whose second copy is reversed, so one routine grows
both), factor deletion, and the word operations (reversal, concatenation,
insertion, tangled cords) used to build word graphs.
"""

from __future__ import annotations

import functools


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


class Dow(tuple):
    """A double occurrence word: the tuple of its ascending-order symbols.

    The constructor accepts any double occurrence sequence, checks that
    every symbol is a positive integer occurring exactly twice, and
    relabels it, so two words are equal exactly when they are
    ascending-order equivalent; a ``Dow`` equals, hashes and sorts as the
    plain tuple of its symbols.  Words the package builds itself are double
    occurrence words by construction and skip the check: deletions,
    reversals, concatenations and tangled cords are only relabelled, and
    ``enumerate_dows`` builds its words canonical.
    """

    __slots__ = ()

    def __new__(cls, symbols=()):
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
        return super().__new__(cls, ascending_form(symbols))

    @property
    def symbols(self) -> tuple[int, ...]:
        """The canonical symbols as a plain tuple."""
        return tuple(self)

    @property
    def size(self) -> int:
        return len(self) // 2

    def __repr__(self):
        return f"Dow({format_word(self)!r})"

    def __reduce__(self):
        # copies and every pickle protocol rebuild through the check above
        return Dow, (tuple(self),)

    def reverse(self) -> "Dow":
        """Canonical form of the reversed word; an involution."""
        return _relabelled(self[::-1])

    def is_palindrome(self) -> bool:
        return self.reverse() == self

    def text(self, commas=False) -> str:
        return format_word(self, commas=commas)


def _relabelled(symbols) -> Dow:
    """The ``Dow`` of a double occurrence sequence built here: relabelled
    to ascending order, without the constructor's check."""
    return tuple.__new__(Dow, ascending_form(symbols))


class Factor:
    """One maximal repeat or return factor u of a host word.

    ``letters`` is the single-occurrence word u; ``kind`` is "repeat" or
    "return"; ``spans`` gives the two inclusive position intervals holding u
    and (for returns) its reverse.  A frozen record whose length is u's, so
    it is not a tuple of its fields.
    """

    __slots__ = ("letters", "kind", "spans")

    def __init__(self, letters, kind, spans):
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "spans", spans)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self):
        return self.letters, self.kind, self.spans

    def __eq__(self, other):
        return self._astuple() == other._astuple() if type(other) is Factor else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return Factor, self._astuple()

    def __repr__(self):
        return "Factor(letters={!r}, kind={!r}, spans={!r})".format(*self._astuple())

    def __len__(self):
        return len(self.letters)


def _grow(w, p, q, turn):
    """Grow a factor through the occurrences p < q of one symbol: the ends
    of [a, b] around p pair with f and g, which move from q by -turn and
    +turn, so the second interval is [f, g] for a repeat (turn 1) and the
    reversed [g, f] for a return (turn -1).  A step keeps a matching pair
    while both intervals lie inside the word and the first ends before the
    second starts.  Returns the length and the two spans."""
    n = len(w)
    a = b = p
    f = g = q
    grown = True
    while grown:
        grown = False
        if a > 0 and b < f - turn < n and w[a - 1] == w[f - turn]:
            a -= 1
            f -= turn
            grown = True
        if b + 1 < f and b + 1 < g + turn < n and w[b + 1] == w[g + turn]:
            b += 1
            g += turn
            grown = True
    return b - a + 1, ((a, b), (f, g) if turn == 1 else (g, f))


def _factor_spans(w) -> list:
    """(kind, spans) of each maximal factor of the nonempty word ``w``, in
    order of first occurrence: a symbol not yet in a factor starts the next
    one at its first occurrence p, grown through its second one q."""
    found = []
    assigned = set()
    for p, s in enumerate(w):
        if s in assigned:
            continue
        q = w.index(s, p + 1)
        rep, ret = _grow(w, p, q, 1), _grow(w, p, q, -1)
        kind, (_, spans) = ("return", ret) if ret[0] > rep[0] else ("repeat", rep)
        found.append((kind, spans))
        assigned.update(w[spans[0][0]:spans[0][1] + 1])
    return found


def maximal_factors(d: Dow) -> tuple[Factor, ...]:
    """The maximal repeat/return factors of ``d``, in order of first occurrence.

    Every symbol of the word lies in exactly one factor (its letter sets
    partition the alphabet).  Trivial one-letter factors are tagged "repeat".
    """
    if not d:
        raise EmptyWordError("the empty word has no factors")
    return tuple(Factor(d[spans[0][0]:spans[0][1] + 1], kind, spans)
                 for kind, spans in _factor_spans(d))


def delete_factor(d: Dow, factor: Factor) -> Dow:
    """Remove both occurrence intervals of a maximal factor and normalize."""
    if factor not in maximal_factors(d):
        raise NotAMaximalFactorError(f"{factor} is not a maximal factor of {d!r}")
    (a, b), (c, e) = factor.spans
    return _relabelled(d[:a] + d[b + 1:c] + d[e + 1:])


@functools.lru_cache(maxsize=None)
def successors(d: Dow) -> tuple[Dow, ...]:
    """D(d): canonical single-deletion successors, deduplicated and sorted.

    The two spans of a maximal factor are disjoint and the first comes
    first, so slicing both out leaves a double occurrence word."""
    if not d:
        return ()
    return tuple(sorted({_relabelled(d[:a] + d[b + 1:c] + d[e + 1:])
                         for _, ((a, b), (c, e)) in _factor_spans(d)}))


def is_squarefree(d: Dow) -> bool:
    """True when no two distinct maximal factors share the same length."""
    if not d:
        return True
    lengths = [len(f) for f in maximal_factors(d)]
    return len(lengths) == len(set(lengths))


def concat(d1: Dow, d2: Dow) -> Dow:
    """Concatenation after relabeling d2 away from d1's alphabet."""
    shift = d1.size
    return _relabelled(d1 + tuple(s + shift for s in d2))


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
    return _relabelled(word)


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
        return "".join(map(str, symbols))
    return ",".join(map(str, symbols))
