"""Word-level operations: canonical forms, factors, deletions, insertions."""

import copy
import pickle
import random

import pytest

from prodsim import (
    AlphabetCollisionError,
    Dow,
    EmptyWordError,
    Factor,
    NotAMaximalFactorError,
    NotDoubleOccurrenceError,
    concat,
    delete_factor,
    enumerate_dows,
    format_word,
    insert_between,
    is_squarefree,
    maximal_factors,
    parse_word,
    successors,
    tangled_cord,
)
from oracles import dow, longest_repeat_and_return, random_dow


def texts(words):
    return sorted(w.text() for w in words)


class TestCanonicalForm:
    def test_valid_dow_kept(self):
        assert dow("1234523541").text() == "1234523541"

    def test_empty_word(self):
        assert Dow().text() == "e"
        assert Dow().size == 0

    def test_odd_count_rejected(self):
        with pytest.raises(NotDoubleOccurrenceError):
            dow("121")

    def test_single_count_rejected(self):
        with pytest.raises(NotDoubleOccurrenceError):
            Dow((1, 1, 2))

    def test_normalize_bijection_example(self):
        assert dow("133212").text() == "122313"

    def test_normalize_shifted_alphabet(self):
        assert dow("23452354").text() == "12341243"

    def test_fixed_point(self):
        assert dow("122313").text() == "122313"

    def test_idempotent(self):
        w = dow("133212")
        assert Dow(w.symbols) == w

    def test_constant_on_relabelings(self):
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(1, 6)
            base = random_dow(rng, size)
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            relabeled = [perm[s - 1] for s in base.symbols]
            assert Dow(relabeled) == base


class TestValueSemantics:
    # a Dow is the tuple of its canonical symbols
    def test_equals_hashes_and_sorts_as_its_tuple(self):
        assert Dow((2, 1, 2, 1)) == (1, 2, 1, 2)
        assert hash(dow("2121")) == hash((1, 2, 1, 2))
        assert {dow("1212"): "square"}[(1, 2, 1, 2)] == "square"
        words = [dow("1221"), (1, 1), dow("1212"), ()]
        assert sorted(words) == [(), (1, 1), (1, 2, 1, 2), (1, 2, 2, 1)]

    def test_symbols_is_a_plain_tuple(self):
        w = dow("122313")
        assert type(w.symbols) is tuple
        assert w.symbols == (1, 2, 2, 3, 1, 3) == w

    def test_attributes_cannot_be_set(self):
        w = dow("1212")
        for name in ("symbols", "size", "extra"):
            with pytest.raises(AttributeError):
                setattr(w, name, ())
        assert w.symbols == (1, 2, 1, 2)

    def test_copy_and_pickle_rebuild_through_validation(self):
        w = dow("133212")
        twins = [copy.copy(w), copy.deepcopy(w)]
        twins += [pickle.loads(pickle.dumps(w, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is Dow and twin == w
        # protocol 0 writes each symbol as "I<n>": 122313 becomes 122113
        tampered = pickle.dumps(w, 0).replace(b"I3\n", b"I1\n", 1)
        with pytest.raises(NotDoubleOccurrenceError):
            pickle.loads(tampered)


class TestReverse:
    def test_reverse_example(self):
        assert dow("122133").reverse().text() == "112332"

    def test_reverse_empty(self):
        assert Dow().reverse() == Dow()

    def test_palindrome_fixed(self):
        assert dow("123231").reverse().text() == "123231"

    def test_is_palindrome(self):
        assert dow("123231").is_palindrome()
        assert not dow("122133").is_palindrome()
        assert dow("11").is_palindrome()

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(200):
            w = random_dow(rng, rng.randint(1, 6))
            assert w.reverse().reverse() == w


class TestMaximalFactors:
    def test_worked_example(self):
        fs = maximal_factors(dow("1234523541"))
        assert [(format_word(f.letters), f.kind) for f in fs] == [
            ("1", "repeat"), ("23", "repeat"), ("45", "return")]

    def test_return_word(self):
        fs = maximal_factors(dow("123321"))
        assert [(format_word(f.letters), f.kind) for f in fs] == [("123", "return")]

    def test_trivial(self):
        fs = maximal_factors(dow("11"))
        assert [(format_word(f.letters), f.kind) for f in fs] == [("1", "repeat")]

    def test_empty_word_error(self):
        with pytest.raises(EmptyWordError):
            maximal_factors(Dow())

    def test_matches_the_definition(self):
        # every letter of a factor has the factor's length and kind as its
        # longest repeat or return; the longer wins and a tie is a repeat
        for size in range(1, 6):
            for w in enumerate_dows(size):
                for f in maximal_factors(w):
                    for letter in f.letters:
                        repeat, ret = longest_repeat_and_return(w, letter)
                        expected = (ret, "return") if ret > repeat else (repeat, "repeat")
                        assert (len(f), f.kind) == expected, (w, f, letter)

    def test_partition_property(self):
        rng = random.Random(11)
        for _ in range(300):
            w = random_dow(rng, rng.randint(1, 7))
            covered = []
            for f in maximal_factors(w):
                covered.extend(f.letters)
            assert sorted(covered) == sorted(set(w.symbols))


class TestDeletion:
    def test_delete_return_factor(self):
        w = dow("1234523541")
        factor = [f for f in maximal_factors(w) if format_word(f.letters) == "23"][0]
        assert delete_factor(w, factor).text() == "123321"

    def test_delete_everything(self):
        w = dow("123321")
        (factor,) = maximal_factors(w)
        assert delete_factor(w, factor) == Dow()

    def test_delete_square(self):
        w = dow("1212")
        (factor,) = maximal_factors(w)
        assert delete_factor(w, factor) == Dow()

    def test_not_a_factor(self):
        w = dow("1212")
        stray = maximal_factors(dow("1221"))[0]
        with pytest.raises(NotAMaximalFactorError):
            delete_factor(w, stray)
        shorter = Factor((1, 2), "repeat", ((0, 1), (3, 4)))  # inside 123123's factor 123
        with pytest.raises(NotAMaximalFactorError):
            delete_factor(dow("123123"), shorter)

    def test_length_accounting(self):
        rng = random.Random(5)
        for _ in range(200):
            w = random_dow(rng, rng.randint(1, 6))
            for f in maximal_factors(w):
                assert len(delete_factor(w, f)) == len(w) - 2 * len(f)


class TestSuccessors:
    def test_worked_example(self):
        assert texts(successors(dow("1234523541"))) == ["123231", "123321", "12341243"]

    def test_second_level(self):
        assert texts(successors(dow("123231"))) == ["11", "1212"]
        assert texts(successors(dow("12341243"))) == ["1212", "1221"]
        assert texts(successors(dow("123321"))) == ["e"]

    def test_empty(self):
        assert successors(Dow()) == ()

    def test_checked_deletion_oracle(self):
        # successors deletes unchecked; the public delete_factor checks first
        for size in range(1, 6):
            for w in enumerate_dows(size):
                expected = tuple(sorted({delete_factor(w, f) for f in maximal_factors(w)}))
                assert successors(w) == expected, w

    def test_reverse_duality(self):
        rng = random.Random(13)
        for _ in range(200):
            w = random_dow(rng, rng.randint(1, 6))
            lhs = {v.reverse() for v in successors(w)}
            rhs = set(successors(w.reverse()))
            assert lhs == rhs

    def test_squarefree_deletions_distinct(self):
        rng = random.Random(17)
        for _ in range(300):
            w = random_dow(rng, rng.randint(1, 6))
            if is_squarefree(w):
                assert len(successors(w)) == len(maximal_factors(w))


class TestSquarefree:
    def test_square_repeat(self):
        assert not is_squarefree(dow("12123434"))

    def test_xyxzyz_pattern(self):
        # x=1, y=23, z=456 with pairwise distinct lengths
        assert is_squarefree(dow("123132645546"))
        assert is_squarefree(dow("123145623456"))

    def test_trivial(self):
        assert is_squarefree(dow("11"))


class TestConcat:
    def test_fresh_square(self):
        assert concat(dow("121323"), dow("11")).text() == "12132344"

    def test_identity(self):
        w = dow("1221")
        assert concat(Dow(), w) == w
        assert concat(w, Dow()) == w

    def test_double_square(self):
        assert concat(dow("121323"), dow("1212")).text() == "1213234545"


class TestInsertion:
    # the host word 12 345 54312 gains the fresh block 6789 in both copies
    def test_repeat_insertion(self):
        w = insert_between((1, 2), (3, 4, 5), (5, 4, 3, 1, 2), (), (), (6, 7, 8, 9), "repeat")
        assert w.text() == "123456789345698712"

    def test_return_insertion(self):
        w = insert_between((1, 2), (3, 4, 5), (5, 4, 3, 1, 2), (), (), (6, 7, 8, 9), "return")
        assert w.text() == "123456789654398712"

    def test_empty_insertion_is_identity(self):
        base = dow("1234554312")
        w = insert_between((1, 2), (3, 4, 5), (5, 4, 3, 1, 2), (), (), (), "repeat")
        assert w == base

    def test_split_factor_insertion(self):
        # host 123123 has the repeat factor 123; v slots between u1=1 and u2=23
        w = insert_between((), (), (), (1,), (2, 3), (4, 5), "repeat")
        assert w == Dow((1, 4, 5, 2, 3, 1, 4, 5, 2, 3))

    def test_alphabet_collision(self):
        with pytest.raises(AlphabetCollisionError):
            insert_between((1, 2), (3, 4, 5), (5, 4, 3, 1, 2), (), (), (1, 6), "repeat")

    def test_invalid_host(self):
        with pytest.raises(NotDoubleOccurrenceError):
            insert_between((1,), (2,), (3,), (), (), (9,), "repeat")


class TestTangledCord:
    def test_small(self):
        assert tangled_cord(2).text() == "1212"
        assert tangled_cord(3).text() == "121323"
        assert tangled_cord(6).text() == "121324354656"

    def test_too_small(self):
        with pytest.raises(ValueError):
            tangled_cord(1)

    def test_deletion_steps_down(self):
        for n in range(3, 10):
            assert tangled_cord(n - 1) in successors(tangled_cord(n))


def test_words_the_program_builds_are_canonical():
    # successors, reverse, concat and tangled_cord return words they built
    # themselves; each must be a Dow that the checking constructor keeps
    def canonical(v):
        assert type(v) is Dow and Dow(tuple(v)) == v, v

    by_size = [enumerate_dows(k) for k in range(6)]
    for words in by_size:
        for w in words:
            canonical(w)
            canonical(w.reverse())
            canonical(concat(w, w))
            canonical(concat(w, w.reverse()))
            for v in successors(w):
                canonical(v)
    for a, left in enumerate(by_size):
        for right in by_size[:6 - a]:
            for u in left:
                for v in right:
                    canonical(concat(u, v))
    for n in range(2, 21):
        canonical(tangled_cord(n))


class TestTextFormat:
    def test_parse_digits(self):
        assert parse_word("1213") == (1, 2, 1, 3)

    def test_parse_commas(self):
        assert parse_word("1,2,1,3,2,3") == (1, 2, 1, 3, 2, 3)
        assert parse_word("10,11,10,11") == (10, 11, 10, 11)

    def test_parse_empty(self):
        assert parse_word("") == ()
        assert parse_word("e") == ()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("12a3")
        with pytest.raises(ValueError):
            parse_word("0,1,0,1")

    def test_format(self):
        assert format_word((1, 2, 1, 2)) == "1212"
        assert format_word((1, 2, 1, 2), commas=True) == "1,2,1,2"
        assert format_word((9, 10, 9, 10)) == "9,10,9,10"
        assert format_word(()) == "e"
