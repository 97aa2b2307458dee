"""Distance functions and the boundariness quotient."""

from fractions import Fraction
from random import Random

import pytest

from autobva.distances import (
    JACCARD1,
    JACCARD2,
    LEVENSHTEIN,
    STRLEN,
    OutputDistance,
    input_distance,
    jaccard_ngram,
    levenshtein,
    ngrams,
    parse_distance,
    pdq,
    strlendist,
)


def test_strlendist_examples():
    assert strlendist("999.9 MB", "1.0 GB") == 2
    assert strlendist("x", "x") == 0
    assert strlendist("99.9 kB", "100.0 kB") == 1


def test_ngrams_short_string_is_single_gram():
    assert ngrams("9B", 2) == frozenset({"9B"})
    assert ngrams("", 1) == frozenset({""})
    assert ngrams("abc", 2) == frozenset({"ab", "bc"})


def test_jaccard_examples():
    assert jaccard_ngram(1, "9B", "10B") == Fraction(3, 4)
    assert jaccard_ngram(1, "999.9 MB", "1.0 GB") == Fraction(5, 8)
    assert jaccard_ngram(2, "ab", "ab") == 0
    assert jaccard_ngram(1, "", "") == 0
    assert jaccard_ngram(2, "", "a") == 1
    with pytest.raises(ValueError):
        jaccard_ngram(0, "a", "b")


def _reference_levenshtein(a, b):
    # full-matrix formulation, kept deliberately independent of the two-row one
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[m][n]


def test_levenshtein_examples():
    assert levenshtein("", "abc") == 3
    assert levenshtein("kitten", "kitten") == 0
    # hand enumeration: substitute 9->1, insert 0
    assert levenshtein("9B", "10B") == 2
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_against_reference():
    rng = Random(23)
    for _ in range(300):
        a = "".join(rng.choice("ab kB.09-") for _ in range(rng.randrange(10)))
        b = "".join(rng.choice("ab kB.09-") for _ in range(rng.randrange(10)))
        assert levenshtein(a, b) == _reference_levenshtein(a, b)


def test_input_distance():
    assert input_distance((99949,), (99951,)) == 2
    assert input_distance((0, 2, 0), (0, 2, 1)) == 1
    assert input_distance((False,), (True,)) == 1
    assert input_distance((10**40, 5), (-(10**40), 5)) == 2 * 10**40
    with pytest.raises(ValueError):
        input_distance((1,), (1, 2))


def test_metric_axioms_on_random_triples():
    rng = Random(99)
    alphabet = "aB 0.19kM-"
    def rand_string():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
    for _ in range(2000):
        a, b, c = rand_string(), rand_string(), rand_string()
        for d in (strlendist, levenshtein, lambda x, y: jaccard_ngram(2, x, y)):
            assert d(a, b) == d(b, a)
            assert d(a, a) == 0
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
        assert strlendist(a, c) <= strlendist(a, b) + strlendist(b, c)
        assert levenshtein(a, b) >= strlendist(a, b)
        assert 0 <= jaccard_ngram(1, a, b) <= 1


def test_pdq_examples():
    assert pdq((9,), (10,), STRLEN("9B", "10B")) == 1
    assert pdq((99949,), (99951,), STRLEN("99.9 kB", "100.0 kB")) == Fraction(1, 2)
    assert pdq((99948,), (99949,), JACCARD1("99.9 kB", "99.9 kB")) == 0
    assert pdq((9,), (10,), JACCARD1("9B", "10B")) == Fraction(3, 4)
    assert pdq((0, 2, 1), (0, 2, 0), 33) == 33
    assert pdq((False, 7), (True, 5), Fraction(3, 4)) == Fraction(1, 4)


def test_pdq_requires_distinct_inputs():
    # equal as numbers is equal: a bool is 0 or 1
    for i1, i2, d_o in [((5,), (5,), 1), ((5,), (5,), 0), ((1,), (True,), 0),
                        ((0, False), (False, 0), 2)]:
        with pytest.raises(ValueError, match="two distinct inputs"):
            pdq(i1, i2, d_o)


def test_pdq_is_exact_and_symmetric():
    rng = Random(5)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        if a == b:
            continue
        s1, s2 = str(a) * rng.randrange(3), str(b) * rng.randrange(3)
        for dist in (STRLEN, JACCARD1, JACCARD2, LEVENSHTEIN):
            left = pdq((a,), (b,), dist(s1, s2))
            right = pdq((b,), (a,), dist(s2, s1))
            assert isinstance(left, Fraction)
            assert left == right >= 0


def test_parse_distance():
    assert parse_distance("strlen") is STRLEN
    assert parse_distance("jaccard2") is JACCARD2
    assert parse_distance("strlendist") is STRLEN
    assert parse_distance("levenshtein") is LEVENSHTEIN
    with pytest.raises(ValueError):
        parse_distance("cosine")


def test_output_distance_resolves_its_function():
    pairs = [("9B", "10B"), ("99.9 kB", "100.0 kB"), ("", "abc"), ("same", "same")]
    expected = {STRLEN: strlendist, LEVENSHTEIN: levenshtein,
                JACCARD1: lambda a, b: jaccard_ngram(1, a, b),
                JACCARD2: lambda a, b: jaccard_ngram(2, a, b)}
    for dist, reference in expected.items():
        for a, b in pairs:
            assert dist(a, b) == dist.function(a, b) == reference(a, b)
    # a distance is known by its name: the function takes no part in
    # equality, hashing or repr
    same = OutputDistance("jaccard2", lambda a, b: jaccard_ngram(2, a, b))
    assert same == JACCARD2 and hash(same) == hash(JACCARD2)
    assert repr(JACCARD2) == "OutputDistance(name='jaccard2')"
    assert [d.name for d in expected] == ["strlen", "levenshtein", "jaccard1", "jaccard2"]
