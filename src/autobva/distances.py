"""String distances over rendered outputs, plus the boundariness quotient.

Boundariness of an input pair is output distance over input distance.  All
scores are kept as exact rationals so threshold tests and rankings are
reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Union

from .values import InputTuple

Distance = Union[int, Fraction]


def strlendist(s1: str, s2: str) -> int:
    """Absolute difference of Unicode scalar counts; the fast search distance."""
    return abs(len(s1) - len(s2))


def ngrams(s: str, n: int) -> frozenset:
    """Contiguous n-grams; a string shorter than n contributes itself whole."""
    if len(s) < n:
        return frozenset((s,))
    return frozenset(s[i:i + n] for i in range(len(s) - n + 1))


def jaccard_ngram(n: int, s1: str, s2: str) -> Fraction:
    """1 - |A&B|/|A|B| over the two n-gram sets, as an exact fraction."""
    if n < 1:
        raise ValueError("n-gram size must be >= 1")
    a, b = ngrams(s1, n), ngrams(s2, n)
    union = len(a | b)
    return Fraction(union - len(a & b), union)


def levenshtein(s1: str, s2: str) -> int:
    """Minimal insert/delete/substitute edit count (two-row DP)."""
    if s1 == s2:
        return 0
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    previous = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, start=1):
        current = [i] + [0] * len(s2)
        for j, c2 in enumerate(s2, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (c1 != c2),
            )
        previous = current
    return previous[-1]


def input_distance(i1: InputTuple, i2: InputTuple) -> int:
    """L1 distance over arbitrary-precision magnitudes, booleans as 0/1."""
    if len(i1) != len(i2):
        raise ValueError("input tuples must have equal arity")
    return sum(abs(int(a) - int(b)) for a, b in zip(i1, i2))


@dataclass(frozen=True)
class OutputDistance:
    """A named output distance usable as a callable on two strings.

    Equality, hashing and ``repr`` go by ``name`` alone.  Hot loops call
    ``function`` directly instead of going through ``__call__``.
    """

    name: str
    function: Callable[[str, str], Distance] = field(repr=False, compare=False)

    def __call__(self, s1: str, s2: str) -> Distance:
        return self.function(s1, s2)


STRLEN = OutputDistance("strlen", strlendist)
JACCARD1 = OutputDistance("jaccard1", partial(jaccard_ngram, 1))
JACCARD2 = OutputDistance("jaccard2", partial(jaccard_ngram, 2))
LEVENSHTEIN = OutputDistance("levenshtein", levenshtein)

_BY_NAME = {
    "strlen": STRLEN,
    "strlendist": STRLEN,
    "jaccard1": JACCARD1,
    "jaccard2": JACCARD2,
    "levenshtein": LEVENSHTEIN,
}


def parse_distance(name: str) -> OutputDistance:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown distance {name!r} (expected one of {sorted(set(_BY_NAME))})") from None


def pdq(i1: InputTuple, i2: InputTuple, d_o: Distance) -> Fraction:
    """Program difference quotient d_o(P(a), P(b)) / d_i(a, b), exact, of an
    output distance ``d_o`` the caller has already computed.

    The two inputs must be distinct; error outcomes participate through their
    rendered error text like any other output.
    """
    d_i = input_distance(i1, i2)
    if d_i == 0:
        raise ValueError("boundariness needs two distinct inputs (zero input distance)")
    return Fraction(d_o, d_i)
