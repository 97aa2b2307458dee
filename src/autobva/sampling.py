"""Global input sampling: uniform and bituniform draws over the integer
type hierarchy, with optional compatible-type sampling (CTS) per argument.

Plain uniform sampling over a wide integer domain almost always yields huge
magnitudes; bituniform sampling first draws a bit length and then a value of
that length, spreading the mass over magnitudes.  CTS additionally picks a
concrete compatible type (down to Bool) per argument before sampling.

The generator is a ``random.Random``.  Every draw below a bound n calls its
``getrandbits`` directly and runs the loop ``Random._randbelow`` runs, inline,
so values and generator state equal those of ``randrange`` and ``choice``.
Each configuration's domains and per-domain draw specs are computed once and
cached (``_plan``).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

from .suts import SutDescriptor
from .values import Value, typed

DEFAULT_BIG_INT_BIT_CAP = 128


@dataclass(frozen=True)
class TypeDomain:
    name: str
    signedness: str   # unsigned | signed | boolean | big
    bit_width: int

    def __post_init__(self):
        # a domain holds at least one value; draws below rely on it
        if self.bit_width < 1:
            raise ValueError(f"bit_width must be >= 1, got {self.bit_width}")

    def bounds(self) -> tuple:
        """Representable range (inclusive)."""
        if self.signedness == "boolean":
            return (0, 1)
        if self.signedness == "unsigned":
            return (0, (1 << self.bit_width) - 1)
        # signed and capped big integers
        half = 1 << (self.bit_width - 1)
        return (-half, half - 1)


def _big(cap: int) -> TypeDomain:
    return TypeDomain("BigInt", "big", cap)


def compatible_types(big_int_bit_cap: int = DEFAULT_BIG_INT_BIT_CAP) -> tuple:
    """Concrete domains compatible with an integer argument, in fixed order."""
    return (
        TypeDomain("UInt8", "unsigned", 8),
        TypeDomain("UInt64", "unsigned", 64),
        TypeDomain("UInt32", "unsigned", 32),
        TypeDomain("UInt16", "unsigned", 16),
        TypeDomain("UInt128", "unsigned", 128),
        TypeDomain("Int8", "signed", 8),
        TypeDomain("Int64", "signed", 64),
        TypeDomain("Int32", "signed", 32),
        TypeDomain("Int16", "signed", 16),
        TypeDomain("Int128", "signed", 128),
        _big(big_int_bit_cap),
        TypeDomain("Bool", "boolean", 1),
    )


# setting name in manifests and config files -> (field, JSON type)
_SETTINGS = {
    "sampling.method": ("method", str),
    "sampling.cts": ("cts", bool),
    "sampling.big_int_bit_cap": ("big_int_bit_cap", int),
    "seed": ("seed", int),
}


@dataclass
class SamplerConfig:
    method: str = "bituniform"       # uniform | bituniform
    cts: bool = True
    big_int_bit_cap: int = DEFAULT_BIG_INT_BIT_CAP
    seed: int = 0

    def __post_init__(self):
        # the JSON type each setting has in manifests; a bool is no integer
        for name, (attr, kind) in _SETTINGS.items():
            typed(getattr(self, attr), kind, name)
        if self.method not in ("uniform", "bituniform"):
            raise ValueError(f"sampling.method must be 'uniform' or 'bituniform', got {self.method!r}")
        if self.big_int_bit_cap < 64:
            raise ValueError(f"sampling.big_int_bit_cap must be at least 64, got {self.big_int_bit_cap}")
        # inputs are rendered as decimal text, so the cap's largest magnitude,
        # 2 ** (cap - 1), must have at most the digits Python converts; 10 ** d
        # is no power of two, so that holds for caps up to its bit length.
        # Pythons before 3.10.7 have no such limit
        digits = getattr(sys, "get_int_max_str_digits", int)()
        most = (10 ** digits).bit_length()
        if digits and self.big_int_bit_cap > most:
            raise ValueError(f"sampling.big_int_bit_cap must be at most {most}, "
                             f"since Python converts integers of at most {digits} digits "
                             f"(sys.get_int_max_str_digits()), got {self.big_int_bit_cap}")

    def settings(self) -> dict:
        """The configuration under the setting names manifests record."""
        return {name: getattr(self, attr) for name, (attr, _) in _SETTINGS.items()}

    def with_settings(self, settings: dict) -> "SamplerConfig":
        """A copy with ``settings``, keyed as ``settings()`` keys them, laid over."""
        for name in settings:
            if name not in _SETTINGS:
                raise ValueError(f"unknown key {name!r}")
        return replace(self, **{_SETTINGS[name][0]: value for name, value in settings.items()})


# A domain's draw spec: (kind, n, k, lo, signed).  The first draw is below
# n, with k = n.bit_length() bits a try; what it means depends on the kind.
_BOOL, _UNIFORM, _BITUNIFORM = 0, 1, 2


def _spec(domain: TypeDomain, method: str) -> tuple:
    """The draw spec of ``domain`` under a sampling method."""
    if domain.signedness == "boolean":
        return (_BOOL, 2, 2, 0, False)
    if method == "uniform":
        lo, hi = domain.bounds()
        n = hi - lo + 1
        return (_UNIFORM, n, n.bit_length(), lo, False)
    width = domain.bit_width
    return (_BITUNIFORM, width, width.bit_length(), 0, domain.signedness in ("signed", "big"))


def _draw(getrandbits, spec: tuple) -> Value:
    """One value by its draw spec.  Each draw below n runs the loop of
    ``Random._randbelow`` inline: ``getrandbits(n.bit_length())`` until
    the result is below n."""
    kind, n, k, lo, signed = spec
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    if kind == _UNIFORM:
        return lo + r
    if kind == _BOOL:
        return bool(r)
    # bituniform: r is the bit length; the magnitude is drawn below half
    # = 2^(r-1) with r bits a try, as _randbelow(half) draws it
    if r:
        half = 1 << (r - 1)
        m = getrandbits(r)
        while m >= half:
            m = getrandbits(r)
        r = half + m
    if signed:
        s = getrandbits(2)
        while s >= 2:
            s = getrandbits(2)
        if s:
            return -r
    return r


def sample_value(domain: TypeDomain, config: SamplerConfig, rng: random.Random) -> Value:
    """Draw one value from a concrete domain.

    Bituniform: bit length L uniform in 0..width-1, magnitude uniform in
    [2^(L-1), 2^L), then a uniform sign for signed/big domains.  The
    two's-complement extreme negative is never produced, so every value
    survives a +/-1 mutation inside the domain.

    ``rng`` must be a ``random.Random``: draws call its ``getrandbits`` and
    run the loop of ``Random._randbelow`` inline.  ``randrange``,
    ``randint`` and ``choice`` reduce to exactly that loop for the non-empty
    ranges drawn here, so values and the generator's state are the same as
    through them.
    """
    return _draw(rng.getrandbits, _spec(domain, config.method))


@lru_cache(maxsize=None)
def _plan(method: str, cts: bool, big_int_bit_cap: int) -> tuple:
    """The sampling plan of a configuration: the domains an argument is
    drawn from, the bound and bit length of the draw that picks one (0 and
    0 without CTS, which draws none), and each domain's draw spec."""
    domains = compatible_types(big_int_bit_cap) if cts else (_big(big_int_bit_cap),)
    n = len(domains) if cts else 0
    return domains, n, n.bit_length(), tuple(_spec(d, method) for d in domains)


def sample_arguments(sut: SutDescriptor, config: SamplerConfig,
                     rng: random.Random) -> tuple:
    """One starting input, and the domain each argument was drawn from,
    which feeds search truncation: (inputs, domains).

    Draws as ``sample_value`` does, after drawing each argument's domain
    the way ``rng.choice(compatible_types(...))`` would."""
    domains, n, k, specs = _plan(config.method, config.cts, config.big_int_bit_cap)
    getrandbits = rng.getrandbits
    values, picked = [], []
    for _ in range(sut.arity):
        i = 0
        if n:
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
        values.append(_draw(getrandbits, specs[i]))
        picked.append(domains[i])
    return tuple(values), tuple(picked)
