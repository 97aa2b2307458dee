"""Global input sampling: uniform and bituniform draws over the integer
type hierarchy, with optional compatible-type sampling (CTS) per argument.

Plain uniform sampling over a wide integer domain almost always yields huge
magnitudes; bituniform sampling first draws a bit length and then a value of
that length, spreading the mass over magnitudes.  CTS additionally picks a
concrete compatible type (down to Bool) per argument before sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache

from .suts import SutDescriptor
from .values import InputTuple, Value

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


@lru_cache(maxsize=None)
def _big(cap: int) -> TypeDomain:
    return TypeDomain("BigInt", "big", cap)


@lru_cache(maxsize=None)
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


# setting name in manifests and config files -> (field, JSON type, its name)
_SETTINGS = {
    "sampling.method": ("method", str, "a string"),
    "sampling.cts": ("cts", bool, "a bool"),
    "sampling.big_int_bit_cap": ("big_int_bit_cap", int, "an integer"),
    "seed": ("seed", int, "an integer"),
}


@dataclass
class SamplerConfig:
    method: str = "bituniform"       # uniform | bituniform
    cts: bool = True
    big_int_bit_cap: int = DEFAULT_BIG_INT_BIT_CAP
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("uniform", "bituniform"):
            raise ValueError(f"sampling.method must be 'uniform' or 'bituniform', got {self.method!r}")
        if self.big_int_bit_cap < 64:
            raise ValueError(f"sampling.big_int_bit_cap must be at least 64, got {self.big_int_bit_cap}")

    def settings(self) -> dict:
        """The configuration under the setting names manifests record."""
        return {name: getattr(self, attr) for name, (attr, _, _) in _SETTINGS.items()}

    def with_settings(self, settings: dict) -> "SamplerConfig":
        """A copy with ``settings``, keyed as ``settings()`` keys them, laid
        over; a value must have the JSON type ``settings()`` gives it."""
        changes = {}
        for name, value in settings.items():
            if name not in _SETTINGS:
                raise ValueError(f"unknown key {name!r}")
            attr, kind, kind_name = _SETTINGS[name]
            if type(value) is not kind:
                raise ValueError(f"{name} must be {kind_name}, got {type(value).__name__} {value!r}")
            changes[attr] = value
        return replace(self, **changes)


def sample_value(domain: TypeDomain, config: SamplerConfig, rng: random.Random) -> Value:
    """Draw one value from a concrete domain.

    Bituniform: bit length L uniform in 0..width-1, magnitude uniform in
    [2^(L-1), 2^L), then a uniform sign for signed/big domains.  The
    two's-complement extreme negative is never produced, so every value
    survives a +/-1 mutation inside the domain.

    Draws call ``rng._randbelow`` directly: ``randrange``, ``randint`` and
    ``choice`` reduce to exactly that call for the non-empty ranges drawn
    here, so values and the generator's state are the same as through them.
    """
    below = rng._randbelow
    if domain.signedness == "boolean":
        return bool(below(2))
    if config.method == "uniform":
        lo, hi = domain.bounds()
        return lo + below(hi - lo + 1)
    length = below(domain.bit_width)
    magnitude = 0 if length == 0 else (1 << (length - 1)) + below(1 << (length - 1))
    if domain.signedness in ("signed", "big") and below(2):
        return -magnitude
    return magnitude


def sample_arguments(sut: SutDescriptor, config: SamplerConfig,
                     rng: random.Random) -> list:
    """Per-argument (value, domain) pairs; the domain feeds search truncation."""
    out = []
    for _ in range(sut.arity):
        if config.cts:
            domains = compatible_types(config.big_int_bit_cap)
            domain = domains[rng._randbelow(len(domains))]
        else:
            domain = _big(config.big_int_bit_cap)
        out.append((sample_value(domain, config, rng), domain))
    return out


def sample_input(sut: SutDescriptor, config: SamplerConfig, rng: random.Random) -> InputTuple:
    """Draw one starting input for the detection loop."""
    return tuple(v for v, _ in sample_arguments(sut, config, rng))
