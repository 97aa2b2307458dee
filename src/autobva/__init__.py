"""autobva: automated black-box boundary value detection.

Finds, deduplicates, ranks and summarizes pairs of nearby program inputs
whose outputs differ sharply, using an exact output-over-input distance
quotient as the boundariness score.
"""

from .detection import (
    Archive,
    BoundaryCandidate,
    DetectionConfig,
    DetectionResult,
    Runner,
    bcs_first_step,
    bcs_search,
    detect,
    lns_search,
)
from .distances import (
    JACCARD1,
    JACCARD2,
    LEVENSHTEIN,
    STRLEN,
    OutputDistance,
    input_distance,
    jaccard_ngram,
    levenshtein,
    parse_distance,
    pdq,
    strlendist,
)
from .sampling import SamplerConfig, TypeDomain, compatible_types, sample_arguments, sample_value
from .suts import BUILTIN_SUTS, SutDescriptor, execute, get_sut, make_external_sut
from .values import ExecutionOutcome, render_value

__version__ = "0.1.0"

__all__ = [
    "Archive", "BoundaryCandidate", "DetectionConfig", "DetectionResult",
    "Runner", "bcs_first_step", "bcs_search", "detect", "lns_search",
    "JACCARD1", "JACCARD2", "LEVENSHTEIN", "STRLEN", "OutputDistance",
    "input_distance", "jaccard_ngram", "levenshtein", "parse_distance", "pdq",
    "strlendist", "SamplerConfig", "TypeDomain", "compatible_types",
    "sample_arguments", "sample_value", "kmeans", "select_model",
    "silhouette", "summarize", "BUILTIN_SUTS", "SutDescriptor",
    "execute", "get_sut", "make_external_sut", "ExecutionOutcome", "render_value",
]

# Clustering needs numpy, which detection, ranking and the oracle never use,
# so these names import ``summarization`` on first access (PEP 562).
_SUMMARIZATION_NAMES = ("kmeans", "select_model", "silhouette", "summarize")


def __getattr__(name):
    if name in _SUMMARIZATION_NAMES:
        from . import summarization
        return getattr(summarization, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
