"""Exhaustive adjacent-pair scan: the brute-force ground truth that search
results are validated against.

Walks every pair (x, x+1) of one argument over a finite window, holding the
other arguments fixed, and reports the pairs whose outputs differ under the
configured distance.  It calls the output distance itself, never its
crossing key, so it stays an independent check on the keys the searches
compare.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .detection import BoundaryCandidate, Runner, make_candidate
from .distances import STRLEN, OutputDistance
from .suts import SutDescriptor
from .values import InputTuple

MAX_UNFORCED_EVALUATIONS = 10 ** 8


def scan_adjacent(sut: SutDescriptor, start: int, stop: int,
                  output_distance: OutputDistance = STRLEN,
                  vary: int = 0, fixed: Optional[InputTuple] = None,
                  force: bool = False) -> Iterator[BoundaryCandidate]:
    """Yield every boundary pair (x, x+1) for x in [start, stop).

    ``fixed`` supplies the full argument tuple for multi-argument programs;
    argument ``vary`` sweeps the window.  Refuses windows needing more than
    10^8 evaluations unless forced.
    """
    if stop < start:
        raise ValueError(f"empty or negative window: stop must be >= start, "
                         f"got start {start} and stop {stop}")
    evaluations = stop - start + 1
    if evaluations > MAX_UNFORCED_EVALUATIONS and not force:
        raise ValueError(
            f"window needs {evaluations} evaluations (> {MAX_UNFORCED_EVALUATIONS}); "
            "pass force to run anyway")
    if fixed is None:
        if sut.arity != 1:
            raise ValueError(f"{sut.name} has arity {sut.arity}; fixed values are required")
        fixed = (0,)
    if len(fixed) != sut.arity:
        raise ValueError(f"fixed tuple has {len(fixed)} values; {sut.name} has arity {sut.arity}")
    if not 0 <= vary < sut.arity:
        raise ValueError(f"vary index must be in 0..{sut.arity - 1} for {sut.name}, got {vary}")

    def at(x: int) -> InputTuple:
        return fixed[:vary] + (x,) + fixed[vary + 1:]

    run = Runner(sut).run
    prev_input = at(start)
    prev = run(prev_input)
    for x in range(start, stop):
        cur_input = at(x + 1)
        cur = run(cur_input)
        distance = output_distance(prev.text, cur.text)
        if distance > 0:
            yield make_candidate(prev_input, prev, cur_input, cur, distance)
        prev_input, prev = cur_input, cur


def boundary_pairs(sut: SutDescriptor, start: int, stop: int,
                   output_distance: OutputDistance = STRLEN, **kwargs) -> list:
    """The scan as a list of (x, x+1) value pairs of the varied argument."""
    vary = kwargs.get("vary", 0)
    return [(c.input1[vary], c.input2[vary])
            for c in scan_adjacent(sut, start, stop, output_distance, **kwargs)]


def is_boundary_pair(sut: SutDescriptor, i1: InputTuple, i2: InputTuple,
                     output_distance: OutputDistance = STRLEN) -> bool:
    """Oracle predicate: adjacent inputs whose outputs differ under d_o."""
    diffs = [(a, b) for a, b in zip(i1, i2) if a != b]
    if len(diffs) != 1 or abs(int(diffs[0][0]) - int(diffs[0][1])) != 1:
        return False
    run = Runner(sut).run
    return output_distance(run(i1).text, run(i2).text) > 0
