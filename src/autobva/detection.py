"""Boundary detection: the sample-then-search loop with its two local
strategies, and the deduplicating archive of scored candidates.

Local Neighbor Sampling (LNS) probes every +/-1 step of every argument
around a sampled point.  Boundary Crossing Search (BCS) picks one random
direction, expands the step exponentially until the output partition
changes, then binary-searches down to the adjacent input pair straddling
the change.  Both return only pairs whose outputs differ under the output
distance: a pair at distance 0 scores 0, which no detection threshold (never
below 0) keeps, so it is neither scored nor built.

Every random draw of a sample happens before its search starts, so searches
can run concurrently (on SUTs that allow it) while the archive, counts and
generator state stay those of a serial run.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Iterator, Optional

from .distances import STRLEN, Distance, OutputDistance, pdq
from .sampling import SamplerConfig, sample_arguments
from .suts import SutDescriptor, execute
from .values import ExecutionOutcome, InputTuple, render_tuple


@dataclass(frozen=True, init=False)
class BoundaryCandidate:
    """A pair of nearby inputs with their outputs and exact score.

    The constructor puts the sides in ascending input order, so the same
    boundary discovered from either side deduplicates to one entry.  Both
    distances are symmetric, so the score is orientation-independent.
    """

    input1: InputTuple
    output1: ExecutionOutcome
    input2: InputTuple
    output2: ExecutionOutcome
    score: Fraction

    def __init__(self, input1: InputTuple, output1: ExecutionOutcome,
                 input2: InputTuple, output2: ExecutionOutcome, score: Fraction):
        if input1 > input2:  # bools compare as 0/1, so this is numeric elementwise order
            input1, output1, input2, output2 = input2, output2, input1, output1
        # One candidate per scored pair: filling the instance dict directly is
        # cheaper than the frozen dataclass's object.__setattr__ per field.
        d = self.__dict__
        d["input1"] = input1
        d["output1"] = output1
        d["input2"] = input2
        d["output2"] = output2
        d["score"] = score

    @cached_property
    def key(self) -> tuple:
        """The rendered input pair, the candidate's identity in archives and
        reports; rendered on first use and kept, so pairs that never reach
        an archive never pay for it."""
        return (render_tuple(self.input1), render_tuple(self.input2))

    @property
    def validity(self) -> str:
        tags = (self.output1.is_valid, self.output2.is_valid)
        if all(tags):
            return "VV"
        if not any(tags):
            return "EE"
        return "VE"


def make_candidate(i1: InputTuple, o1: ExecutionOutcome,
                   i2: InputTuple, o2: ExecutionOutcome, d_o: Distance) -> BoundaryCandidate:
    """The candidate of a pair whose outputs are ``d_o`` apart."""
    return BoundaryCandidate(i1, o1, i2, o2, pdq(i1, i2, d_o))


class Archive:
    """Insertion-ordered set of candidates above the boundariness threshold,
    keyed by the rendered input pair in its canonical orientation."""

    def __init__(self, threshold: Fraction = Fraction(0)):
        self.threshold = Fraction(threshold)
        self._entries: dict = {}
        self.strategies: dict = {}    # key -> set of strategy names that found it

    def add(self, candidate: BoundaryCandidate, strategies: Collection[str] = ()) -> bool:
        """Insert if above threshold and unseen, and tag it with
        ``strategies``; returns True on insertion.

        A strategy name must be non-empty and hold no ``;``, so that both
        archive formats can carry it; a bad name leaves the archive as it was.
        """
        for name in strategies:
            if not name or ";" in name:
                raise ValueError(f"strategy name must be non-empty and have no ';', got {name!r}")
        if candidate.score <= self.threshold:
            return False
        key = candidate.key
        fresh = key not in self._entries
        if fresh:
            self._entries[key] = candidate
        if strategies:
            self.strategies.setdefault(key, set()).update(strategies)
        return fresh

    def merge(self, other: "Archive") -> None:
        for candidate in other:
            self.add(candidate, other.strategies.get(candidate.key, ()))

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BoundaryCandidate]:
        return iter(self._entries.values())

    @property
    def candidates(self) -> list:
        return list(self._entries.values())


class Runner:
    """The one execution path of the searches and the oracle: runs a SUT and
    counts every requested execution.

    Executions go through this module's ``execute``, looked up at call time,
    so anything that wraps that function sees every call.
    """

    __slots__ = ("sut", "executions")

    def __init__(self, sut: SutDescriptor):
        self.sut = sut
        self.executions = 0

    def run(self, inputs: InputTuple) -> ExecutionOutcome:
        self.executions += 1
        return execute(self.sut, inputs)


def _neighbors(inputs: InputTuple) -> Iterator[InputTuple]:
    """Every one-step neighbor of ``inputs``, argument by argument, the
    increment before the decrement.  A boolean has exactly one, its flip."""
    for index, v in enumerate(inputs):
        head, tail = inputs[:index], inputs[index + 1:]
        if isinstance(v, bool):
            yield head + (not v,) + tail
        else:
            yield head + (v + 1,) + tail
            yield head + (v - 1,) + tail


def lns_search(runner: Runner, inputs: InputTuple,
               output_distance: OutputDistance = STRLEN) -> list:
    """Probe every one-step neighbor of the starting point; return the pairs
    whose outputs differ, in neighbor order."""
    run = runner.run
    base_outcome = run(inputs)
    base_text, distance = base_outcome.text, output_distance.function
    found = []
    for neighbor in _neighbors(inputs):
        outcome = run(neighbor)
        d_o = distance(base_text, outcome.text)
        if d_o:
            found.append(make_candidate(inputs, base_outcome, neighbor, outcome, d_o))
    return found


def bcs_first_step(rng: random.Random, arity: int) -> tuple:
    """Draw the first step of a BCS search: (argument index, +1 or -1)."""
    argument = rng.randrange(arity)
    return argument, rng.choice((1, -1))


def bcs_search(runner: Runner, output_distance: OutputDistance,
               inputs: InputTuple, step: tuple,
               domains: Optional[tuple] = None,
               max_doublings: int = 96) -> list:
    """Boundary Crossing Search from one starting point along ``step``,
    the (argument index, +1 or -1) pair ``bcs_first_step`` draws.

    Returns the initial one-step pair when its outputs already differ;
    otherwise expands along the step's direction in steps of 2^k until the
    output partition changes, then squeezes the bracket down to the adjacent
    pair right at the change.  Returns nothing when no crossing is reachable.
    Expansion and bisection probes stay in the sampled value domain; the
    first one-step neighbour may lie one past its edge, as LNS neighbours may.
    A boolean argument steps only from false up or from true down, to its
    flip; any other step on it returns nothing.
    """
    run = runner.run
    arg, delta = step
    start = inputs[arg]
    head, tail = inputs[:arg], inputs[arg + 1:]
    if isinstance(start, bool):
        if start is (delta > 0):
            return []
        first = head + (not start,) + tail
    else:
        first = head + (start + delta,) + tail
    base_outcome = run(inputs)
    next_outcome = run(first)
    base_text, distance = base_outcome.text, output_distance.function
    d_o = distance(base_text, next_outcome.text)
    if d_o:
        return [make_candidate(inputs, base_outcome, first, next_outcome, d_o)]
    # chained steps leave {false, true} at once, so a boolean never expands
    if isinstance(start, bool):
        return []

    domain = domains[arg] if domains else None
    lowest, highest = domain.bounds() if domain is not None else (-math.inf, math.inf)

    crossing = None
    for k in range(1, max_doublings + 1):
        value = start + delta * (1 << k)
        if not lowest <= value <= highest:
            break  # left the sampled domain: truncate the expansion
        if distance(base_text, run(head + (value,) + tail).text) > 0:
            crossing = k
            break
    if crossing is None:
        return []

    # smallest step in (2^(k-1), 2^k] whose output differs from the start's;
    # every step probed here lies between two probes that stayed in the domain
    low, high = 1 << (crossing - 1), 1 << crossing
    while high - low > 1:
        mid = (low + high) // 2
        if distance(base_text, run(head + (start + delta * mid,) + tail).text) > 0:
            high = mid
        else:
            low = mid
    i1 = head + (start + delta * (high - 1),) + tail
    i2 = head + (start + delta * high,) + tail
    o1, o2 = run(i1), run(i2)
    return [make_candidate(i1, o1, i2, o2, distance(o1.text, o2.text))]


def _ordered_map(fn, items: Iterable, width: int) -> Iterator:
    """``map(fn, items)`` with up to ``width`` calls of ``fn`` running at once
    on worker threads.

    ``items`` is advanced, and results are yielded in item order, in the
    calling thread only; an item is taken only when a result has been
    consumed or fewer than ``2 * width`` are pending.  Width 1 is plain
    ``map``: no thread and no per-call cost.
    """
    if width == 1:
        return map(fn, items)
    return _threaded_map(fn, items, width)


def _threaded_map(fn, items: Iterable, width: int) -> Iterator:
    # imported on first use: concurrent.futures brings in logging, about
    # 9 ms of start-up that runs on built-in SUTs alone never need
    from concurrent.futures import ThreadPoolExecutor

    pending: deque = deque()
    pool = ThreadPoolExecutor(width, thread_name_prefix="autobva-search")
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= 2 * width:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class DetectionConfig:
    strategy: str = "bcs"                         # lns | bcs
    budget_seconds: Optional[float] = None
    budget_iterations: Optional[int] = None
    threshold: Fraction = Fraction(0)
    output_distance: OutputDistance = STRLEN
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.strategy not in ("lns", "bcs"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.budget_seconds is None and self.budget_iterations is None:
            raise ValueError("a budget (seconds or iterations) is required")
        # scores are never negative: a threshold below 0 would only admit
        # equal-output pairs, which the searches do not return
        if self.threshold < 0:
            raise ValueError(f"threshold must be at least 0, got {self.threshold}")

    @property
    def budget(self) -> dict:
        """The budget as manifests and reports record it."""
        if self.budget_iterations is not None:
            return {"iterations": self.budget_iterations}
        return {"seconds": self.budget_seconds}


@dataclass
class DetectionResult:
    archive: Archive
    samples: int = 0
    executions: int = 0
    elapsed: float = 0.0


def detect(sut: SutDescriptor, config: DetectionConfig,
           rng: Optional[random.Random] = None) -> DetectionResult:
    """Run the two-step detection loop until the budget is exhausted.

    Each iteration samples a fresh global starting point, runs the configured
    local strategy, and archives every returned candidate whose score exceeds
    the threshold and whose ordered input pair is unseen.

    Samples, with every random draw their searches need, are drawn here in
    order; up to ``sut.concurrency`` searches run at once, and their results
    are archived in sample order.  Archive, counts and generator state are
    therefore those of a serial run.  Under a seconds budget no sample is
    drawn after the deadline; searches already started finish and count.
    """
    rng = rng or random.Random(config.sampler.seed)
    archive = Archive(config.threshold)
    strategy, output_distance = config.strategy, config.output_distance
    iterations, seconds = config.budget_iterations, config.budget_seconds
    start = time.monotonic()

    def draws() -> Iterator[tuple]:
        drawn = 0
        while True:
            if iterations is not None:
                if drawn >= iterations:
                    return
            elif time.monotonic() - start >= seconds:
                return
            pairs = sample_arguments(sut, config.sampler, rng)
            inputs = tuple(v for v, _ in pairs)
            drawn += 1
            if strategy == "lns":
                yield inputs, None, None
            else:
                yield inputs, bcs_first_step(rng, sut.arity), tuple(d for _, d in pairs)

    # a Runner per search, so no count is shared between threads
    def search(draw: tuple) -> tuple:
        runner = Runner(sut)
        inputs, step, domains = draw
        if step is None:
            found = lns_search(runner, inputs, output_distance)
        else:
            found = bcs_search(runner, output_distance, inputs, step, domains)
        return found, runner.executions

    samples, executions, tags = 0, 0, (strategy,)
    for found, spent in _ordered_map(search, draws(), sut.concurrency):
        samples += 1
        executions += spent
        for candidate in found:
            archive.add(candidate, tags)
    return DetectionResult(archive, samples=samples, executions=executions,
                           elapsed=time.monotonic() - start)
