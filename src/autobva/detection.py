"""Boundary detection: the sample-then-search loop with its two local
strategies, and the deduplicating archive of scored candidates.

Local Neighbor Sampling (LNS) probes every +/-1 step of every argument
around a sampled point.  Boundary Crossing Search (BCS) picks one random
direction, expands the step exponentially until the output partition
changes, then binary-searches down to the adjacent input pair straddling
the change.  Both return only pairs whose outputs differ under the output
distance: a pair at distance 0 scores 0, which no detection threshold (never
below 0) keeps, so it is neither scored nor built.  A search compares each
probe's crossing key with the start's (``OutputDistance.key``, which differs
exactly when the distance is nonzero) and computes the output distance only
for a pair it returns.

Every random draw of a sample happens before its search starts, so searches
can run concurrently (on SUTs that allow it) while the archive, counts and
generator state stay those of a serial run.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Optional

from .distances import STRLEN, Distance, OutputDistance, pdq
from .sampling import SamplerConfig, sample_arguments
from .suts import SutDescriptor, execute
from .values import ExecutionOutcome, InputTuple, render_tuple

STRATEGIES = ("lns", "bcs")    # the local search strategies ``detect`` runs
MAX_DOUBLINGS = 96             # the most times a BCS expansion doubles its step


@dataclass(frozen=True, init=False)
class BoundaryCandidate:
    """A pair of nearby inputs with their outputs and exact score.

    The constructor puts the sides in ascending input order, so the same
    boundary discovered from either side deduplicates to one entry.  Both
    distances are symmetric, so the score is orientation-independent.
    ``key``, the rendered input pair, is the candidate's identity in
    archives and reports.  The constructor renders it, since nearly every
    candidate built is offered to an archive; under a ``detect`` threshold
    above 0, pairs at or below it are rendered too.
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
        d["key"] = (render_tuple(input1), render_tuple(input2))

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
    """Insertion-ordered set of candidates, keyed by the rendered input pair
    in its canonical orientation.  It keeps every candidate it is given;
    ``detect`` applies the detection threshold before it adds one."""

    def __init__(self):
        self._entries: dict = {}
        self.strategies: dict = {}    # key -> set of strategy names that found it

    def add(self, candidate: BoundaryCandidate, strategies: Collection[str] = ()) -> bool:
        """Insert if unseen, and tag it with ``strategies``; returns True on
        insertion.

        A strategy name must be non-empty and hold no ``;``, so that both
        archive formats can carry it; a bad name, or one string in place of
        a collection of names, leaves the archive as it was.
        """
        if isinstance(strategies, str):
            raise ValueError(f"strategy names must come in a collection, got the str {strategies!r}")
        for name in strategies:
            if not name or ";" in name:
                raise ValueError(f"strategy name must be non-empty and have no ';', got {name!r}")
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

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BoundaryCandidate]:
        return iter(self._entries.values())


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


def lns_search(runner: Runner, inputs: InputTuple,
               output_distance: OutputDistance = STRLEN) -> list:
    """Probe every one-step neighbor of the starting point, argument by
    argument, the increment before the decrement (a boolean has one, its
    flip); return the pairs whose outputs differ, in that order."""
    run, key = runner.run, output_distance.key
    base_outcome = run(inputs)
    base_text = base_outcome.text
    base_key = key(base_text)
    found = []
    for index, v in enumerate(inputs):
        head, tail = inputs[:index], inputs[index + 1:]
        for value in (not v,) if isinstance(v, bool) else (v + 1, v - 1):
            neighbor = head + (value,) + tail
            outcome = run(neighbor)
            if key(outcome.text) != base_key:
                d_o = output_distance.function(base_text, outcome.text)
                found.append(make_candidate(inputs, base_outcome, neighbor, outcome, d_o))
    return found


def bcs_first_step(rng: random.Random, arity: int) -> tuple:
    """Draw the first step of a BCS search: (argument index, +1 or -1)."""
    argument = rng.randrange(arity)
    return argument, rng.choice((1, -1))


def bcs_search(runner: Runner, output_distance: OutputDistance,
               inputs: InputTuple, step: tuple,
               domains: Optional[tuple] = None) -> list:
    """Boundary Crossing Search from one starting point along ``step``,
    the (argument index, +1 or -1) pair ``bcs_first_step`` draws.

    Returns the initial one-step pair when its outputs already differ;
    otherwise expands along the step's direction in steps of 2^k, k up to
    ``MAX_DOUBLINGS``, until the output partition changes, then squeezes the
    bracket down to the adjacent pair right at the change.  Returns nothing
    when no crossing is reachable.
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
    base_text, key = base_outcome.text, output_distance.key
    base_key = key(base_text)
    if key(next_outcome.text) != base_key:
        d_o = output_distance.function(base_text, next_outcome.text)
        return [make_candidate(inputs, base_outcome, first, next_outcome, d_o)]
    # chained steps leave {false, true} at once, so a boolean never expands
    if isinstance(start, bool):
        return []

    domain = domains[arg] if domains else None
    lowest, highest = domain.bounds() if domain is not None else (-math.inf, math.inf)

    crossing = None
    for k in range(1, MAX_DOUBLINGS + 1):
        value = start + delta * (1 << k)
        if not lowest <= value <= highest:
            break  # left the sampled domain: truncate the expansion
        if key(run(head + (value,) + tail).text) != base_key:
            crossing = k
            break
    if crossing is None:
        return []

    # smallest step in (2^(k-1), 2^k] whose output differs from the start's;
    # every step probed here lies between two probes that stayed in the domain
    low, high = 1 << (crossing - 1), 1 << crossing
    while high - low > 1:
        mid = (low + high) // 2
        if key(run(head + (start + delta * mid,) + tail).text) != base_key:
            high = mid
        else:
            low = mid
    i1 = head + (start + delta * (high - 1),) + tail
    i2 = head + (start + delta * high,) + tail
    o1, o2 = run(i1), run(i2)
    return [make_candidate(i1, o1, i2, o2, output_distance.function(o1.text, o2.text))]


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
    budget: dict                                  # {"seconds": s}, {"iterations": n} or {"executions": n}
    strategy: str = "bcs"                         # one of STRATEGIES
    threshold: Fraction = Fraction(0)
    output_distance: OutputDistance = STRLEN
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (isinstance(self.budget, dict) and len(self.budget) == 1
                and next(iter(self.budget)) in ("seconds", "iterations", "executions")):
            raise ValueError("budget must map one of seconds, iterations or executions to "
                             f"an amount, got {self.budget!r}")
        (kind, amount), = self.budget.items()
        # what the CLI accepts: a NaN or infinite deadline is never reached,
        # and a bool would be recorded as true or false
        if kind == "seconds":
            if type(amount) not in (int, float) or not 0 < amount < math.inf:
                raise ValueError(f"budget seconds must be finite and above 0, got {amount!r}")
        elif type(amount) is not int or amount < 0:
            raise ValueError(f"budget {kind} must be an integer at least 0, got {amount!r}")
        # scores are never negative: a threshold below 0 would only admit
        # equal-output pairs, which the searches do not return
        if self.threshold < 0:
            raise ValueError(f"threshold must be at least 0, got {self.threshold}")


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
    ``config.threshold``; the archive keeps one entry per ordered input pair.

    Samples, with every random draw their searches need, are drawn here in
    order; up to ``sut.concurrency`` searches run at once, and their results
    are archived in sample order.  Archive, counts and generator state are
    therefore those of a serial run.  Under a seconds budget no sample is
    drawn after the deadline; searches already started finish and count.
    Under an executions budget no sample is drawn once the searches already
    archived have made that many executions, so a run overshoots by less
    than one search.  Searches drawn ahead of that point, when several run
    at once, are dropped uncounted, so archive and counts are those of a
    serial run; only the generator has advanced past their draws.
    """
    rng = rng or random.Random(config.sampler.seed)
    archive = Archive()
    strategy, output_distance, threshold = config.strategy, config.output_distance, config.threshold
    (kind, amount), = config.budget.items()
    drops = kind == "executions"
    start = time.monotonic()
    # the budget spent so far, read once before each draw
    if kind == "iterations":
        spent = itertools.count().__next__     # so it returns the samples drawn
    elif drops:
        spent = lambda: executions
    else:
        spent = lambda: time.monotonic() - start

    def draws() -> Iterator[tuple]:
        while spent() < amount:
            inputs, domains = sample_arguments(sut, config.sampler, rng)
            if strategy == "lns":
                yield inputs, None, None
            else:
                yield inputs, bcs_first_step(rng, sut.arity), domains

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
    for found, cost in _ordered_map(search, draws(), sut.concurrency):
        if drops and executions >= amount:
            break   # drawn ahead of the spent budget: dropped, and the pool shuts down
        samples += 1
        executions += cost
        for candidate in found:
            if candidate.score > threshold:
                archive.add(candidate, tags)
    return DetectionResult(archive, samples=samples, executions=executions,
                           elapsed=time.monotonic() - start)
