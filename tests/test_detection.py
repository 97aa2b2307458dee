"""The two local strategies, the archive, and the loop."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import autobva.cli as cli
import autobva.detection as detection
import autobva.summarization as summarization
import autobva.suts as suts
from autobva.archive_io import run_manifest, write_archive_csv, write_archive_json
from autobva.detection import (
    Archive,
    BoundaryCandidate,
    DetectionConfig,
    Runner,
    bcs_first_step,
    bcs_search,
    detect,
    lns_search,
    make_candidate,
)
from autobva.distances import JACCARD2, LEVENSHTEIN, STRLEN, OutputDistance, parse_distance
from autobva.oracle import boundary_pairs, is_boundary_pair
from autobva.sampling import SamplerConfig, TypeDomain, sample_arguments
from autobva.suts import SutDescriptor, execute, get_sut
from autobva.values import ExecutionOutcome

BC = get_sut("bytecount")
DATE = get_sut("date")


def flat(arity):
    """A SUT whose output never changes."""
    return SutDescriptor("flat", arity, lambda inputs: ExecutionOutcome("x"))


def parity(arity):
    """A SUT whose output length changes on every +/-1 step of any argument
    and on every boolean flip: one character more when the sum is odd."""
    return SutDescriptor("parity", arity,
                         lambda inputs: ExecutionOutcome("x" * (1 + sum(map(int, inputs)) % 2)))


# ---------------------------------------------------------------------------
# BCS's first step


def first_pair(inputs, step):
    """The one-step pair a BCS search starts from: parity's output changes
    on every step, so no search expands."""
    found = bcs_search(Runner(parity(len(inputs))), STRLEN, inputs, step)
    return [(c.input1, c.input2) for c in found]


def test_bcs_first_step_integers():
    assert first_pair((10,), (0, 1)) == [((10,), (11,))]
    assert first_pair((10,), (0, -1)) == [((9,), (10,))]
    assert first_pair((0, 2, 1), (2, -1)) == [((0, 2, 0), (0, 2, 1))]
    assert first_pair((-(10**30),), (0, 1)) == [((-(10**30),), (-(10**30) + 1,))]


def test_bcs_first_step_booleans():
    assert first_pair((False,), (0, 1)) == [((False,), (True,))]
    assert first_pair((True,), (0, -1)) == [((False,), (True,))]
    assert first_pair((True,), (0, 1)) == []
    assert first_pair((False,), (0, -1)) == []
    for pair in first_pair((False,), (0, 1)) + first_pair((True,), (0, -1)):
        assert [type(side[0]) for side in pair] == [bool, bool]


def test_bcs_first_step_draws_randrange_then_choice():
    rng, reference = Random(4), Random(4)
    for arity in [1, 2, 3] * 200:
        argument = reference.randrange(arity)
        direction = reference.choice(("increment", "decrement"))
        assert bcs_first_step(rng, arity) == (argument, 1 if direction == "increment" else -1)
    assert rng.getstate() == reference.getstate()
    # randrange refuses an empty range
    with pytest.raises(ValueError):
        bcs_first_step(rng, 0)


# ---------------------------------------------------------------------------
# candidates and archive


def scored_pair(i1, o1, i2, o2, output_distance=STRLEN):
    """The candidate of a pair, its output distance computed here."""
    return make_candidate(i1, o1, i2, o2, output_distance(o1.text, o2.text))


def executed_pair(sut, i1, i2):
    return scored_pair(i1, execute(sut, i1), i2, execute(sut, i2))


def test_candidate_canonical_orientation():
    o1, o2 = ExecutionOutcome("10B"), ExecutionOutcome("9B")
    c = BoundaryCandidate((10,), o1, (9,), o2, Fraction(1))
    assert c.input1 == (9,) and c.input2 == (10,)
    assert c.output1.text == "9B" and c.output2.text == "10B"
    assert c.key == ("9", "10")
    assert c == BoundaryCandidate((9,), o2, (10,), o1, Fraction(1))
    flip = BoundaryCandidate((True, 0), o1, (False, 0), o2, Fraction(1))
    assert (flip.input1, flip.output1, flip.input2, flip.output2) == ((False, 0), o2, (True, 0), o1)


def test_candidate_validity_tags():
    def cand(a, b):
        return executed_pair(BC, (a,), (b,))
    assert cand(999, 1000).validity == "VV"
    assert cand(999999999999994822656, 999999999999994822657).validity == "VE"
    assert cand(999999999999990520104160854016,
                999999999999990520104160854017).validity == "EE"


def test_candidate_is_a_frozen_value():
    o1, o2 = ExecutionOutcome("9B"), ExecutionOutcome("10B")
    c = BoundaryCandidate((9,), o1, (10,), o2, Fraction(1))
    fresh = BoundaryCandidate((9,), o1, (10,), o2, Fraction(1))
    assert c.key == ("9", "10")    # kept on c only; identity stays the five fields
    for name in ("input1", "output1", "input2", "output2", "score", "key"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
    assert [f.name for f in dataclasses.fields(c)] == \
        ["input1", "output1", "input2", "output2", "score"]
    assert c == fresh and fresh == c
    assert hash(c) == hash(fresh) == hash(((9,), o1, (10,), o2, Fraction(1)))
    assert c != BoundaryCandidate((9,), o1, (10,), o2, Fraction(2))
    assert repr(c) == repr(fresh) == (
        "BoundaryCandidate(input1=(9,), output1=ExecutionOutcome(text='9B', error_kind=None, "
        "payload={}), input2=(10,), output2=ExecutionOutcome(text='10B', error_kind=None, "
        "payload={}), score=Fraction(1, 1))")
    moved = dataclasses.replace(c, score=Fraction(3))
    assert moved.score == 3 and moved.key == c.key


def test_archive_deduplicates_both_orientations():
    archive = Archive()
    a = executed_pair(BC, (9,), (10,))
    b = executed_pair(BC, (10,), (9,))
    assert archive.add(a, ("lns",))
    assert not archive.add(b, ("bcs",))
    assert len(archive) == 1
    assert archive.strategies[a.key] == {"lns", "bcs"}


def scored(score, at: int):
    """A candidate with the given score on the key (at, at + 1)."""
    return BoundaryCandidate((at,), ExecutionOutcome("a"), (at + 1,), ExecutionOutcome("b"),
                             Fraction(score))


def test_archive_merge_unions_strategies():
    target, source = Archive(), Archive()
    low, high, shared = scored(0, 1), scored(1, 3), scored(2, 5)
    assert target.add(shared, ("lns",))
    for candidate, strategy in ((low, "lns"), (high, "lns"), (shared, "bcs")):
        assert source.add(candidate, (strategy,))
    target.merge(source)
    assert [c.key for c in target] == [shared.key, low.key, high.key]
    assert target.strategies == {shared.key: {"lns", "bcs"}, low.key: {"lns"},
                                 high.key: {"lns"}}


@pytest.mark.parametrize("bad", ["", "x;y"])
def test_archive_add_rejects_names_the_formats_cannot_carry(bad):
    """An empty name or one with ';' would not survive a CSV or JSON round
    trip, so no archive takes it; one string in place of a collection would
    tag a candidate with its letters.  A rejected add changes nothing."""
    archive = Archive()
    kept, fresh = scored(1, 1), scored(1, 3)
    assert archive.add(kept, ("lns",))
    for candidate in (kept, fresh):
        for strategies in (("bcs", bad), "bcs"):
            with pytest.raises(ValueError, match="strategy name"):
                archive.add(candidate, strategies)
    assert [c.key for c in archive] == [kept.key]
    assert archive.strategies == {kept.key: {"lns"}}


# ---------------------------------------------------------------------------
# Runner


def test_runner_counts_every_requested_execution():
    runner = Runner(BC)
    assert runner.run((999,)).text == "999B"
    assert runner.run((999,)).text == "999B"    # repeats are executed and counted
    assert runner.executions == 2
    lns_search(runner, (10,), STRLEN)
    assert runner.executions == 2 + 3


# ---------------------------------------------------------------------------
# LNS


def test_lns_probes_all_neighbors():
    # "11B" has the length of "10B", so only the (10, 9) probe is returned,
    # in canonical orientation; both neighbours are executed
    runner = Runner(BC)
    found = lns_search(runner, (10,), STRLEN)
    assert [(c.input1, c.input2, c.score) for c in found] == [((9,), (10,), 1)]
    assert runner.executions == 3


def test_lns_on_date_emits_up_to_six():
    # of the six neighbours of 0000-02-01 only year -1 ("-0001-02-01") and
    # day 0 (an error) change the output's length
    runner = Runner(DATE)
    found = lns_search(runner, (0, 2, 1), STRLEN)
    assert [(c.input1, c.input2, c.score, c.validity) for c in found] == \
        [((-1, 2, 1), (0, 2, 1), 1, "VV"), ((0, 2, 0), (0, 2, 1), 33, "VE")]
    assert runner.executions == 7


def test_lns_and_bcs_return_nothing_on_a_flat_sut():
    runner = Runner(flat(3))
    assert lns_search(runner, (0, True, -5), STRLEN) == []
    assert runner.executions == 1 + 5
    runner = Runner(flat(3))
    assert bcs_search(runner, STRLEN, (0, True, -5), (2, 1)) == []
    assert runner.executions == 2 + 96    # start, first step, every doubling


def test_lns_neighbor_order():
    # argument by argument, the increment before the decrement; a boolean flips
    cases = {
        (0, 2, 1): [(1, 2, 1), (-1, 2, 1), (0, 3, 1), (0, 1, 1), (0, 2, 2), (0, 2, 0)],
        (True, -5, False): [(False, -5, False), (True, -4, False), (True, -6, False),
                            (True, -5, True)],
        (False, True, 10 ** 30): [(True, True, 10 ** 30), (False, False, 10 ** 30),
                                  (False, True, 10 ** 30 + 1), (False, True, 10 ** 30 - 1)],
    }
    for inputs, expected in cases.items():
        found = [c.input2 if c.input1 == inputs else c.input1
                 for c in lns_search(Runner(parity(3)), inputs, STRLEN)]
        assert found == expected
        assert [tuple(map(type, n)) for n in found] == \
            [tuple(map(type, n)) for n in expected]


def test_lns_boolean_saturation():
    found = lns_search(Runner(BC), (True,), STRLEN)
    assert len(found) == 1
    assert found[0].input1 == (False,) and found[0].input2 == (True,)


# ---------------------------------------------------------------------------
# BCS


def test_bcs_initial_pair_already_crossing():
    rng = Random(1)
    found = bcs_search(Runner(BC), STRLEN, (999949,), bcs_first_step(rng, 1))
    assert len(found) == 1
    c = found[0]
    # whichever direction was drawn, the emitted pair is a real boundary
    assert c.score > 0
    assert is_boundary_pair(BC, c.input1, c.input2)


def test_bcs_squeezes_to_first_length_change():
    # exhaustive scan confirms the only change in [5e5, 1e6] is at 999949/999950
    assert boundary_pairs(BC, 500_000, 10**6) == [(999949, 999950)]
    hits = 0
    for seed in range(40):  # both directions get drawn across seeds
        found = bcs_search(Runner(BC), STRLEN, (500_000,), bcs_first_step(Random(seed), 1))
        assert len(found) == 1
        c = found[0]
        if c.input1 == (999949,):   # increment direction
            assert c.input2 == (999950,)
            assert c.score == 2     # len("999.9 kB") - len("1.0 MB")
            hits += 1
        else:                       # decrement walks down to the kB plateau edge
            assert c.score > 0
            assert is_boundary_pair(BC, c.input1, c.input2)
    assert hits > 5


def test_bcs_no_crossing_returns_nothing(monkeypatch):
    # a flat plateau: uniform huge negative, nothing reachable in 2^k steps;
    # the start, its first step and all 8 expansion probes are executed
    monkeypatch.setattr(detection, "MAX_DOUBLINGS", 8)
    rng = Random(3)
    runner = Runner(BC)
    found = bcs_search(runner, STRLEN, (-(10**30) + 10**9,), bcs_first_step(rng, 1))
    assert found == []
    assert runner.executions == 2 + 8


def test_bcs_respects_value_domain():
    rng = Random(5)
    domain = TypeDomain("Int8", "signed", 8)
    for _ in range(100):
        found = bcs_search(Runner(BC), STRLEN, (100,), bcs_first_step(rng, 1),
                           domains=(domain,))
        for c in found:
            assert -128 <= c.input1[0] <= 127
            assert -128 <= c.input2[0] <= 127


def test_bcs_first_step_may_leave_value_domain():
    # only expansion and bisection probes are kept in the domain
    domain = TypeDomain("UInt8", "unsigned", 8)
    for start, step, pair in [((0,), (0, -1), ((-1,), (0,))),
                              ((255,), (0, 1), ((255,), (256,)))]:
        found = bcs_search(Runner(parity(1)), STRLEN, start, step, domains=(domain,))
        assert [(c.input1, c.input2) for c in found] == [pair]


def test_bcs_postcondition_on_seeded_searches():
    rng = Random(11)
    for _ in range(300):
        start = (rng.randint(-10**6, 10**6),)
        found = bcs_search(Runner(BC), STRLEN, start, bcs_first_step(rng, 1))
        if not found:
            continue
        c = found[0]
        diffs = [abs(int(a) - int(b)) for a, b in zip(c.input1, c.input2)]
        assert sum(diffs) == 1 and diffs.count(1) == 1
        assert c.score > 0
        assert is_boundary_pair(BC, c.input1, c.input2)


def test_bcs_boolean_start_has_no_expansion():
    rng = Random(2)
    for _ in range(20):
        found = bcs_search(Runner(BC), STRLEN, (True,), bcs_first_step(rng, 1))
        if found:
            assert found[0].input1 == (False,)
            assert found[0].input2 == (True,)


# ---------------------------------------------------------------------------
# the searches against their unfiltered forms


def _reference_lns_search(runner, inputs, output_distance=STRLEN):
    """Every one-step neighbor of the starting point, scored, equal outputs
    included."""
    run = runner.run
    base_outcome = run(inputs)
    neighbors = []
    for index, v in enumerate(inputs):
        steps = [not v] if type(v) is bool else [v + 1, v - 1]
        neighbors += [inputs[:index] + (value,) + inputs[index + 1:] for value in steps]
    return [scored_pair(inputs, base_outcome, neighbor, run(neighbor), output_distance)
            for neighbor in neighbors]


def _reference_bcs_search(runner, output_distance, inputs, step, domains=None):
    """BCS that returns its initial pair, scored, when that pair already
    crosses or when no crossing is reachable."""
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
    initial = scored_pair(inputs, base_outcome, first, next_outcome, output_distance)
    if initial.score > 0 or isinstance(start, bool):
        return [initial]

    domain = domains[arg] if domains else None
    lowest, highest = domain.bounds() if domain is not None else (-float("inf"), float("inf"))
    distance = output_distance.function
    base_text = base_outcome.text

    crossing = None
    for k in range(1, detection.MAX_DOUBLINGS + 1):
        value = start + delta * (1 << k)
        if not lowest <= value <= highest:
            break
        if distance(base_text, run(head + (value,) + tail).text) > 0:
            crossing = k
            break
    if crossing is None:
        return [initial]

    low, high = 1 << (crossing - 1), 1 << crossing
    while high - low > 1:
        mid = (low + high) // 2
        if distance(base_text, run(head + (start + delta * mid,) + tail).text) > 0:
            high = mid
        else:
            low = mid
    i1 = head + (start + delta * (high - 1),) + tail
    i2 = head + (start + delta * high,) + tail
    return [scored_pair(i1, run(i1), i2, run(i2), output_distance)]


def described(candidates):
    """Inputs with their value types, outcome texts, error kinds and score."""
    return [(c.input1, tuple(map(type, c.input1)), c.input2, tuple(map(type, c.input2)),
             c.output1.text, c.output1.error_kind, c.output2.text, c.output2.error_kind,
             c.score) for c in candidates]


@pytest.mark.parametrize("distance", [STRLEN, JACCARD2, LEVENSHTEIN], ids=lambda d: d.name)
@pytest.mark.parametrize("sut", ["bytecount", "bmi", "bmi-class", "date"])
def test_searches_return_the_reference_pairs_that_score_above_zero(sut, distance):
    """On seeded samples each search returns exactly the positive-score pairs
    of its unfiltered form, in order, after the same executions."""
    desc, rng = get_sut(sut), Random(17)
    kept = dropped = with_booleans = 0
    for _ in range(400):
        inputs, domains = sample_arguments(desc, SamplerConfig(seed=17), rng)
        with_booleans += any(isinstance(v, bool) for v in inputs)
        step = bcs_first_step(rng, desc.arity)
        searches = [(lns_search, _reference_lns_search, (inputs, distance)),
                    (bcs_search, _reference_bcs_search, (distance, inputs, step, domains))]
        for search, reference, args in searches:
            runner, reference_runner = Runner(desc), Runner(desc)
            found, scored = search(runner, *args), reference(reference_runner, *args)
            assert described(found) == described([c for c in scored if c.score > 0])
            assert runner.executions == reference_runner.executions
            kept += len(found)
            dropped += len(scored) - len(found)
    assert kept > 0 and dropped > 0 and with_booleans > 0


def counting(output_distance):
    """``output_distance`` with a function and a key that record each of
    their calls."""
    calls, keyed = [], []

    def function(s1, s2):
        calls.append((s1, s2))
        return output_distance.function(s1, s2)

    def key(s):
        keyed.append(s)
        return output_distance.key(s)

    return OutputDistance(output_distance.name, function, key), calls, keyed


@pytest.mark.parametrize("distance", [STRLEN, JACCARD2, LEVENSHTEIN], ids=lambda d: d.name)
@pytest.mark.parametrize("sut", ["bytecount", "bmi", "bmi-class", "date"])
def test_searches_compute_each_output_distance_once(sut, distance):
    """The searches compute one crossing key per probe compared with the
    start, the start's own included, and one output distance per returned
    pair.  LNS compares every execution; BCS every one but a bisected final
    pair's two, which it runs again."""
    desc, rng = get_sut(sut), Random(23)
    counted, calls, keyed = counting(distance)

    def scored(found):
        return [{c.output1.text, c.output2.text} for c in found]

    returned = bisected = 0
    for _ in range(300):
        inputs, domains = sample_arguments(desc, SamplerConfig(seed=23), rng)
        runner = Runner(desc)
        found = lns_search(runner, inputs, counted)
        returned += len(found)
        assert len(keyed) == runner.executions
        assert [set(pair) for pair in calls] == scored(found)
        calls.clear()
        keyed.clear()
        runner = Runner(desc)
        found = bcs_search(runner, counted, inputs, bcs_first_step(rng, desc.arity), domains)
        returned += len(found)
        # a bisected pair is at least one step from the start; a boolean
        # stepped out of {false, true} executes nothing
        final = bool(found) and inputs not in (found[0].input1, found[0].input2)
        assert len(keyed) == runner.executions - 2 * final
        assert [set(pair) for pair in calls] == scored(found)
        bisected += final
        calls.clear()
        keyed.clear()
    assert returned > 0 and bisected > 0


# ---------------------------------------------------------------------------
# full loop


def test_detect_iteration_budget_and_counts():
    cfg = DetectionConfig(strategy="lns", budget={"iterations": 50},
                          sampler=SamplerConfig(seed=9))
    result = detect(BC, cfg)
    assert result.samples == 50
    assert result.executions > 50
    for c in result.archive:
        assert c.score > 0


def test_detect_zero_iterations():
    cfg = DetectionConfig(strategy="bcs", budget={"iterations": 0})
    result = detect(BC, cfg)
    assert len(result.archive) == 0 and result.samples == 0


def test_detect_wall_clock_budget():
    cfg = DetectionConfig(strategy="lns", budget={"seconds": 0.1},
                          sampler=SamplerConfig(seed=1))
    result = detect(BC, cfg)
    assert result.elapsed >= 0.1
    assert result.samples > 0


def _archived(result):
    return [(c, c.score, sorted(result.archive.strategies[c.key])) for c in result.archive]


@pytest.mark.parametrize("sut_name", ["bytecount", "bmi", "bmi-class", "date"])
@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_detect_executions_budget_overshoots_by_less_than_one_search(sut_name, strategy):
    """The run is the serial run of as many samples as it took to reach the
    budget: one sample fewer stays below it."""
    sut, budget = get_sut(sut_name), 3000

    def run(**budgets):
        return detect(sut, DetectionConfig(strategy=strategy, sampler=SamplerConfig(seed=4),
                                           **budgets))

    result = run(budget={"executions": budget})
    by_samples = run(budget={"iterations": result.samples})
    assert (result.samples, result.executions) == (by_samples.samples, by_samples.executions)
    assert _archived(result) == _archived(by_samples)
    assert run(budget={"iterations": result.samples - 1}).executions < budget <= result.executions


def test_detect_zero_executions_draws_nothing():
    result = detect(BC, DetectionConfig(strategy="lns", budget={"executions": 0}))
    assert (len(result.archive), result.samples, result.executions) == (0, 0, 0)


@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_concurrent_detect_executions_budget_drops_searches_drawn_ahead(monkeypatch, strategy):
    drawn = []
    sample = detection.sample_arguments
    monkeypatch.setattr(detection, "sample_arguments",
                        lambda *args: drawn.append(1) or sample(*args))

    def run(sut):
        drawn.clear()
        result = detect(sut, DetectionConfig(strategy=strategy, budget={"executions": 2000},
                                             sampler=SamplerConfig(seed=6)))
        return _archived(result), result.samples, result.executions, len(drawn)

    serial = run(DATE)
    concurrent = run(dataclasses.replace(DATE, concurrency=4))
    assert concurrent[:3] == serial[:3]
    assert serial[3] == serial[1]       # a serial run draws no sample it drops
    assert concurrent[3] > concurrent[1]


def test_detect_fixed_seed_is_deterministic():
    def run():
        cfg = DetectionConfig(strategy="bcs", budget={"iterations": 400},
                              sampler=SamplerConfig(seed=1234))
        archive = detect(BC, cfg).archive
        return [(c.key, c.score) for c in archive]
    assert run() == run()


def test_detect_archives_known_boundary():
    cfg = DetectionConfig(strategy="bcs", budget={"iterations": 2000},
                          sampler=SamplerConfig(seed=0))
    result = detect(BC, cfg)
    keys = {c.key for c in result.archive}
    assert ("999", "1000") in keys


def test_detection_config_budget():
    assert DetectionConfig(budget={"iterations": 5}).budget == {"iterations": 5}
    assert DetectionConfig(budget={"seconds": 1.5}).budget == {"seconds": 1.5}
    assert DetectionConfig(budget={"seconds": 2}).budget == {"seconds": 2}
    assert DetectionConfig(budget={"executions": 7}).budget == {"executions": 7}
    assert DetectionConfig(budget={"iterations": 0}).budget == {"iterations": 0}
    assert DetectionConfig(budget={"executions": 0}).budget == {"executions": 0}
    with pytest.raises(TypeError, match="budget"):
        DetectionConfig()


@pytest.mark.parametrize("budget, message", [
    ({}, "budget must map one of seconds, iterations or executions to an amount, got {}"),
    ({"iterations": 0, "seconds": 2.0}, "budget must map one of"),
    ({"iterations": 3, "executions": 7}, "budget must map one of"),
    (None, "budget must map one of seconds, iterations or executions to an amount, got None"),
    ([("iterations", 5)], "budget must map one of"),
    ({"samples": 5}, "budget must map one of seconds, iterations or executions to an amount, "
                     "got {'samples': 5}"),
    ({"seconds": math.nan}, "budget seconds must be finite and above 0, got nan"),
    ({"seconds": math.inf}, "budget seconds must be finite and above 0, got inf"),
    ({"seconds": 0.0}, "budget seconds must be finite and above 0, got 0.0"),
    ({"seconds": -1}, "budget seconds must be finite and above 0, got -1"),
    ({"seconds": True}, "budget seconds must be finite and above 0, got True"),
    ({"seconds": "30"}, "budget seconds must be finite and above 0, got '30'"),
    ({"seconds": Fraction(1, 2)}, "budget seconds must be finite and above 0, got Fraction"),
    ({"iterations": True}, "budget iterations must be an integer at least 0, got True"),
    ({"executions": False}, "budget executions must be an integer at least 0, got False"),
    ({"iterations": -1}, "budget iterations must be an integer at least 0, got -1"),
    ({"executions": -5}, "budget executions must be an integer at least 0, got -5"),
    ({"iterations": 5.0}, "budget iterations must be an integer at least 0, got 5.0"),
    ({"executions": "7"}, "budget executions must be an integer at least 0, got '7'"),
])
def test_detection_config_refuses_a_budget_the_cli_refuses(budget, message):
    """Configs only: a detect under a NaN or infinite deadline would never stop."""
    with pytest.raises(ValueError) as refused:
        DetectionConfig(budget=budget)
    assert str(refused.value).startswith(message)


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(strategy="tabu", budget={"iterations": 1})
    with pytest.raises(TypeError, match="budget"):
        DetectionConfig(strategy="bcs")
    for threshold in (Fraction(-1), Fraction(-1, 3 ** 60)):
        with pytest.raises(ValueError, match="threshold must be at least 0"):
            DetectionConfig(threshold=threshold, budget={"iterations": 1})
    assert DetectionConfig(threshold=Fraction(0), budget={"iterations": 1}).threshold == 0


@pytest.mark.parametrize("strategy", detection.STRATEGIES)
@pytest.mark.parametrize("sut", ["bytecount", "bmi", "bmi-class", "date"])
def test_detect_threshold_is_strict_and_exact(sut, strategy):
    """A run at threshold t archives exactly the threshold-0 run's candidates
    scoring above t, in its order and with its strategies, from the same
    samples and executions.  t is a score that run archived, and t less
    1/3^60, far below float resolution around t."""
    def run(threshold):
        return detect(get_sut(sut), DetectionConfig(
            strategy=strategy, budget={"iterations": 300}, threshold=threshold,
            sampler=SamplerConfig(seed=7)))

    base = run(Fraction(0))
    scores = sorted({c.score for c in base.archive})
    t = scores[len(scores) // 2]
    for threshold in (t, t - Fraction(1, 3 ** 60)):
        result = run(threshold)
        kept = [c for c in base.archive if c.score > threshold]
        assert list(result.archive) == kept
        assert result.archive.strategies == {c.key: {strategy} for c in kept}
        assert (result.samples, result.executions) == (base.samples, base.executions)


# Seeded runs pinned byte for byte: sha256 of ``write_archive_csv``'s first
# seven columns under their own header, the whole file before error kinds and
# strategies were added, plus the sample and execution counts.  Any change to
# the search, the scoring or the RNG draws shows up here.
GOLDEN_ARCHIVES = [
    # sut, strategy, distance, threshold, iterations, seed,
    # samples, executions, candidates, sha256 of archive.csv's first seven columns
    ("bytecount", "lns", "strlen", "0", 1500, 11, 1500, 4389, 5,
     "92d0fd2548ccb3a34db010cb6416bc0e9e3c35d4d8894ee9e8aa71c66bcf5834"),
    ("bytecount", "bcs", "strlen", "0", 1500, 11, 1500, 65699, 52,
     "de9835117821576f6ea8454de18cfbeb2e36dcd0aa6604972494aa6c20b90acd"),
    ("date", "lns", "strlen", "0", 1500, 11, 1500, 10139, 319,
     "2bbbb02bf0f69cece550240db4a60cb78a4a1cfa757d7e50ea837b0b8bd904ee"),
    ("date", "bcs", "strlen", "0", 1500, 11, 1500, 62558, 491,
     "d82e2fc9e6e8415ca56a42282e116130c25393db8cb61773b7832b2f082d7a8c"),
    ("bmi", "bcs", "jaccard2", "0", 300, 11, 300, 11217, 124,
     "3930d2a68e166322190d93875bdb9b1e07741af2920b5bd188973db2f5efbcbe"),
    ("date", "lns", "levenshtein", "0", 100, 11, 100, 682, 236,
     "6ca182960c10532ef9227fb6630bf1997d31cf3b7b738921a009eebc0a8866e6"),
    ("bmi-class", "lns", "jaccard1", "1/2", 300, 11, 300, 1462, 26,
     "6e7e4784516fdb34f9f81c93f56d0c5e1a5a7b6259eb7da0b8a7da20ba23b922"),
]


# sha256 of the whole ``write_archive_csv`` file for the same runs
GOLDEN_ARCHIVE_CSV = {
    ("bytecount", "lns", "strlen"):
        "532515336540f8818c7046e2f99b68439212b12d78848c771cfff1a851e0db98",
    ("bytecount", "bcs", "strlen"):
        "640927d03ca37c912483fcd724d1ac6dc9b28e767cb24a8a49fc5c93060fb2ec",
    ("date", "lns", "strlen"):
        "6ad0b31c4f191c610ca4cbc89ce9a732945fc066c586c66cd97137ffb266f7d0",
    ("date", "bcs", "strlen"):
        "6ca195aa8ff5852fe638252d45b05bd66718a99024363ad09e5d06fde1f185dd",
    ("bmi", "bcs", "jaccard2"):
        "12a6e8170d569e3162f63986cf5a519800aecc3ed3d7e5c6448265530ea7ccce",
    ("date", "lns", "levenshtein"):
        "92e7fdfbefec6d6ba9b65ef360f4e02783ad7ec68acf68392ae95f99e175f953",
    ("bmi-class", "lns", "jaccard1"):
        "c1c8daada7bf4e9da79cfee911e2001f0760ca31984ca4f001bc00b747798272",
}


# sha256 of ``write_archive_json`` for the same runs, with the run's manifest
# at zero elapsed time
GOLDEN_ARCHIVE_JSON = {
    ("bytecount", "lns", "strlen"):
        "ae86cae282a5a67882b502ea4ca6e3b01a0f960db5956f089102968974713f5e",
    ("bytecount", "bcs", "strlen"):
        "5a3fe1ef9df5c50dbaa9d58a5fa322839c1b3ab2fcba22e9954d23e84ef3cf0f",
    ("date", "lns", "strlen"):
        "148d082bee11e9f942283f44dd743616bcbc4b184755b34a1deb20555383d0a8",
    ("date", "bcs", "strlen"):
        "4d95aff3413cf6d3990fd281c4d080823718966b5e516fdcd499319698ec333e",
    ("bmi", "bcs", "jaccard2"):
        "342037550e8798cf6cc86225f6e798e1ac0acb68e9b61a1852be4e8fa8b3274f",
    ("date", "lns", "levenshtein"):
        "c8235b9bd358f7ba697879f8532438a58ea5d52cbfce476e39d4a526c53a045a",
    ("bmi-class", "lns", "jaccard1"):
        "ccc9d36accef1e71ee1f864d37ba8d908902c61ba4bbb894e4c8b7376ba92f8d",
}


@pytest.mark.parametrize(
    "sut, strategy, distance, threshold, iterations, seed, samples, executions, candidates, digest",
    GOLDEN_ARCHIVES)
def test_detect_golden_archive(tmp_path, sut, strategy, distance, threshold, iterations,
                               seed, samples, executions, candidates, digest):
    cfg = DetectionConfig(strategy=strategy, budget={"iterations": iterations},
                          threshold=Fraction(threshold),
                          output_distance=parse_distance(distance),
                          sampler=SamplerConfig(seed=seed))
    result = detect(get_sut(sut), cfg)
    path = tmp_path / "archive.csv"
    write_archive_csv(path, result.archive)
    assert (result.samples, result.executions, len(result.archive)) == \
        (samples, executions, candidates)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    seven = io.StringIO()
    csv.writer(seven).writerows(row[:7] for row in rows)
    assert rows[0][:7] == ["input1", "input2", "output1", "output2",
                           "validity", "score_num", "score_den"]
    assert hashlib.sha256(seven.getvalue().encode("utf-8")).hexdigest() == digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_ARCHIVE_CSV[(sut, strategy, distance)]
    manifest = run_manifest(sut, cfg, dataclasses.replace(result, elapsed=0.0))
    path = tmp_path / "archive.json"
    write_archive_json(path, result.archive, manifest)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_ARCHIVE_JSON[(sut, strategy, distance)]


# ---------------------------------------------------------------------------
# concurrent searches


def run_detect(sut, strategy, iterations, seed):
    """Archive entries, counts and the generator's final state of one run."""
    rng = Random(seed)
    result = detect(sut, DetectionConfig(strategy=strategy, budget={"iterations": iterations},
                                         sampler=SamplerConfig(seed=seed)), rng)
    entries = [(c, c.score, sorted(result.archive.strategies[c.key])) for c in result.archive]
    return entries, result.samples, result.executions, rng.getstate()


@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_concurrent_detect_equals_serial(monkeypatch, strategy):
    """More workers than cores and a short switch interval: the archive, its
    order, the counts and the RNG state are the serial run's, and the
    execution total is exact."""
    executed = []
    execute_ = detection.execute
    monkeypatch.setattr(detection, "execute",
                        lambda sut, inputs: executed.append(inputs) or execute_(sut, inputs))
    serial = run_detect(DATE, strategy, 300, 5)
    assert len(executed) == serial[2]
    executed.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = run_detect(dataclasses.replace(DATE, concurrency=8), strategy, 300, 5)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    assert len(executed) == concurrent[2]


def test_serial_detect_starts_no_thread(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    threads = threading.active_count()
    searched_in = set()
    lns = detection.lns_search

    def search(*args):
        searched_in.add(threading.current_thread())
        return lns(*args)

    monkeypatch.setattr(detection, "lns_search", search)
    detect(BC, DetectionConfig(strategy="lns", budget={"iterations": 50}))
    assert searched_in == {threading.current_thread()}
    assert threading.active_count() == threads


def test_concurrent_detect_draws_in_the_calling_thread(monkeypatch):
    drawn_in = set()
    sample = detection.sample_arguments

    def sample_arguments(*args):
        drawn_in.add(threading.current_thread())
        return sample(*args)

    monkeypatch.setattr(detection, "sample_arguments", sample_arguments)
    detect(dataclasses.replace(BC, concurrency=4),
           DetectionConfig(strategy="bcs", budget={"iterations": 100}))
    assert drawn_in == {threading.current_thread()}


def test_concurrent_detect_wall_clock_budget_counts_every_drawn_sample(monkeypatch):
    drawn = []
    sample = detection.sample_arguments
    monkeypatch.setattr(detection, "sample_arguments",
                        lambda *args: drawn.append(1) or sample(*args))
    result = detect(dataclasses.replace(BC, concurrency=4),
                    DetectionConfig(strategy="bcs", budget={"seconds": 0.1},
                                    sampler=SamplerConfig(seed=1)))
    assert result.elapsed >= 0.1
    assert result.samples == len(drawn) > 0


def test_concurrent_detect_raises_a_search_error(monkeypatch):
    def broken(*args):
        raise RuntimeError("search failed")

    monkeypatch.setattr(detection, "bcs_search", broken)
    with pytest.raises(RuntimeError, match="search failed"):
        detect(dataclasses.replace(BC, concurrency=2),
               DetectionConfig(strategy="bcs", budget={"iterations": 20}))


def test_concurrency_is_at_least_one():
    with pytest.raises(ValueError):
        dataclasses.replace(BC, concurrency=0)
    assert get_sut("external:/bin/echo", concurrency=3).concurrency == 3
    assert BC.concurrency == 1


# ---------------------------------------------------------------------------
# the tracing seam: bench/tracing.py wraps these names for its traced run


TRACED_NAMES = [
    (detection, ("execute", "sample_arguments", "pdq", "make_candidate", "render_tuple",
                 "lns_search", "bcs_search")),
    (detection.Archive, ("add",)),
    (OutputDistance, ("__call__",)),
    (suts, ("BUILTIN_SUTS", "make_external_sut")),
    (cli, ("detect", "summarize", "load_archives", "write_archive_csv", "write_archive_json",
           "write_manifest", "write_report_json", "write_report_markdown")),
    (summarization, ("diversity_subset", "kmeans", "silhouette", "select_model")),
    (summarization.FeatureSpace, ("__init__", "vector")),
]


def test_traced_names_exist():
    for owner, names in TRACED_NAMES:
        for name in names:
            # patched on the owner itself, so it must be defined there
            assert name in vars(owner), f"{owner.__name__}.{name}"


def test_traced_summarize_writes_the_untraced_report(tmp_path, monkeypatch):
    """The benchmark's tracer changes no output, and its diversity hook reads
    each clustered group's subset and dropped counts from the real call."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    run = tmp_path / "run"
    # EE holds 1831 candidates, so nine diversity rounds run past the 1000-candidate window
    assert cli.main(["detect", "--sut", "date", "--strategy", "lns", "--iterations", "10000",
                     "--seed", "0", "--out", str(run)]) == 0
    summarize = ["summarize", str(run / "archive.json"), "--restarts", "4", "--seed", "0"]
    assert cli.main([*summarize, "--out", str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    with tracer.instrumented():
        assert cli.main([*summarize, "--out", str(tmp_path / "traced")]) == 0
    traced = (tmp_path / "traced" / "report.json").read_bytes()
    assert traced == (tmp_path / "plain" / "report.json").read_bytes()
    sizes = {g["validity"]: g["size"] for g in json.loads(traced)["groups"] if g["size"] >= 3}
    assert {g["validity"]: g["subset"] + g["dropped"] for g in tracer.groups} == sizes
    assert max(g["dropped"] for g in tracer.groups) > 0
    layers = tracer.layer_metrics(1, summarization.DIVERSITY_WINDOW, {})
    assert layers["summarization.diversity.rounds"] == 9


@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_every_execution_goes_through_detection_execute(monkeypatch, strategy):
    calls = []
    original = detection.execute

    def counting(sut, inputs):
        calls.append(inputs)
        return original(sut, inputs)

    monkeypatch.setattr(detection, "execute", counting)
    result = detect(DATE, DetectionConfig(strategy=strategy, budget={"iterations": 200},
                                          sampler=SamplerConfig(seed=3)))
    assert len(calls) == result.executions > 200


@pytest.mark.parametrize("sut", ["bytecount", "date"])
def test_detect_then_write_renders_each_archived_key_once(tmp_path, monkeypatch, sut):
    """LNS builds a candidate only for a pair above the threshold of 0, and
    detect offers each to the archive; that pair renders its key once, for
    the archive's dedup, and the writers reuse it."""
    renders, made, offered = [], [], []
    render, make, add = detection.render_tuple, detection.make_candidate, detection.Archive.add

    def offer(archive, candidate, strategies=()):
        offered.append(candidate)
        return add(archive, candidate, strategies)

    monkeypatch.setattr(detection, "render_tuple", lambda values: renders.append(1) or render(values))
    monkeypatch.setattr(detection, "make_candidate", lambda *args: made.append(1) or make(*args))
    monkeypatch.setattr(detection.Archive, "add", offer)
    assert cli.main(["detect", "--sut", sut, "--strategy", "lns", "--iterations", "400",
                     "--seed", "2", "--out", str(tmp_path)]) == 0
    archived = json.loads((tmp_path / "archive.json").read_text())["candidates"]
    assert 0 < len(archived) <= len(offered) == len(made)
    assert len(renders) == 2 * len(offered)


def test_oracle_scan_runs_and_scores_once_per_input(monkeypatch):
    executed, scored_pairs = [], []
    execute_, call = detection.execute, OutputDistance.__call__
    monkeypatch.setattr(detection, "execute",
                        lambda sut, inputs: executed.append(inputs) or execute_(sut, inputs))
    monkeypatch.setattr(OutputDistance, "__call__",
                        lambda self, a, b: scored_pairs.append(1) or call(self, a, b))
    assert boundary_pairs(BC, 0, 2000) == [(9, 10), (99, 100), (999, 1000)]
    assert len(executed) == 2001 and len(scored_pairs) == 2000
    executed.clear()
    assert is_boundary_pair(BC, (999,), (1000,))
    assert executed == [(999,), (1000,)]


def test_is_boundary_pair_refuses_inputs_that_are_not_adjacent():
    """Only inputs one apart in exactly one argument make a boundary pair,
    whatever their outputs; adjacent ones do in either order."""
    assert not is_boundary_pair(BC, (999,), (1001,))
    assert not is_boundary_pair(BC, (999,), (999,))
    assert not is_boundary_pair(DATE, (2021, 1, 31), (2021, 2, 32))
    assert is_boundary_pair(BC, (999,), (1000,))
    assert is_boundary_pair(BC, (1000,), (999,))
