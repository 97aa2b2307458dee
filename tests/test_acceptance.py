"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The timed criteria (3 and 4) use genuine 30-second wall-clock
runs and dominate the suite's runtime; they are marked ``slow``, so
``pytest -m "not slow"`` runs everything else.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from autobva.archive_io import write_archive_csv, write_archive_json, write_report_json
from autobva.detection import (
    Archive,
    DetectionConfig,
    Runner,
    bcs_first_step,
    bcs_search,
    detect,
)
from autobva.distances import JACCARD1, STRLEN, levenshtein, pdq, strlendist
from autobva.oracle import boundary_pairs, is_boundary_pair
from autobva.sampling import SamplerConfig, TypeDomain, sample_value
from autobva.summarization import KMEANS_MAX_ITER, kmeans, summarize
from autobva.suts import execute, get_sut

BC = get_sut("bytecount")
BMI = get_sut("bmi")
BMI_CLASS = get_sut("bmi-class")
DATE = get_sut("date")

RESULTS = []  # (label, PASS/FAIL, seconds); echoed by the conftest summary hook


@contextmanager
def criterion(label, budget_seconds=None):
    # the budget is checked before the outcome is recorded, so the summary
    # line always agrees with the pytest outcome
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        if budget_seconds is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        RESULTS.append((label, status, elapsed))
        print(f"\n[ACCEPTANCE] {label}: {status} ({elapsed:.1f}s)")


def out(sut, *args):
    return execute(sut, args).text


# ---------------------------------------------------------------------------
# 1. distance table reproduction


def test_criterion_1_quotient_table():
    """Six reference pairs: strlendist, Jaccard(1), input distance, both quotients."""
    rows = [
        # in1, in2, out1, out2, strlen, jaccard1, d_i, pdq1, pdq2
        (9, 10, "9B", "10B", 1, Fraction(3, 4), 1, Fraction(1), 0.75),
        (999949999, 999950000, "999.9 MB", "1.0 GB", 2, Fraction(5, 8), 1, Fraction(2), 0.63),
        (99949, 99950, "99.9 kB", "100.0 kB", 1, Fraction(3, 7), 1, Fraction(1), 0.43),
        (99949, 99951, "99.9 kB", "100.0 kB", 1, Fraction(3, 7), 2, Fraction(1, 2), 0.21),
        (99951, 99952, "100.0 kB", "100.0 kB", 0, Fraction(0), 1, Fraction(0), 0.0),
        (99948, 99949, "99.9 kB", "99.9 kB", 0, Fraction(0), 1, Fraction(0), 0.0),
    ]
    with criterion("1 quotient table", budget_seconds=1.0):
        for a, b, o1, o2, sd, j1, di, p1, p2 in rows:
            t1, t2 = out(BC, a), out(BC, b)
            assert (t1, t2) == (o1, o2)
            assert strlendist(t1, t2) == sd
            from autobva.distances import input_distance, jaccard_ngram
            assert jaccard_ngram(1, t1, t2) == j1
            assert input_distance((a,), (b,)) == di
            assert pdq((a,), (b,), STRLEN(t1, t2)) == p1
            reported = Fraction(str(p2))
            assert abs(pdq((a,), (b,), JACCARD1(t1, t2)) - reported) <= Fraction(5, 1000)


# ---------------------------------------------------------------------------
# 2. golden subject-program fixtures


BYTECOUNT_ROWS = [
    (-1, "-1B"), (0, "0B"),
    (-10, "-10B"), (-9, "-9B"),
    (9950, "9.9 kB"), (9951, "10.0 kB"),
    (999, "999B"), (1000, "1.0 kB"),
    (99949, "99.9 kB"), (99950, "100.0 kB"),
    (False, "falseB"), (True, "trueB"),
    (9, "9B"), (10, "10B"),
    (999949, "999.9 kB"), (999950, "1.0 MB"),
    (99950000000000000, "100.0 PB"),
    (9950000000000002000, "10.0 EB"),
    (-(10**30), "-1000000000000000000000000000000B"),
    (-(10**30 - 1), "-999999999999999999999999999999B"),
    (999999999999994822656, "1000.0 EB"),
    (999999999999994822657, 'BoundsError("kMGTPE", 7)'),
    (999999999999990520104160854016, 'BoundsError("kMGTPE", 9)'),
    (999999999999990520104160854017, 'BoundsError("kMGTPE", 10)'),
]

BMI_CLASS_ROWS = [
    ((1, 0), "Underweight"), ((1, 1), "Severely obese"),
    ((21, 1), "Normal"), ((21, 2), "Severely obese"),
    ((26, 1), "Underweight"), ((26, 2), "Obese"),
    ((29, 1), "Underweight"), ((29, 2), "Overweight"), ((29, 3), "Severely obese"),
    ((101, 18), "Underweight"), ((101, 19), "Normal"),
    ((101, 30), "Obese"), ((101, 31), "Severely obese"),
    ((108, 26), "Normal"), ((108, 27), "Overweight"),
    ((115, 32), "Overweight"), ((115, 33), "Obese"),
    ((132, 44), "Obese"), ((133, 44), "Overweight"),
    ((133, 41), "Overweight"), ((134, 41), "Normal"),
    ((1015, 3087), "Severely obese"), ((1016, 3087), "Obese"),
    ((100088, 18482537), "Normal"), ((100089, 18482537), "Underweight"),
    ((-1, 0), 'DomainError("height or weight negative")'), ((0, 0), "Severely obese"),
    ((1, -1), 'DomainError("height or weight negative")'), ((1, 0), "Underweight"),
]

BMI_VALUE_ROWS = [
    ((0, 93), "Inf"), ((1, 93), "930000.0"),
    ((106, 11), "9.8"), ((106, 12), "10.7"),
    ((-1, 0), 'DomainError("height or weight negative")'), ((0, 0), "NaN"),
    ((-1, 1), 'DomainError("height or weight negative")'), ((0, 1), "Inf"),
    ((1, -1), 'DomainError("height or weight negative")'), ((1, 0), "0.0"),
]

DATE_ROWS = [
    ((-10000, 2, 3), "-10000-02-03"), ((-9999, 2, 3), "-9999-02-03"),
    ((-1, 9, 3), "-0001-09-03"), ((0, 9, 3), "0000-09-03"),
    ((9999, 5, 9), "9999-05-09"), ((10000, 5, 9), "10000-05-09"),
    ((0, 2, 0), 'ArgumentError("Day: 0 out of range (1:29)")'), ((0, 2, 1), "0000-02-01"),
    ((330, 5, 0), 'ArgumentError("Day: 0 out of range (1:31)")'), ((330, 5, 1), "0330-05-01"),
    ((-8, 3, -1), 'ArgumentError("Day: -1 out of range (1:31)")'),
    ((-8, 3, 0), 'ArgumentError("Day: 0 out of range (1:31)")'),
    ((0, 0, 92), 'ArgumentError("Month: 0 out of range (1:12)")'),
    ((0, 1, 92), 'ArgumentError("Day: 92 out of range (1:31)")'),
    ((0, 4, 99), 'ArgumentError("Day: 99 out of range (1:30)")'),
    ((0, 4, 100), 'ArgumentError("Day: 100 out of range (1:30)")'),
    ((0, 999999999, 0), 'ArgumentError("Month: 999999999 out of range (1:12)")'),
    ((0, 1000000000, 0), 'ArgumentError("Month: 1000000000 out of range (1:12)")'),
]


def test_criterion_2_sut_golden_fixtures():
    """Every reproducible golden row across the four subject programs."""
    with criterion("2 golden fixtures", budget_seconds=5.0):
        for value, text in BYTECOUNT_ROWS:
            assert out(BC, value) == text, value
        for args, label in BMI_CLASS_ROWS:
            assert out(BMI_CLASS, *args) == label, args
        for args, text in BMI_VALUE_ROWS:
            assert out(BMI, *args) == text, args
        for args, text in DATE_ROWS:
            assert out(DATE, *args) == text, args


def test_criterion_2_bytecount_mixed_precision_rows():
    """Two reference cells that binary64 arithmetic over plain ints cannot give.

    The reference table lists ``99949999999999999 -> "99.9 PB"`` and
    ``9950000000000001999 -> "9.9 EB"``.  Values are plain ``int``/``bool``
    (see ``autobva.values``), and ``bytecount`` divides in binary64 after a
    round-to-nearest conversion.  Each of these inputs converts to the same
    double as a golden row that passes: ``99950000000000000 -> "100.0 PB"``
    and ``9950000000000002000 -> "10.0 EB"``.  A value-deterministic binary64
    pipeline must therefore print the twin's string.  Exact decimal
    arithmetic is ruled out by the golden ``9950 -> "9.9 kB"`` together with
    ``99950 -> "100.0 kB"`` under any tie rule.  Round-toward-zero
    conversion gives both reference strings but turns the golden
    ``9950000000000002000`` row into ``"9.9 EB"``.  So the reference cells
    came from a different integer type than their twins, and this test pins
    the binary64 behaviour at those inputs: each must print exactly what its
    twin prints.
    """
    cells = [
        # input, golden twin, twin's golden output (reference cell in comment)
        (99949999999999999, 99950000000000000, "100.0 PB"),     # ref "99.9 PB"
        (9950000000000001999, 9950000000000002000, "10.0 EB"),  # ref "9.9 EB"
    ]
    golden = dict(BYTECOUNT_ROWS)
    with criterion("2b mixed-precision cells"):
        for value, twin, text in cells:
            assert golden[twin] == text, twin
            assert float(value) == float(twin), (value, twin)
            assert out(BC, twin) == text, twin
            assert out(BC, value) == text, value


# ---------------------------------------------------------------------------
# 3. detection capability on bytecount (timed, seed-controlled)


@pytest.mark.slow
def test_criterion_3_detection_capability():
    """30-second runs: BCS >= 40 uniques incl. VE+EE, LNS >= 5, controls find 0."""
    with criterion("3 detection capability"):
        bcs = detect(BC, DetectionConfig(strategy="bcs", budget_seconds=30.0,
                                         sampler=SamplerConfig(seed=0)))
        tags = {c.validity for c in bcs.archive}
        assert len(bcs.archive) >= 40, len(bcs.archive)
        assert "VE" in tags and "EE" in tags

        lns = detect(BC, DetectionConfig(strategy="lns", budget_seconds=30.0,
                                         sampler=SamplerConfig(seed=0)))
        assert len(lns.archive) >= 5, len(lns.archive)

        plain = SamplerConfig(method="uniform", cts=False, seed=0)
        for strategy in ("bcs", "lns"):
            control = detect(BC, DetectionConfig(strategy=strategy, budget_seconds=30.0,
                                                 sampler=plain))
            assert len(control.archive) == 0, (strategy, len(control.archive))


# ---------------------------------------------------------------------------
# 4. strategy contrast on a multi-argument program (timed, seed-controlled)


@pytest.mark.slow
def test_criterion_4_strategy_contrast():
    """On bmi-class, plain neighbor sampling out-collects the crossing search."""
    with criterion("4 strategy contrast"):
        lns = detect(BMI_CLASS, DetectionConfig(strategy="lns", budget_seconds=30.0,
                                                sampler=SamplerConfig(seed=42)))
        bcs = detect(BMI_CLASS, DetectionConfig(strategy="bcs", budget_seconds=30.0,
                                                sampler=SamplerConfig(seed=42)))
        assert len(lns.archive) > len(bcs.archive), (len(lns.archive), len(bcs.archive))


# ---------------------------------------------------------------------------
# 5. oracle equivalence


ORACLE_WINDOW_PAIRS = [
    (9, 10), (99, 100), (999, 1000), (9950, 9951), (99949, 99950), (999949, 999950),
]


def test_criterion_5_oracle_equivalence():
    """Exhaustive scan equals the frozen set; search results stay inside it."""
    with criterion("5 oracle equivalence", budget_seconds=60.0):
        scanned = boundary_pairs(BC, 0, 10**6)
        assert scanned == ORACLE_WINDOW_PAIRS

        window_set = set(ORACLE_WINDOW_PAIRS)
        for strategy in ("bcs", "lns"):
            run = detect(BC, DetectionConfig(strategy=strategy, budget_iterations=4000,
                                             sampler=SamplerConfig(seed=5)))
            for c in run.archive:
                a, b = c.input1[0], c.input2[0]
                if isinstance(a, bool) or isinstance(b, bool):
                    continue  # boolean inputs are outside the integer scan domain
                if 0 <= a and b <= 10**6:
                    assert (a, b) in window_set, (a, b)

        rng = Random(123)
        for _ in range(100):
            start = (rng.randint(1, 10**6),)
            found = bcs_search(Runner(BC), STRLEN, start, bcs_first_step(rng, 1))
            if not found:
                continue
            (c,) = found
            assert c.score > 0
            assert is_boundary_pair(BC, c.input1, c.input2)
            a, b = int(c.input1[0]), int(c.input2[0])
            if 0 <= a and b <= 10**6:
                assert (a, b) in window_set


# ---------------------------------------------------------------------------
# 6. summarization of merged archives


def _merged_bcs_archives(seeds=range(10), iterations=3000):
    merged = Archive()
    for seed in seeds:
        run = detect(BC, DetectionConfig(strategy="bcs", budget_iterations=iterations,
                                         sampler=SamplerConfig(seed=seed)))
        for c in run.archive:
            merged.add(c, ("bcs",))
    return merged


def test_criterion_6_summarization():
    """Merged archives cluster into 1 VE + 1 EE + 5..8 VV at silhouette >= 0.90."""
    with criterion("6 summarization", budget_seconds=120.0):
        merged = _merged_bcs_archives()
        report = summarize(merged, Random(0), restarts=100)
        ve, ee, vv = report.group("VE"), report.group("EE"), report.group("VV")
        assert ve is not None and len(ve.clusters) == 1
        assert ee is not None and len(ee.clusters) == 1
        assert vv is not None
        assert 5 <= len(vv.clusters) <= 8, len(vv.clusters)
        assert vv.silhouette is not None and vv.silhouette >= 0.90, vv.silhouette


def test_criterion_6_bool_pair_representative():
    """The cluster holding the boolean pair should surface it as representative.

    A cluster's representative is its shortest member, a singleton cluster
    scores 0 in the silhouette, and the chosen model has the most clusters
    among the runs at or above the 95th percentile silhouette.  The boolean
    pair (20 characters) can then be its cluster's representative only if it
    sits alone: ``(-1,0)`` and ``(9,10)``, 8 characters each, share its
    cluster otherwise.  On this test's 10-seed merged archive, with 400
    k-means runs per k, the best model that isolates the pair scores 0.9128
    at k=6 and 0.9237 at k=8, while the best model that keeps it with the
    short B-suffix pairs scores 0.9338 at k=7.  With ``restarts=100`` the pair
    stands alone at one of the summary seeds 0-11 (seed 4), not at seed 0;
    with 300 or 1000 restarts it never does.  The documented method thus does
    not promise the published outcome, and this clause stays unmet until the
    paper's summarization rules are known and the program follows them.
    """
    with criterion("6b boolean-pair representative"):
        merged = _merged_bcs_archives()
        report = summarize(merged, Random(0), restarts=100)
        vv = report.group("VV")
        bool_clusters = [c for c in vv.clusters
                         if any(isinstance(m.input1[0], bool) for m in c.members)]
        assert len(bool_clusters) == 1
        rep = bool_clusters[0].representative
        assert isinstance(rep.input1[0], bool), rep.key


# ---------------------------------------------------------------------------
# 7. property suites


def test_criterion_7_property_suites(tmp_path):
    """Metric axioms, search postconditions, sampling shape, clustering
    invariants, and byte-identical reruns, at the stated sizes."""
    with criterion("7 property suites"):
        # distance metric axioms on 10^4 random triples
        rng = Random(2024)
        alphabet = "aB 0.19kM-"
        def rand_string():
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        for _ in range(10_000):
            a, b, c = rand_string(), rand_string(), rand_string()
            assert strlendist(a, b) == strlendist(b, a)
            assert levenshtein(a, b) == levenshtein(b, a)
            assert strlendist(a, a) == 0 and levenshtein(a, a) == 0
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
            assert strlendist(a, c) <= strlendist(a, b) + strlendist(b, c)
            assert levenshtein(a, b) >= strlendist(a, b)

        # archive uniqueness and threshold invariants on a seeded run
        run = detect(BC, DetectionConfig(strategy="bcs", budget_iterations=2000,
                                         sampler=SamplerConfig(seed=31)))
        keys = [c.key for c in run.archive]
        assert len(keys) == len(set(keys))
        assert all(c.score > 0 for c in run.archive)

        # crossing-search postcondition on 10^3 seeded searches
        search_rng = Random(7)
        for _ in range(1000):
            start = (search_rng.randint(-10**9, 10**9),)
            found = bcs_search(Runner(BC), STRLEN, start, bcs_first_step(search_rng, 1))
            for c in found:
                diffs = [abs(int(x) - int(y)) for x, y in zip(c.input1, c.input2)]
                assert sum(diffs) == 1
                assert c.score > 0
                assert strlendist(c.output1.text, c.output2.text) > 0

        # bituniform bit-length uniformity within 3 sigma over 10^5 draws
        draw_rng = Random(8)
        cfg = SamplerConfig(method="bituniform")
        dom = TypeDomain("UInt64", "unsigned", 64)
        n = 100_000
        counts = [0] * 64
        for _ in range(n):
            counts[int(sample_value(dom, cfg, draw_rng)).bit_length()] += 1
        sigma = math.sqrt(n * (1 / 64) * (63 / 64))
        assert all(abs(c - n / 64) <= 3 * sigma for c in counts)

        # k-means objective monotonicity and silhouette bounds
        mat_rng = np.random.RandomState(9)
        for trial in range(20):
            matrix = mat_rng.rand(4, 40)
            model = kmeans(matrix, 2 + trial % 6, Random(trial))
            assert -1 <= model.silhouette <= 1
            if not model.reseeded:
                # WCSS of the same seeded run stopped after 1, 2, ... iterations
                wcss = []
                for max_iter in range(1, KMEANS_MAX_ITER + 1):
                    step = kmeans(matrix, model.k, Random(trial), max_iter=max_iter)
                    wcss.append(((matrix.T - step.centroids[step.assignment]) ** 2).sum())
                    if step.assignment.tolist() == model.assignment.tolist():
                        break
                assert all(b <= a + 1e-9 for a, b in zip(wcss, wcss[1:]))

        # fixed-seed determinism: byte-identical archives and reports
        def artifacts(tag):
            run = detect(BC, DetectionConfig(strategy="bcs", budget_iterations=1500,
                                             sampler=SamplerConfig(seed=77)))
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            report_path = tmp_path / f"{tag}_report.json"
            write_archive_csv(csv_path, run.archive)
            write_archive_json(json_path, run.archive)
            write_report_json(report_path, summarize(run.archive, Random(1), restarts=40))
            return (csv_path.read_bytes(), json_path.read_bytes(),
                    report_path.read_bytes())
        assert artifacts("first") == artifacts("second")
