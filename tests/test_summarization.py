"""Feature extraction, diversity subsetting, k-means, silhouette, model
selection, and the full summarize pipeline."""

import hashlib
import multiprocessing
import os
import time
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from autobva import summarization
from autobva.archive_io import write_report_json
from autobva.detection import Archive, BoundaryCandidate, DetectionConfig, detect, make_candidate
from autobva.distances import STRLEN, jaccard_ngram, strlendist
from autobva.sampling import SamplerConfig
from autobva.summarization import (
    DIVERSITY_WINDOW,
    KMEANS_MAX_ITER,
    ClusteringModel,
    FeatureSpace,
    TextDistances,
    diversity_subset,
    kmeans,
    point_distances,
    select_model,
    silhouette,
    summarize,
)
from autobva.suts import execute, get_sut
from autobva.values import ExecutionOutcome

BC = get_sut("bytecount")
DATE = get_sut("date")


def bc_cand(a, b):
    o1, o2 = execute(BC, (a,)), execute(BC, (b,))
    return make_candidate((a,), o1, (b,), o2, STRLEN(o1.text, o2.text))


def text_cand(i1, t1, i2, t2, err1=False, err2=False):
    def o(t, e):
        return ExecutionOutcome(text=t, error_kind="argument_error" if e else None)
    return BoundaryCandidate((i1,), o(t1, err1), (i2,), o(t2, err2), Fraction(1))


# ---------------------------------------------------------------------------
# validity


def test_validity_groups():
    assert bc_cand(999, 1000).validity == "VV"
    assert bc_cand(999999999999994822656, 999999999999994822657).validity == "VE"
    assert bc_cand(999999999999990520104160854016,
                   999999999999990520104160854017).validity == "EE"
    assert text_cand(1, "x", 2, "y", err1=True, err2=False).validity == "VE"


def _date_archive():
    """A seeded date archive: EE 143, VE 28, VV 2 candidates."""
    archive = Archive()
    for strategy, iterations in (("lns", 400), ("bcs", 200)):
        cfg = DetectionConfig(strategy=strategy, budget={"iterations": iterations},
                              sampler=SamplerConfig(seed=0))
        archive.merge(detect(DATE, cfg).archive)
    return archive


# ---------------------------------------------------------------------------
# features


def _whole(group):
    """The feature space of a group against all of itself."""
    return FeatureSpace(TextDistances(group), range(len(group)))


def test_features_identical_outputs_have_zero_wd():
    group = [text_cand(1, "same", 2, "same"), text_cand(3, "aaaa", 4, "bbbb")]
    m = _whole(group).matrix
    assert m.shape == (4, 2)
    assert m[0, 0] == 0 and m[1, 0] == 0
    assert np.all((m >= 0) & (m <= 1))


def test_features_singleton_group_has_zero_uniqueness():
    m = _whole([text_cand(1, "ab", 2, "cd")]).matrix
    assert m[2, 0] == 0 and m[3, 0] == 0


def test_features_shared_first_output():
    # direct evaluation of the uniqueness sum on a two-element group
    a = text_cand(1, "xx", 2, "yy")
    b = text_cand(3, "xx", 4, "zz")
    m = _whole([a, b]).matrix
    assert m[2, 0] == m[2, 1] == 0          # identical first outputs
    assert m[3, 0] == m[3, 1] == 0.5        # d("yy","zz")=1 over group size 2


def test_text_distances_equal_exact_jaccard_on_date_outputs():
    group = list(_date_archive())
    distances = TextDistances(group)
    texts = list(distances.index)
    assert len(texts) > 100 and len(texts) == len(set(texts))
    assert {c.output1.text for c in group} | {c.output2.text for c in group} == set(texts)
    rows = list(distances.index.values())
    block = distances.block(rows, rows)
    for s, i in distances.index.items():
        for t, j in distances.index.items():
            assert block[i, j] == float(jaccard_ngram(2, s, t)), (s, t)
    assert not np.diagonal(block).any()
    # blocks over row and column subsets, in any order, keep every entry
    picked = rows[::-7]
    assert (distances.block(picked, rows[5:40]) == block[np.ix_(picked, rows[5:40])]).all()
    # each candidate's own features, by its position in the group
    assert distances.rows.shape == (2, len(group))
    assert distances.wd.shape == distances.pair.shape == (len(group),)
    for i, c in enumerate(group):
        s, t = c.output1.text, c.output2.text
        assert distances.rows[:, i].tolist() == [distances.index[s], distances.index[t]]
        assert distances.wd[i] == strlendist(s, t)
        assert distances.pair[i] == float(jaccard_ngram(2, s, t)), (s, t)


def test_text_distances_hold_no_text_by_text_array():
    distances = TextDistances(list(_date_archive()))
    texts = len(distances.index)
    for value in vars(distances).values():
        assert not (isinstance(value, np.ndarray) and value.size >= texts * texts)


def _reference_vector(c, reference):
    """Feature vector by direct evaluation: exact Jaccard fractions rounded
    once, then added left to right over the reference's distinct texts."""
    raw = [strlendist(r.output1.text, r.output2.text) for r in reference]
    lo, hi = min(raw), max(raw)
    wd = 0.0 if hi == lo else (strlendist(c.output1.text, c.output2.text) - lo) / (hi - lo)

    def uniqueness(text, side):
        counts = {}
        for r in reference:
            other = (r.output1 if side == 1 else r.output2).text
            counts[other] = counts.get(other, 0) + 1
        total = 0.0
        for other, n in counts.items():
            total += n * float(jaccard_ngram(2, text, other))
        return total / len(reference)

    return [min(max(wd, 0.0), 1.0), float(jaccard_ngram(2, c.output1.text, c.output2.text)),
            uniqueness(c.output1.text, 1), uniqueness(c.output2.text, 2)]


def test_feature_vector_outside_reference_set():
    # the diversity-dropped path: texts indexed for the group, absent from the subset
    ve = [c for c in _date_archive() if c.validity == "VE"]
    reference = ve[:10]
    reference_texts = {r.output1.text for r in reference} | {r.output2.text for r in reference}
    strangers = [p for p in range(10, len(ve)) if ve[p].output1.text not in reference_texts
                 and ve[p].output2.text not in reference_texts]
    assert strangers
    space = FeatureSpace(TextDistances(ve), range(10))
    for p in strangers + list(range(10)):
        assert space.vector(p).tolist() == _reference_vector(ve[p], reference)
    assert space.matrix.T.tolist() == [_reference_vector(c, reference) for c in reference]
    alone = TextDistances(reference)
    with pytest.raises(KeyError):
        alone.index[ve[strangers[0]].output1.text]   # its texts were never indexed
    with pytest.raises(IndexError):
        FeatureSpace(alone, range(10)).vector(strangers[0])   # nor was its position


def test_feature_wd_min_max_normalization():
    group = [text_cand(1, "a", 2, "abc"),      # strlendist 2
             text_cand(3, "a", 4, "ab"),       # strlendist 1
             text_cand(5, "a", 6, "abcde")]    # strlendist 4
    m = _whole(group).matrix
    assert m[0].tolist() == [pytest.approx(1 / 3), 0.0, 1.0]
    flat = _whole([text_cand(1, "q", 2, "z"), text_cand(3, "r", 4, "s")]).matrix
    assert flat[0].tolist() == [0.0, 0.0]   # max == min collapses the row


# ---------------------------------------------------------------------------
# diversity subset


def _many(n):
    return [text_cand(i, f"t{i}", i + 10**6, f"u{i}") for i in range(n)]


def test_diversity_below_window_is_identity():
    # below the window summarize draws no window, so none is passed
    group = _many(500)
    subset, dropped = diversity_subset(group, None, TextDistances(group))
    assert subset.tolist() == list(range(500)) and dropped.tolist() == []


def test_diversity_single_cycle_at_1100():
    group = _many(1100)
    window = sorted(Random(0).sample(range(len(group)), DIVERSITY_WINDOW))
    subset, dropped = diversity_subset(group, window, TextDistances(group))
    assert len(subset) == 1000
    assert len(dropped) == 100
    assert sorted([*subset, *dropped]) == list(range(1100))


def test_diversity_exhausts_pool():
    # 1350 -> four cycles; the last refill only has 50 unseen left
    group = _many(1350)
    window = sorted(Random(1).sample(range(len(group)), DIVERSITY_WINDOW))
    subset, dropped = diversity_subset(group, window, TextDistances(group))
    assert len(subset) + len(dropped) == 1350
    assert len(subset) == 950
    assert len(dropped) == 400


# ---------------------------------------------------------------------------
# k-means and silhouette


def _four_point_matrix():
    return np.array([
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.01, 1.0, 0.99],
    ])


def test_kmeans_recovers_two_separated_groups():
    # brute force over all 2-partitions of the 4 points confirms the split
    m = _four_point_matrix()
    points = m.T
    best, best_wcss = None, None
    for mask in range(1, 8):  # nontrivial bipartitions up to symmetry
        a = [i for i in range(4) if mask & (1 << i)]
        b = [i for i in range(4) if not mask & (1 << i)]
        wcss = 0.0
        for side in (a, b):
            center = points[side].mean(axis=0)
            wcss += ((points[side] - center) ** 2).sum()
        if best_wcss is None or wcss < best_wcss:
            best, best_wcss = frozenset(map(frozenset, (a, b))), wcss
    assert best == frozenset({frozenset({0, 1}), frozenset({2, 3})})
    model = kmeans(m, 2, Random(0))
    got = frozenset(map(frozenset, (
        [i for i in range(4) if model.assignment[i] == model.assignment[0]],
        [i for i in range(4) if model.assignment[i] != model.assignment[0]],
    )))
    assert got == best
    assert model.silhouette > 0.9


def test_kmeans_k_equals_point_count():
    m = np.random.RandomState(0).rand(4, 6)
    model = kmeans(m, 6, Random(0))
    assert sorted(np.bincount(model.assignment)) == [1] * 6
    assert model.silhouette == 0  # all singletons contribute 0


def test_kmeans_identical_columns_have_no_structure():
    m = np.ones((4, 8))
    model = kmeans(m, 2, Random(0))
    assert model.silhouette <= 0


def test_kmeans_rejects_bad_k():
    m = np.random.RandomState(1).rand(4, 5)
    with pytest.raises(ValueError):
        kmeans(m, 1, Random(0))
    with pytest.raises(ValueError):
        kmeans(m, 6, Random(0))


def wcss_by_iteration(matrix, k, seed) -> list:
    """Within-cluster sums of squares of ``kmeans`` with one seed, stopped
    after 1, 2, ... Lloyd iterations, until the assignment stops changing."""
    trace, last = [], None
    for max_iter in range(1, KMEANS_MAX_ITER + 1):
        model = kmeans(matrix, k, Random(seed), max_iter=max_iter)
        if last is not None and model.assignment.tolist() == last:
            break
        last = model.assignment.tolist()
        trace.append(float(((matrix.T - model.centroids[model.assignment]) ** 2).sum()))
    return trace


def test_kmeans_wcss_monotone_and_silhouette_bounded():
    rng = np.random.RandomState(42)
    steps = 0
    for trial in range(25):
        m = rng.rand(4, 30)
        model = kmeans(m, 2 + trial % 5, Random(trial))
        assert -1 <= model.silhouette <= 1
        if not model.reseeded:
            trace = wcss_by_iteration(m, model.k, trial)
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-9
            steps += len(trace) - 1
    assert steps >= 50   # consecutive iterations compared, so the check has teeth


def _reference_silhouette(matrix, assignment, distances):
    """The masked-copy silhouette that ``silhouette`` replaced."""
    labels, sizes = np.unique(assignment, return_counts=True)
    n = len(assignment)
    sums = np.column_stack([np.ascontiguousarray(distances[:, assignment == label]).sum(axis=1)
                            for label in labels])
    own = np.searchsorted(labels, assignment)
    points = np.arange(n)
    own_size = sizes[own]
    a = sums[points, own] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[points, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    counted = (own_size > 1) & (denom > 0)
    scores[counted] = (b[counted] - a[counted]) / denom[counted]
    return float(np.cumsum(scores)[-1]) / n


def _reference_kmeans(matrix, k, rng, distances, max_iter=200):
    """The masked-mean Lloyd loop that ``kmeans`` replaced: an n x k x 4
    difference array per iteration and one boolean mask per cluster."""
    points = matrix.T
    n = points.shape[0]
    centroids = points[rng.sample(range(n), k)].copy()
    assignment = np.full(n, -1)
    reseeded = False
    for _ in range(max_iter):
        sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = sq.argmin(axis=1)
        claimed = set()
        while True:
            empty = [c for c in range(k) if not (new_assignment == c).any()]
            if not empty:
                break
            reseeded = True
            for cluster in empty:
                own_dist = sq[np.arange(n), new_assignment].copy()
                donors = np.bincount(new_assignment, minlength=k)[new_assignment] > 1
                eligible = donors & ~np.isin(np.arange(n), list(claimed))
                if not eligible.any():
                    eligible = ~np.isin(np.arange(n), list(claimed))
                own_dist[~eligible] = -1.0
                farthest = int(own_dist.argmax())
                new_assignment[farthest] = cluster
                claimed.add(farthest)
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
        for cluster in range(k):
            centroids[cluster] = points[assignment == cluster].mean(axis=0)
    return ClusteringModel(k, centroids, assignment,
                           _reference_silhouette(matrix, assignment, distances), reseeded)


def test_kmeans_equals_masked_reference_bit_for_bit():
    rng = np.random.RandomState(11)
    reseeded = 0
    for trial in range(120):
        k = 2 + trial % 9
        n = int(rng.randint(k, 1001)) if trial % 4 else int(rng.randint(k, 40))
        if trial % 3 == 0:
            # few distinct columns: duplicated initial centroids empty a cluster
            distinct = rng.rand(4, int(rng.randint(2, k + 3)))
            matrix = distinct[:, rng.randint(0, distinct.shape[1], size=n)]
        else:
            matrix = rng.rand(4, n) * 10.0 ** rng.randint(-3, 4)
        distances = point_distances(matrix)
        got = kmeans(matrix, k, Random(trial), distances=distances)
        expected = _reference_kmeans(matrix, k, Random(trial), distances)
        assert got.assignment.tolist() == expected.assignment.tolist(), trial
        assert got.centroids.tolist() == expected.centroids.tolist(), trial
        assert got.silhouette == expected.silhouette, trial
        assert got.reseeded == expected.reseeded, trial
        reseeded += got.reseeded
    assert reseeded >= 10


def _three_distinct_points():
    """Shaped like bmi's VE group: 1000 points on 3 distinct feature vectors,
    so several clusters empty in one iteration and, for k >= 4, the loop
    cycles instead of converging."""
    rng = np.random.RandomState(0)
    distinct = rng.rand(4, 3)
    matrix = distinct[:, rng.randint(0, 3, size=1000)]
    return matrix, point_distances(matrix)


@pytest.mark.parametrize("k", [4, 7, 10])
def test_kmeans_cycling_on_three_distinct_points_equals_reference(k):
    matrix, distances = _three_distinct_points()
    got = kmeans(matrix, k, Random(k), distances=distances)
    expected = _reference_kmeans(matrix, k, Random(k), distances, max_iter=KMEANS_MAX_ITER)
    assert got.assignment.tolist() == expected.assignment.tolist()
    assert got.centroids.tolist() == expected.centroids.tolist()
    assert got.silhouette == expected.silhouette
    assert got.reseeded and expected.reseeded
    # still cycling at the iteration cap: one iteration fewer ends elsewhere
    early = kmeans(matrix, k, Random(k), max_iter=KMEANS_MAX_ITER - 1, distances=distances)
    assert (early.assignment.tolist() != got.assignment.tolist()
            or early.centroids.tolist() != got.centroids.tolist())


@pytest.mark.parametrize("k", [4, 7, 10])
def test_kmeans_cycle_jump_equals_reference_at_every_max_iter(k):
    # the jump picks its state by (max_iter - 1 - start) % period, so every
    # phase of the cycle below the cap is checked, and the short runs that
    # stop inside or just after the first lap
    matrix, distances = _three_distinct_points()
    tail = range(KMEANS_MAX_ITER - 12, KMEANS_MAX_ITER + 1)
    ends = {}
    for max_iter in [*range(3, 16), *tail]:
        got = kmeans(matrix, k, Random(k), max_iter=max_iter, distances=distances)
        expected = _reference_kmeans(matrix, k, Random(k), distances, max_iter=max_iter)
        assert got.assignment.tolist() == expected.assignment.tolist(), max_iter
        assert got.centroids.tolist() == expected.centroids.tolist(), max_iter
        assert got.silhouette.hex() == expected.silhouette.hex(), max_iter
        assert got.reseeded == expected.reseeded, max_iter
        ends[max_iter] = (got.assignment.tobytes(), got.centroids.tobytes())
    tail_ends = [ends[max_iter] for max_iter in tail]
    # still cycling, and some end state repeats: the tail spans a whole period
    assert 1 < len(set(tail_ends)) < len(tail_ends)


def test_kmeans_silhouette_memo_changes_no_model():
    # few distinct columns, so many of the 100 restarts end in one partition
    # under different labels
    rng = np.random.RandomState(3)
    distinct = rng.rand(4, 6)
    matrix = distinct[:, rng.randint(0, 6, size=600)]
    distances = point_distances(matrix)
    memo: dict = {}
    memoized, scored = [], []
    for restart in range(100):
        k = 2 + restart % 9
        memoized.append(kmeans(matrix, k, Random(restart), distances=distances, memo=memo))
        scored.append(kmeans(matrix, k, Random(restart), distances=distances))
    assert _partition_keys(memo) < 60
    for got, expected in zip(memoized, scored):
        assert got.assignment.tolist() == expected.assignment.tolist()
        assert got.centroids.tolist() == expected.centroids.tolist()
        assert got.silhouette.hex() == expected.silhouette.hex()
    assert memoized.index(select_model(memoized)) == scored.index(select_model(scored))


def _broadcast_point_distances(matrix):
    """Pairwise distances through one (n, n, 4) temporary."""
    points = matrix.T
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))


@pytest.mark.parametrize("n", [1, 5, 100, 128, 129, 950])
def test_point_distances_equal_broadcast_formula_bit_for_bit(n):
    rng = np.random.RandomState(n)
    for matrix in (rng.rand(4, n), rng.rand(4, n) * 10.0 ** rng.randint(-3, 4, size=(4, 1)),
                   rng.rand(4, 3)[:, rng.randint(0, 3, size=n)]):   # repeated columns
        got, expected = point_distances(matrix), _broadcast_point_distances(matrix)
        assert got.shape == (n, n)
        assert (got.view(np.uint64) == expected.view(np.uint64)).all()


def test_point_distances_need_one_block_beside_the_result():
    n = 950
    matrix = np.random.RandomState(0).rand(4, n)
    tracemalloc.start()
    try:
        point_distances(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = summarization.SILHOUETTE_ROWS * n * 8
    assert peak < n * n * 8 + 2 * block


def _naive_silhouette(matrix, assignment):
    """Point-by-point reference: a over the own cluster, b the nearest other
    cluster's mean distance, singletons contributing 0."""
    points = matrix.T
    n = points.shape[0]
    distances = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    labels = np.unique(assignment)
    total = 0.0
    for i in range(n):
        own = assignment == assignment[i]
        if own.sum() == 1:
            continue
        a = distances[i][own].sum() / (own.sum() - 1)
        b = min(distances[i][assignment == other].mean()
                for other in labels if other != assignment[i])
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n


def test_silhouette_equals_naive_loop_bit_for_bit():
    rng = np.random.RandomState(7)
    singletons = 0
    for trial in range(60):
        k = 2 + trial % 9
        n = int(rng.randint(k, 160))
        matrix = rng.rand(4, n)
        assignment = rng.randint(0, k, size=n)
        assignment[:k] = np.arange(k)        # every label occurs
        if trial % 3 == 0:
            assignment[k:] = np.where(assignment[k:] == 0, 1, assignment[k:])  # 0 is a singleton
        singletons += int((np.bincount(assignment) == 1).any())
        expected = _naive_silhouette(matrix, assignment)
        assert silhouette(matrix, assignment) == expected
        assert silhouette(matrix, assignment, point_distances(matrix)) == expected
    assert singletons >= 20


def test_silhouette_equals_naive_loop_at_real_cluster_sizes():
    # clusters above 128 members make numpy's pairwise row sums recurse
    rng = np.random.RandomState(8)
    for trial in range(6):
        k = 2 + trial % 3
        n = int(rng.randint(300, 1001))
        matrix = rng.rand(4, n)
        assignment = np.minimum(rng.randint(0, k + 2, size=n), k - 1)   # last label is large
        assert np.bincount(assignment).max() > 128
        expected = _naive_silhouette(matrix, assignment)
        assert silhouette(matrix, assignment) == expected
        assert silhouette(matrix, assignment, point_distances(matrix)) == expected


def test_silhouette_bits_survive_relabelling():
    # the premise of the silhouette memo in summarize, which keys each
    # assignment by its labels renumbered in first-appearance order
    rng = np.random.RandomState(12)
    for trial in range(30):
        k = 2 + trial % 9
        n = int(rng.randint(k, 1001)) if trial % 3 else int(rng.randint(k, 60))
        distinct = rng.rand(4, int(rng.randint(2, 2 * k + 3)))
        matrix = distinct[:, rng.randint(0, distinct.shape[1], size=n)]   # duplicate columns
        distances = point_distances(matrix)
        assignment = rng.randint(0, k, size=n)
        assignment[:k] = rng.permutation(k)        # every label occurs
        expected = silhouette(matrix, assignment, distances).hex()
        for _ in range(4):
            relabelled = rng.permutation(k)[assignment]
            assert silhouette(matrix, relabelled, distances).hex() == expected, trial
        assert silhouette(matrix, rng.permutation(k)[assignment]).hex() == expected, trial


def _shared_cluster_partitions(rng, n, k):
    """Partitions of n points that share clusters: a base partition, the
    same under permuted labels, with two clusters merged, with one split,
    with a few points moved, and with the last members of two clusters
    swapped, which keeps every cluster's size and first member."""
    base = rng.randint(0, k, size=n)
    base[:k] = rng.permutation(k)                   # every label occurs
    merged = np.where(base == k - 1, 0, base)       # k - 1 clusters
    split = base.copy()
    members = np.flatnonzero(base == 0)
    split[members[len(members) // 2:]] = k          # k + 1 clusters
    moved = base.copy()
    moved[rng.randint(k, n, size=3)] = 1
    swapped = base.copy()
    last0, last1 = np.flatnonzero(base == 0)[-1], np.flatnonzero(base == 1)[-1]
    swapped[[last0, last1]] = 1, 0
    return [base, rng.permutation(k)[base], merged, split, moved,
            rng.permutation(k + 1)[split], swapped, base]


def _cluster_keys(memo):
    return sum(isinstance(key, bytes) for key in memo)


def _partition_keys(memo):
    return sum(isinstance(key, frozenset) for key in memo)


def test_silhouette_cluster_memo_keeps_every_bit():
    rng = np.random.RandomState(21)
    reused = 0
    for trial in range(32):
        k = 2 + trial % 8
        n = int(rng.randint(300, 700)) if trial % 4 == 0 else int(rng.randint(k + 2, 160))
        if trial % 3 == 0:   # repeated columns, as feature matrices have
            matrix = rng.rand(4, 2 * k + 3)[:, rng.randint(0, 2 * k + 3, size=n)]
        else:
            matrix = rng.rand(4, n)
        distances = point_distances(matrix)
        memo: dict = {}
        for assignment in _shared_cluster_partitions(rng, n, k):
            if len(np.unique(assignment)) < 2:
                continue
            held = _cluster_keys(memo)
            got = silhouette(matrix, assignment, distances, memo)
            reused += len(np.unique(assignment)) - (_cluster_keys(memo) - held)
            assert got.hex() == silhouette(matrix, assignment, distances).hex(), trial
            assert got.hex() == silhouette(matrix, assignment).hex(), trial
    assert reused > 100     # the memo answered most clusters


def test_silhouette_memo_answers_a_relabelled_partition(monkeypatch):
    rng = np.random.RandomState(8)
    matrix = rng.rand(4, 90)
    assignment = rng.randint(0, 5, size=90)
    assignment[:5] = range(5)
    memo: dict = {}
    first = silhouette(matrix, assignment, point_distances(matrix), memo)
    held = dict(memo)
    assert _partition_keys(memo) == 1
    # below 256 points a cluster key holds one byte per member
    assert sorted(b"".join(key for key in memo if isinstance(key, bytes))) == list(range(90))

    def recomputed(matrix):
        raise AssertionError("a scored partition was recomputed")

    monkeypatch.setattr(summarization, "point_distances", recomputed)
    for permutation in ([4, 3, 2, 1, 0], [1, 0, 2, 4, 3], [2, 4, 0, 3, 1]):
        relabelled = np.array(permutation)[assignment]
        assert silhouette(matrix, relabelled, memo=memo).hex() == first.hex()
    assert memo == held
    # a partition it has not scored is computed, with the same bits as alone
    moved = assignment.copy()
    moved[10] = (moved[10] + 1) % 5
    monkeypatch.undo()
    assert silhouette(matrix, moved, memo=memo).hex() == silhouette(matrix, moved).hex()


def test_silhouette_two_tight_far_clusters():
    m = _four_point_matrix()
    assert silhouette(m, np.array([0, 0, 1, 1])) > 0.9


def test_silhouette_identical_points_zero():
    m = np.zeros((4, 6))
    assert silhouette(m, np.array([0, 0, 0, 1, 1, 1])) == 0


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValueError):
        silhouette(np.zeros((4, 3)), np.array([0, 0, 0]))


def _model(k, sil):
    return ClusteringModel(k, np.zeros((k, 4)), np.zeros(k, dtype=int), sil)


def test_select_model_rules():
    assert select_model([_model(4, 0.5)]).k == 4
    # both in the top percentile: larger k wins despite lower silhouette
    picked = select_model([_model(5, 0.982), _model(6, 0.942)] + [_model(2, 0.1)] * 38)
    assert picked.k == 6
    # equal silhouettes: largest k
    picked = select_model([_model(k, 0.7) for k in (3, 5, 4)])
    assert picked.k == 5
    # tie on k: higher silhouette
    picked = select_model([_model(4, 0.6), _model(4, 0.9)])
    assert picked.silhouette == 0.9


# ---------------------------------------------------------------------------
# summarize


def _seeded_archive(seeds=(0, 1), budget=1500):
    from autobva.detection import DetectionConfig, detect
    from autobva.sampling import SamplerConfig
    merged = Archive()
    for seed in seeds:
        cfg = DetectionConfig(strategy="bcs", budget={"iterations": budget},
                              sampler=SamplerConfig(seed=seed))
        merged.merge(detect(BC, cfg).archive)
    return merged


def test_summarize_empty_archive():
    report = summarize(Archive(), Random(0))
    assert report == {"total_candidates": 0, "groups": []}


def test_summarize_small_group_is_single_cluster():
    archive = Archive()
    archive.add(bc_cand(999999999999994822656, 999999999999994822657), ("bcs",))
    report = summarize(archive, Random(0))
    (group,) = report["groups"]
    assert group["validity"] == "VE"
    assert len(group["clusters"]) == 1
    assert group["clusters"][0]["size"] == 1
    assert group["silhouette"] is None
    assert group["clusters"][0]["strategy_counts"] == {"bcs": 1}


@pytest.mark.parametrize("restarts", [0, -1])
@pytest.mark.parametrize("pairs", [1, 3], ids=["small group", "clustered group"])
def test_summarize_refuses_fewer_than_one_restart(restarts, pairs):
    """Refused on entry, whether or not a group is large enough to cluster."""
    archive = Archive()
    for digits in range(1, pairs + 1):
        archive.add(bc_cand(10 ** digits - 1, 10 ** digits))
    with pytest.raises(ValueError, match=f"^restarts must be at least 1, got {restarts}$"):
        summarize(archive, Random(0), restarts=restarts)


def test_summarize_bytecount_archive():
    archive = _seeded_archive()
    report = summarize(archive, Random(0), restarts=60)
    assert report["total_candidates"] == len(archive)
    groups = {g["validity"]: g for g in report["groups"]}
    vv = groups["VV"]
    sizes = [c["size"] for c in vv["clusters"]]
    assert sum(sizes) == vv["size"]
    assert all(s > 0 for s in sizes)
    assert vv["silhouette"] is not None and -1 <= vv["silhouette"] <= 1
    mapping = {tuple(m): (g["validity"], c["id"])
               for g in report["groups"] for c in g["clusters"] for m in c["members"]}
    assert len(mapping) == report["total_candidates"]
    assert set(mapping) == {c.key for c in archive}


def test_summarize_representative_is_shortest():
    from autobva.values import display_tuple

    def total_len(c):
        return (len(display_tuple(c.input1)) + len(display_tuple(c.input2))
                + len(c.output1.text) + len(c.output2.text))

    archive = _seeded_archive()
    by_key = {c.key: c for c in archive}
    report = summarize(archive, Random(0), restarts=60)
    for group in report["groups"]:
        for cluster in group["clusters"]:
            rep = cluster["representative"]
            rep_len = total_len(by_key[rep["input1"], rep["input2"]])
            assert all(total_len(by_key[tuple(m)]) >= rep_len for m in cluster["members"])


def _date_lns_archive():
    """The seeded date LNS archive at bench scale: EE 1831, VE 569, VV 17."""
    cfg = DetectionConfig(strategy="lns", budget={"iterations": 10000}, sampler=SamplerConfig(seed=0))
    return detect(DATE, cfg).archive


def _workers(monkeypatch, count):
    """Give ``summarize`` ``count`` CPUs and make every clustered group,
    however small, heavy; 1 runs every restart in this process, so a
    patched ``kmeans`` sees every restart."""
    monkeypatch.setattr(summarization, "usable_cpus", lambda: count)
    monkeypatch.setattr(summarization, "SPLIT_MIN_WORK", 0)


def _small_window(monkeypatch):
    """A diversity window of 20 and block of 6, which run diversity rounds
    on both VE (28) and EE (143) of the small archive."""
    monkeypatch.setattr(summarization, "DIVERSITY_WINDOW", 20)
    monkeypatch.setattr(summarization, "DIVERSITY_BLOCK", 6)


# the default window keeps 1000 of the bench-scale EE group, whose clusters
# grow past 128 members, and attaches the other 831
_GOLDEN_SMALL = dict(archive=_date_archive, small_window=True)
_GOLDEN_BENCH = dict(archive=_date_lns_archive, small_window=False)


@pytest.mark.parametrize("seed, digest, options", [
    pytest.param(0, "2779a2ee519e19a441c41c919e561b84eb02deb662fd7bcf6da2759adf2c102c",
                 _GOLDEN_SMALL, id="0-2779a2ee519e19a441c41c919e561b84eb02deb662fd7bcf6da2759adf2c102c"),
    pytest.param(1, "4858508e3cebe9bf78dcef82bb35aac0b8a2e7872bde41898ea7a3986737551b",
                 _GOLDEN_SMALL, id="1-4858508e3cebe9bf78dcef82bb35aac0b8a2e7872bde41898ea7a3986737551b"),
    pytest.param(0, "76fc420713afe94f6638fe82e5028f27bbe56faa0d88154851bda11b6d279016",
                 _GOLDEN_BENCH, id="window1000-0"),
])
def test_summarize_golden_report(tmp_path, monkeypatch, seed, digest, options):
    # the digests pin report.json bytes; they were computed before the
    # clustering core moved to bincount centroids and sorted silhouette slices
    if options["small_window"]:
        _small_window(monkeypatch)
    report = summarize(options["archive"](), Random(seed), restarts=20)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_summarize_memo_selects_what_scoring_every_restart_selects(tmp_path, monkeypatch):
    _workers(monkeypatch, 1)
    archive = _date_archive()
    clustering = summarization.kmeans
    memos = {}

    def keeping(*args, memo=None, **kwargs):
        memos[id(memo)] = memo
        return clustering(*args, memo=memo, **kwargs)

    def report_bytes(name, kmeans):
        monkeypatch.setattr(summarization, "kmeans", kmeans)
        path = tmp_path / name
        write_report_json(path, summarize(archive, Random(0), restarts=100))
        return path.read_bytes()

    memoized = report_bytes("memoized.json", keeping)
    scored = report_bytes("scored.json",
                          lambda *args, memo=None, **kwargs: clustering(*args, **kwargs))
    assert scored == memoized
    assert len(memos) == 2     # VE and EE, 100 restarts each
    assert 0 < sum(map(_partition_keys, memos.values())) < 200


class _ClusterSumsOnly(dict):
    """A silhouette memo that keeps cluster row sums but no partition score."""

    def __setitem__(self, key, value):
        if isinstance(key, bytes):
            super().__setitem__(key, value)


def test_summarize_cluster_memo_changes_no_report(tmp_path, monkeypatch):
    _workers(monkeypatch, 1)
    archive = _date_archive()

    def report_bytes(name):
        path = tmp_path / name
        write_report_json(path, summarize(archive, Random(0), restarts=100))
        return path.read_bytes()

    memoized = report_bytes("memoized.json")
    # every restart scores its partition, over the row sums its group's
    # restarts share; holding the group's own memo keeps its id unique
    summing, shared = summarization.kmeans, {}
    monkeypatch.setattr(summarization, "kmeans", lambda *args, memo=None, **kwargs: summing(
        *args, memo=shared.setdefault(id(memo), (memo, _ClusterSumsOnly()))[1], **kwargs))
    assert report_bytes("summed.json") == memoized
    assert len(shared) == 2     # VE and EE


class _CountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.inserts = 0

    def __setitem__(self, key, value):
        self.inserts += 1
        super().__setitem__(key, value)


def test_summarize_sums_each_distinct_cluster_once_per_group(monkeypatch):
    _workers(monkeypatch, 1)
    memos, member_sets = {}, {}
    clustering = summarization.kmeans

    def counting(matrix, k, rng, memo=None, **kwargs):
        # a group's own memo stays referenced, so its id names the group
        group = id(memo)
        counted = memos.setdefault(group, (memo, _CountingMemo()))[1]
        model = clustering(matrix, k, rng, memo=counted, **kwargs)
        narrow = np.min_scalar_type(len(model.assignment))
        member_sets.setdefault(group, set()).update(
            np.flatnonzero(model.assignment == label).astype(narrow).tobytes()
            for label in np.unique(model.assignment))
        return model

    monkeypatch.setattr(summarization, "kmeans", counting)
    summarize(_date_archive(), Random(0), restarts=100)
    assert len(memos) == 2     # VE and EE; VV is too small to cluster
    for group, (_, memo) in memos.items():
        # keyed by ascending member indices, in the narrowest type that
        # holds the point count, each inserted once
        assert {key for key in memo if isinstance(key, bytes)} == member_sets[group]
        assert memo.inserts == len(memo)


def test_summarize_computes_candidate_features_once_per_group(monkeypatch):
    # VE 28 and EE 143 are clustered, with diversity rounds on both; VV 2 is not
    calls = {"strlendist": 0, "TextDistances": 0}
    strlendist_ = summarization.strlendist

    def counted_strlendist(*args):
        calls["strlendist"] += 1
        return strlendist_(*args)

    class CountedTextDistances(TextDistances):
        def __init__(self, *args):
            calls["TextDistances"] += 1
            super().__init__(*args)

    monkeypatch.setattr(summarization, "strlendist", counted_strlendist)
    monkeypatch.setattr(summarization, "TextDistances", CountedTextDistances)
    _small_window(monkeypatch)
    summarize(_date_archive(), Random(0), restarts=20)
    assert calls == {"strlendist": 28 + 143, "TextDistances": 2}


def test_summarize_memory_is_bounded_by_the_window(monkeypatch):
    # 2000 candidates with 4000 distinct texts: one text-by-text float64
    # array is 122 MiB, while the window's (1000, 1000) distances are 8 MiB;
    # tracemalloc sees this process alone, so every restart runs in it
    _workers(monkeypatch, 1)
    archive = Archive()
    for i in range(2000):
        archive.add(text_cand(2 * i, str(i * 7919), 2 * i + 1, f"{i * 104729}x"))
    tracemalloc.start()
    try:
        report = summarize(archive, Random(0), restarts=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["total_candidates"] == 2000
    assert peak < 32 * 2**20


def test_summarize_fixed_seed_reproducible():
    archive = _seeded_archive()
    a = summarize(archive, Random(42), restarts=40)
    b = summarize(archive, Random(42), restarts=40)
    assert [(g["validity"], [(c["id"], c["size"], c["representative"])
                             for c in g["clusters"]]) for g in a["groups"]] == \
           [(g["validity"], [(c["id"], c["size"], c["representative"])
                             for c in g["clusters"]]) for g in b["groups"]]


# ---------------------------------------------------------------------------
# restarts split over processes


def _log_groups(monkeypatch, path):
    """Append each clustered group's validity and process id to ``path``
    as its feature table is built; a forked worker's lines reach the file."""
    table = summarization.TextDistances

    def logged(candidates):
        with open(path, "a", encoding="utf-8") as log:
            log.write(f"{candidates[0].validity} {os.getpid()}\n")
        return table(candidates)
    monkeypatch.setattr(summarization, "TextDistances", logged)


def _forked_groups(path):
    """The groups that ``_log_groups`` saw built in a process other than this one."""
    lines = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    return {validity for validity, pid in lines if int(pid) != os.getpid()}


def _report_bytes(tmp_path, name, archive, seed, restarts):
    path = tmp_path / name
    write_report_json(path, summarize(archive, Random(seed), restarts=restarts))
    return path.read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("seed, digest, options", [
    (0, "2779a2ee519e19a441c41c919e561b84eb02deb662fd7bcf6da2759adf2c102c", _GOLDEN_SMALL),
    (1, "4858508e3cebe9bf78dcef82bb35aac0b8a2e7872bde41898ea7a3986737551b", _GOLDEN_SMALL),
    (0, "76fc420713afe94f6638fe82e5028f27bbe56faa0d88154851bda11b6d279016", _GOLDEN_BENCH),
], ids=["small-0", "small-1", "window1000-0"])
def test_summarize_golden_report_at_any_worker_count(tmp_path, monkeypatch, workers, seed,
                                                     digest, options):
    _workers(monkeypatch, workers)
    if options["small_window"]:
        _small_window(monkeypatch)
    log = tmp_path / "groups.log"
    _log_groups(monkeypatch, log)
    report = _report_bytes(tmp_path, "report.json", options["archive"](), seed, 20)
    assert hashlib.sha256(report).hexdigest() == digest
    # EE, the largest, stays here and the next largest clustered groups, one
    # fewer than the CPUs, go to group workers: VE, then the bench-scale
    # archive's VV (17); the small archive's VV (2) is not clustered
    clustered = ["VE", "VV"] if options is _GOLDEN_BENCH else ["VE"]
    assert _forked_groups(log) == set(clustered[:workers - 1])


def test_summarize_report_is_the_same_at_any_worker_count(tmp_path, monkeypatch):
    archive = _date_archive()
    reports = []
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        reports.append(_report_bytes(tmp_path, f"{workers}.json", archive, 0, 100))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def _restart_inputs(restarts):
    """The features of the small date archive's EE group (143 points), their
    distances, ks and ``restarts`` seeds."""
    group = [c for c in _date_archive() if c.validity == "EE"]
    matrix = FeatureSpace(TextDistances(group), range(len(group))).matrix
    rng = Random(5)
    return (matrix, point_distances(matrix), list(range(2, summarization.K_MAX + 1)),
            [rng.getrandbits(64) for _ in range(restarts)])


def _model_bytes(model):
    return (model.k, model.assignment.tobytes(), model.centroids.tobytes(),
            model.silhouette.hex(), model.reseeded)


def _started(monkeypatch):
    """The names of the processes started from here on, in start order."""
    from multiprocessing.context import ForkProcess
    names, start = [], ForkProcess.start

    def counted_start(process):
        names.append(process.name)
        start(process)
    monkeypatch.setattr(ForkProcess, "start", counted_start)
    return names


@pytest.mark.parametrize("restarts", [100, 2, 1])
def test_split_restarts_fit_the_models_of_the_serial_loop(monkeypatch, restarts):
    matrix, pairwise, ks, seeds = _restart_inputs(restarts)
    memo: dict = {}
    serial = [kmeans(matrix, ks[i % len(ks)], Random(seed), distances=pairwise, memo=memo)
              for i, seed in enumerate(seeds)]
    started = _started(monkeypatch)
    for shares in (1, 2, 3):
        del started[:]
        split = summarization._fit_restarts(matrix, pairwise, ks, seeds, shares)
        assert list(map(_model_bytes, split)) == list(map(_model_bytes, serial))
        # every share but the last is a child process; one share starts none
        assert len(started) == min(shares, len(ks), restarts) - 1


def _in_a_worker(action, original=summarization.kmeans):
    """``original`` (``kmeans`` unless given) that does ``action`` in a
    forked worker instead of its work."""
    parent = os.getpid()

    def in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return original(*args, **kwargs)
    return in_a_worker


def _fault():
    raise ArithmeticError("no model")


def test_worker_that_ends_without_models_raises(monkeypatch):
    matrix, pairwise, ks, seeds = _restart_inputs(20)
    monkeypatch.setattr(summarization, "kmeans", _in_a_worker(lambda: os._exit(7)))
    with pytest.raises(RuntimeError, match=r"^k-means share 0 of 2 \(k = 2, 4, 6, 7, 10\) "
                                           r"ended with exit code 7 before sending its models$"):
        summarization._fit_restarts(matrix, pairwise, ks, seeds, 2)
    assert multiprocessing.active_children() == []


def test_summarize_raises_when_a_worker_fails(monkeypatch):
    _workers(monkeypatch, 3)
    monkeypatch.setattr(summarization, "kmeans", _in_a_worker(_fault))
    with pytest.raises(RuntimeError, match=r"^k-means share 0 of 3 \(k = 3, 5, 10\) failed "
                                           r"in process \d+: ArithmeticError: no model\n"
                                           r"Traceback ") as failed:
        summarize(_date_archive(), Random(0), restarts=20)
    # the worker's traceback, down to the fault
    assert str(failed.value).endswith(', in _fault\n    raise ArithmeticError("no model")\n'
                                      "ArithmeticError: no model\n")
    assert multiprocessing.active_children() == []


def test_interrupt_in_the_parent_ends_every_worker(monkeypatch):
    matrix, pairwise, ks, seeds = _restart_inputs(20)
    parent = os.getpid()

    def kmeans_(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)       # a worker that would outlast the test
        raise KeyboardInterrupt
    monkeypatch.setattr(summarization, "kmeans", kmeans_)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        summarization._fit_restarts(matrix, pairwise, ks, seeds, 3)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# validity groups clustered side by side


def test_group_worker_that_fails_raises_naming_its_group(monkeypatch):
    # with two CPUs the small archive's VE (28) goes to a group worker and
    # EE (143), the largest, stays in this process; VV (2) is not clustered
    _workers(monkeypatch, 2)
    monkeypatch.setattr(summarization, "TextDistances",
                        _in_a_worker(_fault, summarization.TextDistances))
    with pytest.raises(RuntimeError, match=r"^validity group VE failed in process \d+: "
                                           r"ArithmeticError: no model\nTraceback ") as failed:
        summarize(_date_archive(), Random(0), restarts=20)
    assert str(failed.value).endswith(', in _fault\n    raise ArithmeticError("no model")\n'
                                      "ArithmeticError: no model\n")
    assert multiprocessing.active_children() == []


def test_group_worker_that_ends_without_its_entry_raises(monkeypatch):
    _workers(monkeypatch, 2)
    monkeypatch.setattr(summarization, "TextDistances",
                        _in_a_worker(lambda: os._exit(7), summarization.TextDistances))
    with pytest.raises(RuntimeError, match=r"^validity group VE ended with exit code 7 "
                                           r"before sending its report entry$"):
        summarize(_date_archive(), Random(0), restarts=20)
    assert multiprocessing.active_children() == []


def test_interrupt_in_the_parent_ends_every_group_worker(monkeypatch):
    _workers(monkeypatch, 2)
    parent = os.getpid()

    def text_distances(candidates):
        if os.getpid() != parent:
            time.sleep(60)       # a group worker that would outlast the test
        raise KeyboardInterrupt
    monkeypatch.setattr(summarization, "TextDistances", text_distances)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        summarize(_date_archive(), Random(0), restarts=20)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def _log_shares(monkeypatch, path):
    """Append the validity, process id and share count of each
    ``_fit_restarts`` call to ``path``; a forked worker's lines reach the file."""
    entry, fit, validity = summarization._group_entry, summarization._fit_restarts, []

    def group_entry(*args):
        validity[:] = args[:1]
        return entry(*args)

    def fit_restarts(*args):
        with open(path, "a", encoding="utf-8") as log:
            log.write(f"{validity[0]} {os.getpid()} {args[-1]}\n")
        return fit(*args)
    monkeypatch.setattr(summarization, "_group_entry", group_entry)
    monkeypatch.setattr(summarization, "_fit_restarts", fit_restarts)


def _taken_shares(path):
    """(validity, ran in this process, shares) of each line ``_log_shares``
    wrote, sorted; the log is emptied for the next run."""
    lines = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
    path.unlink()
    return sorted((v, int(pid) == os.getpid(), int(shares)) for v, pid, shares in lines)


def test_summarize_plans_one_share_per_cpu_for_each_group_it_keeps(tmp_path, monkeypatch):
    # the bench-scale archive: EE 1831 (a 931-point subset), VE 569, VV 17
    archive, ee, threshold = _date_lns_archive(), Archive(), summarization.SPLIT_MIN_WORK
    for candidate in archive:
        if candidate.validity == "EE":
            ee.add(candidate)
    log, started = tmp_path / "shares.log", _started(monkeypatch)
    _log_shares(monkeypatch, log)
    _workers(monkeypatch, 2)
    # every group heavy: VE, the second largest, goes to a group worker
    # with one share, and EE and VV split into a share per CPU here
    summarize(archive, Random(0), restarts=4)
    assert _taken_shares(log) == [("EE", True, 2), ("VE", False, 1), ("VV", True, 2)]
    assert [name for name in started if name.startswith("validity")] == ["validity group VE"]
    # one heavy group forks no group worker and splits into two shares
    del started[:]
    summarize(ee, Random(0), restarts=4)
    assert _taken_shares(log) == [("EE", True, 2)]
    assert started == ["k-means share 0 of 2 (k = 2, 5)"]
    # at the real threshold, 6 restarts of 1000 points make EE heavy, and
    # it splits though its subset is 931 points
    monkeypatch.setattr(summarization, "SPLIT_MIN_WORK", threshold)
    del started[:]
    summarize(ee, Random(0), restarts=6)
    assert _taken_shares(log) == [("EE", True, 2)]
    assert started == ["k-means share 0 of 2 (k = 3, 4, 7)"]


@pytest.mark.parametrize("workers", [1, 2])
def test_summarize_leaves_rng_where_the_serial_draws_leave_it(monkeypatch, workers):
    # the small window draws a window for VE (28) and EE (143); VV (2)
    # is not clustered and draws nothing
    _workers(monkeypatch, workers)
    _small_window(monkeypatch)
    archive = _date_archive()
    rng, serial = Random(7), Random(7)
    summarize(archive, rng, restarts=9)
    for validity in ("VV", "VE", "EE"):
        n = sum(c.validity == validity for c in archive)
        if n >= 3:
            if n > summarization.DIVERSITY_WINDOW:
                sorted(serial.sample(range(n), summarization.DIVERSITY_WINDOW))
            for _ in range(9):
                serial.getrandbits(64)
    assert rng.getstate() == serial.getstate()


def test_summarize_runs_one_blas_thread_beside_group_workers(tmp_path, monkeypatch):
    libraries = summarization._openblas()
    if not libraries:
        pytest.skip("no OpenBLAS is mapped into this process")
    archive, table, parent, seen = _date_archive(), summarization.TextDistances, os.getpid(), []
    threshold, share, log = summarization.SPLIT_MIN_WORK, summarization._fit_share, tmp_path / "log"

    def counts():
        return tuple(get() for get, _ in libraries)

    def fit_share(*args):
        """Log whether a share runs in this process, and at what BLAS counts."""
        with open(log, "a", encoding="utf-8") as shares:
            shares.write(f"{os.getpid() == parent} {counts()}\n")
        return share(*args)

    def counting(fail):
        """Record this process's BLAS thread counts as each of its groups'
        feature table is built, and fail there if ``fail``."""
        def text_distances(candidates):
            if os.getpid() == parent:
                seen.append(counts())
                if fail:
                    _fault()
            return table(candidates)
        return text_distances

    before = [get() for get, _ in libraries]
    try:
        for _, set_ in libraries:
            set_(2)
        # one CPU: no group worker, so BLAS keeps its count for VE and EE
        _workers(monkeypatch, 1)
        monkeypatch.setattr(summarization, "TextDistances", counting(False))
        summarize(archive, Random(0), restarts=4)
        own, one = (2,) * len(libraries), (1,) * len(libraries)
        assert seen == [own] * 2
        # two CPUs and, at the real threshold, one heavy group (EE): no group
        # worker, so every feature runs at BLAS's own count, as does VE's one
        # share, and EE's two restart shares, here and forked, at one thread
        monkeypatch.setattr(summarization, "SPLIT_MIN_WORK", threshold)
        monkeypatch.setattr(summarization, "usable_cpus", lambda: 2)
        monkeypatch.setattr(summarization, "_fit_share", fit_share)
        del seen[:]
        summarize(archive, Random(0), restarts=50)
        assert seen == [own] * 2
        assert sorted(log.read_text(encoding="utf-8").splitlines()) == \
            [f"False {one}", f"True {one}", f"True {own}"]
        assert counts() == own
        assert summarization._run_forked([], counts, "counts") == [own]
        # two CPUs: VE goes to a group worker and EE runs here at one thread
        _workers(monkeypatch, 2)
        del seen[:]
        summarize(archive, Random(0), restarts=4)
        assert seen == [one]
        assert counts() == own
        monkeypatch.setattr(summarization, "TextDistances", counting(True))
        del seen[:]
        with pytest.raises(ArithmeticError):
            summarize(archive, Random(0), restarts=4)
        assert seen == [one]
        assert counts() == own
        assert multiprocessing.active_children() == []
    finally:
        for (_, set_), count in zip(libraries, before):
            set_(count)
