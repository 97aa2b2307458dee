"""Validity-Value Similarity Clustering of archived boundary candidates.

Candidates are first partitioned by whether each side of the pair returned
normally (VV / VE / EE).  Within a group, each candidate is embedded in a
four-attribute feature space: its within-pair output distance under both
strlendist (min-max normalized) and 2-gram Jaccard, read from the group's
table, plus the mean 2-gram Jaccard distance of each of its outputs to the
corresponding outputs of a reference set of the group (uniqueness).  The
diversity rounds and the clustering address candidates by their position
in the group.  Restarted k-means with silhouette-based model selection then
yields clusters, each summarized by its shortest member.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detection import Archive, BoundaryCandidate, usable_cpus
from .distances import ngrams, strlendist
from .values import display_tuple

DIVERSITY_BLOCK = 100
DIVERSITY_WINDOW = 1000
KMEANS_MAX_ITER = 200
KMEANS_RESTARTS = 100
K_MAX = 10
SILHOUETTE_ROWS = 128   # rows per distance block: 128 x 1000 float64 is 1 MiB
TEXT_ROWS = 256         # texts per Jaccard block: 2 MiB against a 1000-text reference
SPLIT_MIN_WORK = 6000   # restarts x subset points below which a fork costs more than it saves


def _jaccard(inter: np.ndarray, sizes1: np.ndarray, sizes2: np.ndarray) -> np.ndarray:
    """1 - |A&B|/|A|B| from intersection counts and the two gram set sizes."""
    union = sizes1 + sizes2 - inter
    return (union - inter) / union


class TextDistances:
    """The feature table of one validity group.

    Texts are indexed in first-appearance order over both sides of every
    candidate.  Each text keeps only its gram ids, so a group's memory grows
    with its total text length; distances are computed on demand, a block at
    a time, from products of 0/1 gram incidence matrices.  The intersection
    counts are exact integers in float64, so each entry equals
    ``float(jaccard_ngram(2, s, t))``.  Per candidate, by position, the table
    keeps its two text indices (``rows``, 2 x n), raw strlendist (``wd``) and
    within-pair distance (``pair``, from the two texts' gram id sets), each
    computed once.
    """

    def __init__(self, candidates: Sequence[BoundaryCandidate]):
        self.index: dict = {}
        rows = [(self.index.setdefault(c.output1.text, len(self.index)),
                 self.index.setdefault(c.output2.text, len(self.index))) for c in candidates]
        gram_ids: dict = {}
        per_text = [[gram_ids.setdefault(g, len(gram_ids)) for g in ngrams(text, 2)]
                    for text in self.index]
        self._counts = np.array([len(ids) for ids in per_text], dtype=np.intp)
        self._starts = np.cumsum(self._counts) - self._counts
        self._grams = np.array([g for ids in per_text for g in ids], dtype=np.intp)
        self._sizes = self._counts.astype(float)   # >= 1: no text has zero grams
        self._gram_count = len(gram_ids)
        self.rows = np.array(rows, dtype=np.intp).reshape(-1, 2).T
        self.wd = np.array([strlendist(c.output1.text, c.output2.text) for c in candidates],
                           dtype=np.intp)
        sets = [frozenset(ids) for ids in per_text]
        inter = np.array([len(sets[i] & sets[j]) for i, j in rows], dtype=float)
        self.pair = _jaccard(inter, self._sizes[self.rows[0]], self._sizes[self.rows[1]])

    def _cells(self, rows: np.ndarray) -> tuple:
        """(position in ``rows``, gram id) of every gram of the rows' texts."""
        counts = self._counts[rows]
        owners = np.repeat(np.arange(len(rows)), counts)
        offsets = np.repeat(self._starts[rows] - (np.cumsum(counts) - counts), counts)
        return owners, self._grams[offsets + np.arange(len(owners))]

    def _grams_of(self, rows: np.ndarray) -> np.ndarray:
        """Mask over gram ids: the grams of the texts ``rows``."""
        present = np.zeros(self._gram_count, dtype=bool)
        present[self._cells(rows)[1]] = True
        return present

    def _incidence(self, rows: np.ndarray, present: np.ndarray) -> np.ndarray:
        """0/1 matrix of the texts ``rows`` over the grams in the mask
        ``present``, in gram id order; the rows' other grams are left out."""
        column = np.cumsum(present) - 1
        owners, grams = self._cells(rows)
        known = present[grams]
        incidence = np.zeros((len(rows), column[-1] + 1))
        incidence[owners[known], column[grams[known]]] = 1.0
        return incidence

    def block(self, rows, cols) -> np.ndarray:
        """Distances from each text in ``rows`` to each text in ``cols``, as a
        (len(rows), len(cols)) matrix over the grams of ``cols`` alone."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        present = self._grams_of(cols)
        inter = self._incidence(rows, present) @ self._incidence(cols, present).T
        return _jaccard(inter, self._sizes[rows][:, None], self._sizes[cols][None, :])


class FeatureSpace:
    """Feature vectors of a group's candidates against one reference set,
    both given as positions into the group's ``TextDistances``.

    The uniqueness attributes depend on the whole reference set, so vectors
    for candidates outside it (diversity-dropped ones) are computed against
    the same set and the same strlendist normalization.  The within-pair
    attributes are read from the table.
    """

    def __init__(self, distances: TextDistances, reference):
        reference = np.asarray(reference, dtype=np.intp)
        if not len(reference):
            raise ValueError("feature space needs a nonempty reference group")
        self.distances = distances
        self._size = len(reference)
        self._columns = [self._weighted_columns(distances.rows[side, reference]) for side in (0, 1)]
        wd = distances.wd[reference]
        self._wd_min, self._wd_span = wd.min(), np.ptp(wd)
        self.matrix = self.vectors(reference)

    @staticmethod
    def _weighted_columns(rows: np.ndarray) -> tuple:
        """The distinct rows in first-appearance order, and how often each occurs."""
        distinct, first, counts = np.unique(rows, return_index=True, return_counts=True)
        order = np.argsort(first)
        return distinct[order], counts[order].astype(float)

    def _uniqueness(self, rows: np.ndarray, side: int) -> np.ndarray:
        # mean distance to the reference outputs keeps the attribute in [0, 1];
        # cumsum adds left to right, so each mean rounds as a plain loop would
        cols, weights = self._columns[side]
        distinct, inverse = np.unique(rows, return_inverse=True)
        sums = np.empty(len(distinct))
        for top in range(0, len(distinct), TEXT_ROWS):
            weighted = self.distances.block(distinct[top:top + TEXT_ROWS], cols)
            weighted *= weights
            sums[top:top + TEXT_ROWS] = np.cumsum(weighted, axis=1)[:, -1]
        return (sums / self._size)[inverse]

    def vectors(self, positions) -> np.ndarray:
        """Feature vectors of the candidates at ``positions``, as the columns
        of a (4, len(positions)) matrix."""
        d, span = self.distances, self._wd_span
        wd = d.wd[positions]
        wd = np.clip((wd - self._wd_min) / span, 0.0, 1.0) if span else np.zeros(len(wd))
        return np.array([
            wd,
            d.pair[positions],
            self._uniqueness(d.rows[0, positions], 0),
            self._uniqueness(d.rows[1, positions], 1),
        ])

    def vector(self, position: int) -> np.ndarray:
        return self.vectors([position])[:, 0]


def diversity_subset(candidates: Sequence[BoundaryCandidate], rng: random.Random,
                     distances: TextDistances) -> tuple:
    """Select a diverse working set for clustering; returns (subset, dropped)
    as arrays of positions into ``candidates``, whose table is ``distances``.

    Groups within ``DIVERSITY_WINDOW`` candidates pass through untouched.
    Otherwise a random window of that size is scored by the sum of its
    feature attributes, the lowest ``DIVERSITY_BLOCK`` are dropped (ties
    kept in insertion order) and replaced with unseen candidates, until the
    unseen pool is exhausted.
    """
    n = len(candidates)
    if n <= DIVERSITY_WINDOW:
        return np.arange(n), np.arange(0)
    working = np.array(sorted(rng.sample(range(n), DIVERSITY_WINDOW)), dtype=np.intp)
    pool = np.setdiff1d(np.arange(n), working)
    dropped = []
    while len(pool):
        scores = FeatureSpace(distances, working).matrix.sum(axis=0)
        cut = np.sort(np.argsort(scores, kind="stable")[:DIVERSITY_BLOCK])
        dropped.append(working[cut])
        working = np.concatenate([np.delete(working, cut), pool[:DIVERSITY_BLOCK]])
        pool = pool[DIVERSITY_BLOCK:]
    return working, np.concatenate(dropped)


@dataclass
class ClusteringModel:
    k: int
    centroids: np.ndarray            # (k, 4)
    assignment: np.ndarray           # point -> cluster id
    silhouette: float
    reseeded: bool = False


def _squared_distances(matrix: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (k, n), from each centroid to each column
    of a (4, n) feature matrix.  The features are added one at a time, in the
    order numpy's length-4 ``sum(axis=...)`` adds them, so every entry keeps
    its bits."""
    diff = centroids.T[:, :, None] - matrix[:, None, :]
    diff *= diff
    sq = diff[0]
    for feature in diff[1:]:
        sq += feature
    return sq


def kmeans(matrix: np.ndarray, k: int, rng: random.Random,
           max_iter: int = KMEANS_MAX_ITER,
           distances: Optional[np.ndarray] = None,
           memo: Optional[dict] = None) -> ClusteringModel:
    """Lloyd's algorithm on the feature matrix columns, Euclidean metric.

    Initial centroids are k distinct random data points; an emptied cluster
    is reseeded with the point farthest from its assigned centroid among
    the clusters of two or more points.
    ``distances`` is the matrix's ``point_distances`` and ``memo`` the
    silhouette memo of restarts on one matrix; both are passed on to
    ``silhouette``.  Centroids are per-cluster bincount sums, which add each
    cluster's points in index order exactly as a masked mean does.

    After the first iteration each assignment is a function of the one
    before: the centroids are its bincount means and reseeding draws
    nothing.  So once an assignment repeats, the loop has entered a cycle
    (of period 1 when it converged), and the state that iteration
    ``max_iter - 1`` would reach is one already computed; it is returned
    without running the rest.  Every transition of the cycle has run, so
    ``reseeded`` is already what the full loop would give.
    """
    features, n = matrix.shape
    if not 2 <= k <= n:
        raise ValueError(f"k={k} must be between 2 and the number of points ({n})")
    centroids = matrix.T[rng.sample(range(n), k)]
    assignment = np.full(n, -1)
    everyone = np.arange(n)
    bins = k * np.arange(features)[:, None]   # feature f of cluster c -> bin f * k + c
    reseeded = False
    seen: dict = {}    # assignment bytes -> iteration that produced it
    states: list = []  # (assignment, centroids) after each iteration
    for iteration in range(max_iter):
        sq = _squared_distances(matrix, centroids)
        new_assignment = sq.argmin(axis=0)
        counts = np.bincount(new_assignment, minlength=k)
        # an emptied cluster steals the point farthest from its own centroid
        # in a cluster of two or more.  One pass leaves no cluster empty: with
        # n >= k, while a cluster is empty some cluster holds two points, and
        # a stolen point sits alone, so it is never a donor or stolen twice
        for cluster in np.flatnonzero(counts == 0):
            reseeded = True
            own_dist = sq[new_assignment, everyone]
            own_dist[counts[new_assignment] < 2] = -1.0
            farthest = int(own_dist.argmax())
            counts[new_assignment[farthest]] -= 1
            counts[cluster] = 1
            new_assignment[farthest] = cluster
        key = new_assignment.tobytes()
        if key in seen:
            start = seen[key]
            assignment, centroids = states[start + (max_iter - 1 - start) % (iteration - start)]
            break
        seen[key] = iteration
        assignment = new_assignment
        sums = np.bincount((assignment + bins).ravel(), weights=matrix.ravel(),
                           minlength=features * k)
        centroids = (sums.reshape(features, k) / counts).T
        states.append((assignment, centroids))
    return ClusteringModel(k, centroids, assignment,
                           silhouette(matrix, assignment, distances, memo), reseeded)


def point_distances(matrix: np.ndarray) -> np.ndarray:
    """Euclidean distances between all pairs of feature matrix columns, as
    one (n, n) array.  Each ``SILHOUETTE_ROWS`` rows are squared in place,
    a feature at a time through one scratch block, in the order of
    ``_squared_distances``, so every entry keeps its bits."""
    n = matrix.shape[1]
    sq = np.empty((n, n))
    scratch = np.empty((min(n, SILHOUETTE_ROWS), n))
    for top in range(0, n, SILHOUETTE_ROWS):
        rows = slice(top, top + SILHOUETTE_ROWS)
        out = sq[rows]
        diff = scratch[:len(out)]
        np.subtract(matrix[0, rows, None], matrix[0], out=out)
        out *= out
        for feature in matrix[1:]:
            np.subtract(feature[rows, None], feature, out=diff)
            diff *= diff
            out += diff
    return np.sqrt(sq, out=sq)


def silhouette(matrix: np.ndarray, assignment: np.ndarray,
               distances: Optional[np.ndarray] = None,
               memo: Optional[dict] = None) -> float:
    """Mean silhouette score over all points; singleton clusters contribute 0.

    ``distances`` defaults to ``point_distances(matrix)``.  The columns are
    grouped by label with one stable sort, so each cluster's members sit in
    a contiguous slice in ascending index order, and its row sum adds them
    in the same order as one point's masked row; the rows are gathered
    ``SILHOUETTE_ROWS`` at a time, so the sums read a block that is still
    in cache.  The per-point scores then add left to right.

    ``memo`` carries work across partitions of one matrix and
    ``distances``; ``summarize`` keeps one per share of a group's restarts
    (see ``_fit_restarts``), not one per group.  A cluster's key is its
    member indices, ascending, as bytes of the narrowest unsigned type
    that holds the point count (``np.min_scalar_type``: one byte per member
    below 256 points, two below 65536); it maps to each point's summed
    distance to those members.  A partition's key is the frozenset of its
    cluster keys; it maps to the partition's score, which does not depend
    on the labels, since ``b`` is a minimum.  A partition already scored
    returns at once, and only the clusters the memo lacks are gathered and
    summed, over the same slices, so every score keeps its bits.  The memo
    holds one float64 row of the matrix's width per distinct cluster: on
    the bench's seed-0 ``date`` EE group (950 points) that is 1.6, 2.5 and
    3.9 MiB at 100, 300 and 1000 restarts in one memo.  Each distinct
    partition's key holds its own copies of its cluster keys, which add
    up to that type's size per point.
    """
    labels, sizes = np.unique(assignment, return_counts=True)
    if len(labels) < 2:
        raise ValueError("silhouette needs at least two clusters")
    memo = {} if memo is None else memo
    order = np.argsort(assignment, kind="stable")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    narrow = order.astype(np.min_scalar_type(len(order)))
    keys = [narrow[start:end].tobytes() for start, end in zip(starts, ends)]
    partition = frozenset(keys)
    if partition in memo:
        return memo[partition]
    if distances is None:
        distances = point_distances(matrix)
    n = len(assignment)
    missing = [i for i, key in enumerate(keys) if key not in memo]
    if missing:
        members = np.concatenate([order[starts[i]:ends[i]] for i in missing])
        bounds = np.cumsum(sizes[missing])
        columns = [slice(end - size, end) for end, size in zip(bounds, sizes[missing])]
        fresh = np.empty((len(missing), n))
        block = np.empty((min(n, SILHOUETTE_ROWS), len(members)))
        for top in range(0, n, SILHOUETTE_ROWS):
            rows = slice(top, min(top + SILHOUETTE_ROWS, n))
            # mode="clip" lets take write into ``block`` without a temporary
            grouped = distances[rows].take(members, axis=1, out=block[:rows.stop - top],
                                           mode="clip")
            for cluster, cluster_columns in zip(fresh, columns):
                np.add.reduce(grouped[:, cluster_columns], axis=1, out=cluster[rows])
        for i, cluster in zip(missing, fresh):
            memo[keys[i]] = cluster
    sums = np.array([memo[key] for key in keys]).T
    own = np.searchsorted(labels, assignment)
    points = np.arange(n)
    own_size = sizes[own]
    a = sums[points, own] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[points, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    counted = (own_size > 1) & (denom > 0)   # singletons contribute 0
    scores[counted] = (b[counted] - a[counted]) / denom[counted]
    memo[partition] = score = float(np.cumsum(scores)[-1]) / n
    return score


def select_model(models: Sequence[ClusteringModel]) -> ClusteringModel:
    """Most clusters among the runs at or above the 95th percentile silhouette.

    Ties prefer the higher silhouette, then the earlier run.
    """
    if not models:
        raise ValueError("no clustering runs to select from")
    scores = [m.silhouette for m in models]
    cutoff = float(np.percentile(scores, 95))
    eligible = [(m.k, m.silhouette, -i, m) for i, m in enumerate(models)
                if m.silhouette >= cutoff]
    return max(eligible)[3]


def _candidate_brevity(c: BoundaryCandidate) -> tuple:
    fields = (display_tuple(c.input1), c.output1.text,
              display_tuple(c.input2), c.output2.text)
    return (sum(len(f) for f in fields), fields)


def _strategy_counts(members: Sequence[BoundaryCandidate], strategies: dict) -> dict:
    counts: dict = {}
    for member in members:
        for tag in strategies.get(member.key, ()):
            counts[tag] = counts.get(tag, 0) + 1
    return dict(sorted(counts.items()))


def _fit_share(matrix: np.ndarray, pairwise: np.ndarray, jobs: list) -> list:
    """The k-means models of one share's restarts, given as (k, seed) pairs,
    over one silhouette memo."""
    memo: dict = {}
    return [kmeans(matrix, k, random.Random(seed), distances=pairwise, memo=memo)
            for k, seed in jobs]


def _share_worker(send, name: str, matrix: np.ndarray, pairwise: np.ndarray,
                  jobs: list) -> None:
    """A forked process's share: its models, or why it has none and the
    traceback, down the pipe ``send``.  An interrupt is left to the parent,
    which ends its workers itself."""
    import signal
    import traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        send.send((True, _fit_share(matrix, pairwise, jobs)))
    except Exception as exc:
        send.send((False, f"{name} failed in process {os.getpid()}: "
                          f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))


def _fit_restarts(matrix: np.ndarray, pairwise: np.ndarray, ks: list, seeds: list) -> list:
    """The k-means model of each restart, in restart order; restart ``i``
    runs at ``k = ks[i % len(ks)]`` from ``seeds[i]``.

    The restarts are split by k into up to ``usable_cpus()`` shares, each
    with its own silhouette memo, so every partition of one k is met in
    one share.  A restart at k costs about k + 1 units, so a k costs that
    times its restart count; whole ks go, costliest first (the earlier in
    ``ks`` on a tie), to the least-loaded share (the first on a tie).  The
    parent forks one process for each share but the last and runs that one
    itself; a worker sends its models back through a pipe, and a worker
    that fails makes this raise.
    Every worker is ended and reaped before this returns or raises.
    Restart work (restarts times points) below ``SPLIT_MIN_WORK``, one
    usable CPU, or a platform other than Linux (where forking a process
    that loaded numpy is safe) runs every restart in this process.
    """
    jobs = [(ks[i % len(ks)], seed) for i, seed in enumerate(seeds)]
    count = min(usable_cpus(), len(ks), len(seeds))
    if count == 1 or len(jobs) * matrix.shape[1] < SPLIT_MIN_WORK or sys.platform != "linux":
        return _fit_share(matrix, pairwise, jobs)
    positions = range(min(len(ks), len(jobs)))
    costs = [(ks[p] + 1) * len(range(p, len(jobs), len(ks))) for p in positions]
    loads, owned = [0] * count, [[] for _ in range(count)]
    for p in sorted(positions, key=lambda p: -costs[p]):
        j = loads.index(min(loads))
        loads[j] += costs[p]
        owned[j].append(p)
    shares = [[i for i in range(len(jobs)) if i % len(ks) in own] for own in owned]
    names = [f"k-means share {j} of {count} (k = {', '.join(str(ks[p]) for p in sorted(own))})"
             for j, own in enumerate(owned)]
    from multiprocessing import get_context
    context = get_context("fork")
    workers = []
    try:
        for share, name in zip(shares[:-1], names):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_share_worker, name=name, args=(
                send, name, matrix, pairwise, [jobs[i] for i in share]))
            process.start()
            workers.append((process, receive))
            send.close()
        own = _fit_share(matrix, pairwise, [jobs[i] for i in shares[-1]])
        results = []
        for (process, receive), name in zip(workers, names):
            try:
                ok, result = receive.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"{name} ended with exit code {process.exitcode} "
                                   "before sending its models") from None
            if not ok:
                raise RuntimeError(result)
            results.append(result)
        results.append(own)
    finally:
        for process, receive in workers:
            receive.close()
            if process.exitcode is None:
                process.terminate()
            process.join()
    models = [None] * len(jobs)
    for share, result in zip(shares, results):
        for i, model in zip(share, result):
            models[i] = model
    return models


def _cluster(group: Sequence[BoundaryCandidate], rng: random.Random,
             restarts: int) -> tuple:
    """(member lists, silhouette) of a group of three or more candidates.

    Every restart's seed is drawn before the first runs, so ``rng``
    advances as it would for restarts run one after another, and the
    report does not depend on how many CPUs run them (see
    ``_fit_restarts``).  Everything built here, from the group's feature
    table to its memos and pairwise distances, is freed on return, before
    the next group starts.
    """
    distances = TextDistances(group)
    subset, dropped = diversity_subset(group, rng, distances)
    space = FeatureSpace(distances, subset)
    pairwise = point_distances(space.matrix)
    ks = list(range(2, min(K_MAX, len(subset)) + 1))
    seeds = [rng.getrandbits(64) for _ in range(restarts)]
    best = select_model(_fit_restarts(space.matrix, pairwise, ks, seeds))
    nearest = _squared_distances(space.vectors(dropped), best.centroids).argmin(axis=0)
    member_lists = [[] for _ in range(best.k)]
    for position, cluster in zip(np.concatenate([subset, dropped]),
                                 np.concatenate([best.assignment, nearest])):
        member_lists[cluster].append(group[position])
    return member_lists, best.silhouette


def summarize(archive: Archive, rng: random.Random,
              restarts: int = KMEANS_RESTARTS) -> dict:
    """Cluster an archive per validity group and return the report.json
    document: ``total_candidates`` and, per group, its ``validity``,
    ``size``, ``silhouette`` (None for a group clustered trivially) and
    ``clusters``, largest first.  A cluster holds its ``id``, ``size``,
    ``strategy_counts``, ``representative`` (its shortest member's keys and
    output texts) and ``members``, each a candidate's key as a list.

    Groups with fewer than three candidates become a single cluster; larger
    groups go through diversity subsetting, `restarts` k-means runs cycling
    k over 2..min(K_MAX, subset size), silhouette model selection, and
    nearest-centroid attachment of the diversity-dropped candidates.
    A group's restarts run in shares split by k, one share per usable CPU
    (``taskset`` limits them; see ``_fit_restarts``), and the report does
    not depend on how many there are.  The restarts of one share share one
    silhouette memo (see ``silhouette``), so each distinct partition of the
    subset is scored once and each distinct cluster among a share's
    partitions is summed once in that share; the memos live only while
    that group is clustered.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    groups = []
    for validity in ("VV", "VE", "EE"):
        group = [c for c in archive if c.validity == validity]
        if not group:
            continue
        if len(group) < 3:
            member_lists, score = [group], None
        else:
            member_lists, score = _cluster(group, rng, restarts)
        picked = sorted(((ms, min(ms, key=_candidate_brevity)) for ms in member_lists if ms),
                        key=lambda pair: (-len(pair[0]), pair[1].key))
        groups.append({"validity": validity, "size": len(group), "silhouette": score,
                       "clusters": [{
                           "id": i,
                           "size": len(members),
                           "strategy_counts": _strategy_counts(members, archive.strategies),
                           "representative": {"input1": rep.key[0], "output1": rep.output1.text,
                                              "input2": rep.key[1], "output2": rep.output2.text},
                           "members": [list(m.key) for m in members],
                       } for i, (members, rep) in enumerate(picked, 1)]})
    return {"total_candidates": sum(g["size"] for g in groups), "groups": groups}
