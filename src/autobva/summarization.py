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
from contextlib import contextmanager, nullcontext
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


def diversity_subset(candidates: Sequence[BoundaryCandidate], window: Optional[Sequence[int]],
                     distances: TextDistances) -> tuple:
    """Select a diverse working set for clustering; returns (subset, dropped)
    as arrays of positions into ``candidates``, whose table is ``distances``.

    Groups within ``DIVERSITY_WINDOW`` candidates pass through untouched,
    and ``window`` is not read.  Otherwise ``window`` holds the ascending
    positions of the first working set, ``DIVERSITY_WINDOW`` of them drawn
    at random (``summarize`` draws them before any group runs).  The working
    set is scored by the sum of its feature attributes, the lowest
    ``DIVERSITY_BLOCK`` are dropped (ties kept in insertion order) and
    replaced with unseen candidates, until the unseen pool is exhausted.
    """
    n = len(candidates)
    if n <= DIVERSITY_WINDOW:
        return np.arange(n), np.arange(0)
    working = np.array(window, dtype=np.intp)
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


def _worker(send, name: str, fn, args: tuple) -> None:
    """A forked process's job: ``fn(*args)``, or why it has none and the
    traceback, down the pipe ``send``.  An interrupt is left to the parent,
    which ends its workers itself."""
    import signal
    import traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        send.send((True, fn(*args)))
    except Exception as exc:
        send.send((False, f"{name} failed in process {os.getpid()}: "
                          f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))


def _run_forked(jobs: list, here, sends: str) -> list:
    """``fn(*args)`` of each ``(name, fn, args)`` in ``jobs``, each in a
    process forked from this one, then ``here()``, run in this process
    meanwhile: the results in that order.

    A worker sends its result back through a pipe.  A worker that fails,
    or ends before sending its result (its ``sends``), makes this raise
    ``RuntimeError`` naming it; a failure carries the worker's traceback.
    Every worker is ended and reaped before this returns or raises.
    ``multiprocessing`` is imported only when there is a job to fork.
    """
    if not jobs:
        return [here()]
    from multiprocessing import get_context
    context = get_context("fork")
    workers = []
    try:
        for name, fn, args in jobs:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_worker, name=name, args=(send, name, fn, args))
            process.start()
            workers.append((process, receive))
            send.close()
        own = here()
        results = []
        for (process, receive), (name, _, _) in zip(workers, jobs):
            try:
                ok, result = receive.recv()
            except EOFError:
                process.join()
                raise RuntimeError(f"{name} ended with exit code {process.exitcode} "
                                   f"before sending its {sends}") from None
            if not ok:
                raise RuntimeError(result)
            results.append(result)
    finally:
        for process, receive in workers:
            receive.close()
            if process.exitcode is None:
                process.terminate()
            process.join()
    return results + [own]


def _fit_restarts(matrix: np.ndarray, pairwise: np.ndarray, ks: list, seeds: list,
                  cpus: Optional[int] = None) -> list:
    """The k-means model of each restart, in restart order; restart ``i``
    runs at ``k = ks[i % len(ks)]`` from ``seeds[i]``.

    The restarts are split by k into up to ``cpus`` shares (by default
    ``usable_cpus()``), each with its own silhouette memo, so every
    partition of one k is met in one share.  A restart at k costs about
    k + 1 units, so a k costs that times its restart count; whole ks go,
    costliest first (the earlier in ``ks`` on a tie), to the least-loaded
    share (the first on a tie).  Every share but the last runs in a forked
    process (see ``_run_forked``), and this process runs the last.
    With one CPU (a group worker gets one, see ``summarize``), with
    restart work (restarts times points) below ``SPLIT_MIN_WORK``, or on a
    platform other than Linux (where forking a process that loaded numpy
    is safe), every restart runs in this process.
    """
    jobs = [(ks[i % len(ks)], seed) for i, seed in enumerate(seeds)]
    count = min(usable_cpus() if cpus is None else cpus, len(ks), len(seeds))
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
    forked = [(f"k-means share {j} of {count} (k = {', '.join(str(ks[p]) for p in sorted(own))})",
               _fit_share, (matrix, pairwise, [jobs[i] for i in share]))
              for j, (own, share) in enumerate(zip(owned, shares[:-1]))]
    last = [jobs[i] for i in shares[-1]]
    results = _run_forked(forked, lambda: _fit_share(matrix, pairwise, last), "models")
    models = [None] * len(jobs)
    for share, result in zip(shares, results):
        for i, model in zip(share, result):
            models[i] = model
    return models


def _cluster(group: Sequence[BoundaryCandidate], window: Optional[list], seeds: list,
             cpus: int) -> tuple:
    """(member lists, silhouette) of a group of three or more candidates,
    from its diversity ``window`` (see ``diversity_subset``) and restart
    ``seeds``, both drawn by ``summarize`` before any group runs.

    The result depends only on the group and those draws, so it is the
    same in whichever process runs it, and the report does not depend on
    how many CPUs run the restarts (``cpus``, see ``_fit_restarts``).
    Everything built here, from the group's feature table to its memos and
    pairwise distances, is freed on return, before this process clusters
    another group.
    """
    distances = TextDistances(group)
    subset, dropped = diversity_subset(group, window, distances)
    space = FeatureSpace(distances, subset)
    pairwise = point_distances(space.matrix)
    ks = list(range(2, min(K_MAX, len(subset)) + 1))
    best = select_model(_fit_restarts(space.matrix, pairwise, ks, seeds, cpus))
    nearest = _squared_distances(space.vectors(dropped), best.centroids).argmin(axis=0)
    member_lists = [[] for _ in range(best.k)]
    for position, cluster in zip(np.concatenate([subset, dropped]),
                                 np.concatenate([best.assignment, nearest])):
        member_lists[cluster].append(group[position])
    return member_lists, best.silhouette


def _draws(group: Sequence[BoundaryCandidate], rng: random.Random, restarts: int):
    """(diversity window, restart seeds) of a group, drawn with the calls
    and in the order that clustering it would draw them: the window's
    positions for a group over ``DIVERSITY_WINDOW`` (None otherwise), then
    one 64-bit seed per restart.  A group under three candidates draws
    nothing and gets None."""
    n = len(group)
    if n < 3:
        return None
    window = sorted(rng.sample(range(n), DIVERSITY_WINDOW)) if n > DIVERSITY_WINDOW else None
    return window, [rng.getrandbits(64) for _ in range(restarts)]


def _group_entry(validity: str, group: Sequence[BoundaryCandidate], draws, strategies: dict,
                 cpus: int) -> dict:
    """The report.json entry of one validity group, from its ``_draws``,
    with its restarts split over up to ``cpus`` processes."""
    if draws is None:
        member_lists, score = [group], None
    else:
        member_lists, score = _cluster(group, *draws, cpus)
    picked = sorted(((ms, min(ms, key=_candidate_brevity)) for ms in member_lists if ms),
                    key=lambda pair: (-len(pair[0]), pair[1].key))
    return {"validity": validity, "size": len(group), "silhouette": score,
            "clusters": [{
                "id": i,
                "size": len(members),
                "strategy_counts": _strategy_counts(members, strategies),
                "representative": {"input1": rep.key[0], "output1": rep.output1.text,
                                   "input2": rep.key[1], "output2": rep.output2.text},
                "members": [list(m.key) for m in members],
            } for i, (members, rep) in enumerate(picked, 1)]}


def _openblas() -> list:
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process, found through ``/proc/self/maps``: numpy's wheel exports
    ``scipy_openblas_*_num_threads64_``, a system OpenBLAS
    ``openblas_*_num_threads``.  Empty where there is none (or no
    ``/proc``)."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = {fields[5] for fields in (line.rstrip("\n").split(None, 5) for line in maps)
                     if len(fields) == 6 and "openblas" in fields[5].lower()}
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS of this process (see ``_openblas``)
    at one thread, and restore each one's count when it ends or raises.

    ``TextDistances.block``'s products count shared grams of 0/1 matrices,
    exact integers in float64, so no entry depends on the thread count;
    a second BLAS thread only spins on a core that a group worker or a
    restart share uses."""
    libraries = _openblas()
    counts = [get() for get, _ in libraries]
    for _, set_ in libraries:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libraries, counts):
            set_(count)


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
    Every group's random choices (its diversity window and restart seeds,
    see ``_draws``) are drawn first, in the order that clustering the
    groups one after another would draw them, so ``rng`` ends where that
    loop leaves it and each group's clustering depends only on the group
    and its draws.  A group is heavy when its restart work (restarts
    times its subset's size before the diversity rounds, ``min(size,
    DIVERSITY_WINDOW)``) reaches ``SPLIT_MIN_WORK``.  On Linux, the
    largest heavy group stays in this process and the next largest, up to
    one fewer than the usable CPUs (``taskset`` limits them), are each
    clustered in a forked worker, which sends back its report entry.  The
    other groups run in this process too, and only this process splits a
    group's restarts into shares, one per usable CPU (see
    ``_fit_restarts``): a worker's group is no larger than the one this
    process keeps, so the shares get its core back when it is done.  The
    report does not depend on how many CPUs there are.  The restarts of
    one share share one silhouette memo (see ``silhouette``), so each
    distinct partition of the subset is scored once and each distinct
    cluster among a share's partitions is summed once in that share; the
    memos live only while that group is clustered.  While a group worker
    runs, numpy's OpenBLAS runs one thread (see ``_one_blas_thread``);
    without one it keeps its own count.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    groups = []
    for validity in ("VV", "VE", "EE"):
        group = [c for c in archive if c.validity == validity]
        if group:
            groups.append((validity, group, _draws(group, rng, restarts)))
    heavy = sorted((i for i, (_, group, draws) in enumerate(groups) if draws is not None and
                    restarts * min(len(group), DIVERSITY_WINDOW) >= SPLIT_MIN_WORK),
                   key=lambda i: -len(groups[i][1]))
    cpus = usable_cpus()
    forked = sorted(heavy[1:cpus]) if sys.platform == "linux" else []
    here = [i for i in range(len(groups)) if i not in forked]
    with _one_blas_thread() if forked else nullcontext():
        results = _run_forked(
            [(f"validity group {groups[i][0]}", _group_entry,
              (*groups[i], archive.strategies, 1)) for i in forked],
            lambda: [_group_entry(*groups[i], archive.strategies, cpus) for i in here],
            "report entry")
    by_index = dict(zip(forked + here, results[:-1] + results[-1]))
    entries = [by_index[i] for i in range(len(groups))]
    return {"total_candidates": sum(g["size"] for g in entries), "groups": entries}
