"""Small-scale experiment harness: repeated seeded runs per strategy with
found/unique statistics and cluster coverage against a merged summary."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from .detection import Archive, DetectionConfig, detect
from .summarization import ClusterReport, summarize
from .suts import SutDescriptor


def _mean_std(xs: Sequence[float]) -> tuple:
    # population sigma: a single repetition reports 0
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    return mean, var ** 0.5


@dataclass
class StrategyStats:
    strategy: str
    found: list = field(default_factory=list)          # per-run candidate counts
    keys: list = field(default_factory=list)           # per-run key sets
    covered: list = field(default_factory=list)        # per-run cluster-id sets

    @property
    def all_keys(self) -> set:
        return set().union(*self.keys) if self.keys else set()

    @property
    def all_covered(self) -> set:
        return set().union(*self.covered) if self.covered else set()


@dataclass
class ExperimentResult:
    sut: str
    repetitions: int
    budget: dict
    stats: list                       # per strategy, in run order
    union_total: int
    unique_counts: dict               # strategy -> candidates no other strategy found
    report: ClusterReport
    unique_clusters: dict             # strategy -> clusters no other strategy covered
    total_clusters: int

    def to_markdown(self) -> str:
        lines = [f"# Experiment: {self.sut}",
                 "",
                 f"{self.repetitions} repetitions per strategy, budget {self.budget}",
                 "",
                 "## Candidates",
                 "",
                 "| Strategy | Total | # found (mu +/- sigma) | # unique |",
                 "|---|---|---|---|"]
        for s in self.stats:
            mu, sigma = _mean_std(s.found)
            lines.append(f"| {s.strategy} | {self.union_total} | {mu:.1f} +/- {sigma:.1f} "
                         f"| {self.unique_counts[s.strategy]} |")
        lines += ["",
                  "## Cluster coverage",
                  "",
                  "| Strategy | Total clusters | # covered (mu +/- sigma) | # unique |",
                  "|---|---|---|---|"]
        for s in self.stats:
            mu, sigma = _mean_std([len(c) for c in s.covered])
            lines.append(f"| {s.strategy} | {self.total_clusters} | {mu:.1f} +/- {sigma:.1f} "
                         f"| {len(self.unique_clusters[s.strategy])} |")
        lines.append("")
        return "\n".join(lines)


def run_experiment(sut: SutDescriptor, base_config: DetectionConfig,
                   strategies: Sequence[str] = ("lns", "bcs"),
                   repetitions: int = 3,
                   summarize_restarts: int = 100) -> ExperimentResult:
    """Run repetitions x strategies with distinct seeds and aggregate.

    Every run gets its own seed: the base config's sampler seed plus the
    run's index across the grid.  Coverage is measured against the summary
    of the union of all runs, clustered with a generator seeded the same.
    """
    merged = Archive(base_config.threshold)
    stats = []
    base_seed = seed = base_config.sampler.seed
    for strategy in strategies:
        s = StrategyStats(strategy)
        for _ in range(repetitions):
            sampler = replace(base_config.sampler, seed=seed)
            config = replace(base_config, strategy=strategy, sampler=sampler)
            seed += 1
            result = detect(sut, config)
            s.found.append(len(result.archive))
            s.keys.append({c.key for c in result.archive})
            merged.merge(result.archive)
        stats.append(s)

    union_total = len(merged)
    unique_counts = {}
    for s in stats:
        others = set().union(*(o.all_keys for o in stats if o is not s)) if len(stats) > 1 else set()
        unique_counts[s.strategy] = len(s.all_keys - others)

    report = summarize(merged, random.Random(base_seed), restarts=summarize_restarts)
    cluster_ids = report.cluster_of()
    total_clusters = sum(len(g.clusters) for g in report.groups)
    for s in stats:
        s.covered = [{cluster_ids[k] for k in keys if k in cluster_ids} for keys in s.keys]
    unique_clusters = {}
    for s in stats:
        others = set().union(*(o.all_covered for o in stats if o is not s)) if len(stats) > 1 else set()
        unique_clusters[s.strategy] = s.all_covered - others

    return ExperimentResult(
        sut=sut.name, repetitions=repetitions, budget=base_config.budget,
        stats=stats, union_total=union_total, unique_counts=unique_counts,
        report=report, unique_clusters=unique_clusters, total_clusters=total_clusters,
    )
