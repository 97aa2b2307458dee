"""Small-scale experiment harness: repeated seeded runs per strategy with
found/unique statistics and cluster coverage against a merged summary,
written as experiment.md and experiment.json."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .detection import STRATEGIES, Archive, DetectionConfig, detect
from .summarization import KMEANS_RESTARTS, ClusterReport, summarize
from .suts import SutDescriptor


def _mean_std(xs: Sequence[float]) -> tuple:
    # population sigma: a single repetition reports 0
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    return mean, var ** 0.5


def _exclusive(per_strategy: dict) -> dict:
    """strategy -> the members of its runs' sets that no other strategy's
    runs hold, from strategy -> per-run sets."""
    unions = {name: set().union(*runs) for name, runs in per_strategy.items()}
    holders = Counter(member for union in unions.values() for member in union)
    return {name: {m for m in union if holders[m] == 1} for name, union in unions.items()}


def _table(title: str, total_head: str, total: int, counted: str, rows: list) -> list:
    """The lines of one experiment.md table, from (strategy, per-run counts,
    unique count) rows."""
    lines = ["", f"## {title}", "",
             f"| Strategy | {total_head} | # {counted} (mu +/- sigma) | # unique |",
             "|---|---|---|---|"]
    for name, per_run, unique in rows:
        mu, sigma = _mean_std(per_run)
        lines.append(f"| {name} | {total} | {mu:.1f} +/- {sigma:.1f} | {unique} |")
    return lines


@dataclass
class ExperimentResult:
    sut: str
    repetitions: int
    budget: dict
    keys: dict                        # strategy -> per-run candidate key sets, in run order
    covered: dict                     # strategy -> per-run sets of (validity, cluster id)
    report: ClusterReport             # the summary of every run's candidates, merged

    def to_json(self) -> dict:
        """The experiment.json document; "unique" counts the candidates, and
        "unique_clusters" lists the clusters, no other strategy found.  Each
        merged candidate falls in one validity group of the report, so
        "union_total" is the report's candidate count."""
        unique_keys, unique_clusters = _exclusive(self.keys), _exclusive(self.covered)
        return {
            "sut": self.sut, "repetitions": self.repetitions, "budget": self.budget,
            "union_total": self.report.total_candidates,
            "total_clusters": sum(len(g.clusters) for g in self.report.groups),
            "strategies": {
                name: {
                    "found": [len(keys) for keys in runs],
                    "unique": len(unique_keys[name]),
                    "covered": [sorted(map(list, c)) for c in self.covered[name]],
                    "unique_clusters": sorted(map(list, unique_clusters[name])),
                } for name, runs in self.keys.items()
            },
        }

    def to_markdown(self) -> str:
        """The experiment.md tables, drawn from the experiment.json document."""
        doc = self.to_json()
        strategies = doc["strategies"].items()
        return "\n".join([
            f"# Experiment: {self.sut}", "",
            f"{self.repetitions} repetitions per strategy, budget {self.budget}",
            *_table("Candidates", "Total", doc["union_total"], "found",
                    [(name, s["found"], s["unique"]) for name, s in strategies]),
            *_table("Cluster coverage", "Total clusters", doc["total_clusters"], "covered",
                    [(name, list(map(len, s["covered"])), len(s["unique_clusters"]))
                     for name, s in strategies]),
            ""])


def write_experiment(out, result: ExperimentResult) -> None:
    """experiment.md and experiment.json in the directory ``out``, a Path."""
    (out / "experiment.md").write_text(result.to_markdown(), encoding="utf-8")
    (out / "experiment.json").write_text(json.dumps(result.to_json(), indent=1), encoding="utf-8")


def run_experiment(sut: SutDescriptor, base_config: DetectionConfig,
                   strategies: Sequence[str] = STRATEGIES,
                   repetitions: int = 3,
                   summarize_restarts: int = KMEANS_RESTARTS) -> ExperimentResult:
    """Run repetitions x strategies with distinct seeds and aggregate.

    Every run gets its own seed: the base config's sampler seed plus the
    run's index across the grid.  Coverage is measured against the summary
    of the union of all runs, clustered with a generator seeded the same.
    Strategy names (each named once) and repetitions (at least one) are
    checked before the first run.
    """
    configs = [replace(base_config, strategy=strategy) for strategy in strategies]
    if len(set(strategies)) < len(strategies):
        raise ValueError(f"each strategy must be named once, got {list(strategies)}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    merged = Archive()
    keys = {}
    base_seed = seed = base_config.sampler.seed
    for strategy_config in configs:
        runs = keys[strategy_config.strategy] = []
        for _ in range(repetitions):
            config = replace(strategy_config, sampler=replace(base_config.sampler, seed=seed))
            seed += 1
            result = detect(sut, config)
            runs.append({c.key for c in result.archive})
            merged.merge(result.archive)

    report = summarize(merged, random.Random(base_seed), restarts=summarize_restarts)
    cluster_ids = report.cluster_of()
    covered = {name: [{cluster_ids[k] for k in run if k in cluster_ids} for run in runs]
               for name, runs in keys.items()}
    return ExperimentResult(
        sut=sut.name, repetitions=repetitions, budget=base_config.budget, keys=keys,
        covered=covered, report=report)
