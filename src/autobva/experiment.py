"""Small-scale experiment harness: repeated seeded runs per strategy with
found/unique statistics and cluster coverage against a merged summary,
written as experiment.md and experiment.json."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from typing import Sequence

from .detection import STRATEGIES, Archive, DetectionConfig, detect
from .summarization import KMEANS_RESTARTS, summarize
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


def experiment_markdown(document: dict) -> str:
    """The experiment.md tables, drawn from the experiment.json document."""
    strategies = document["strategies"].items()
    return "\n".join([
        f"# Experiment: {document['sut']}", "",
        f"{document['repetitions']} repetitions per strategy, budget {document['budget']}",
        *_table("Candidates", "Total", document["union_total"], "found",
                [(name, s["found"], s["unique"]) for name, s in strategies]),
        *_table("Cluster coverage", "Total clusters", document["total_clusters"], "covered",
                [(name, list(map(len, s["covered"])), len(s["unique_clusters"]))
                 for name, s in strategies]),
        ""])


def write_experiment(out, document: dict) -> None:
    """experiment.md and experiment.json in the directory ``out``, a Path."""
    (out / "experiment.md").write_text(experiment_markdown(document), encoding="utf-8")
    (out / "experiment.json").write_text(json.dumps(document, indent=1), encoding="utf-8")


def run_experiment(sut: SutDescriptor, base_config: DetectionConfig,
                   strategies: Sequence[str] = STRATEGIES,
                   repetitions: int = 3,
                   summarize_restarts: int = KMEANS_RESTARTS) -> tuple:
    """Run repetitions x strategies with distinct seeds; return the
    experiment.json document and the report.json document of every run's
    candidates, merged.

    Every run gets its own seed: the base config's sampler seed plus the
    run's index across the grid.  Coverage is measured against the summary
    of the union of all runs, clustered with a generator seeded the same.
    In the document, "unique" counts the candidates, and "unique_clusters"
    lists the clusters, no other strategy found.  Each merged candidate
    falls in one validity group of the summary, so "union_total" is its
    candidate count.  Strategy names (each named once), repetitions and
    summarize_restarts (each at least one) are checked before the first run.
    """
    configs = [replace(base_config, strategy=strategy) for strategy in strategies]
    if len(set(strategies)) < len(strategies):
        raise ValueError(f"each strategy must be named once, got {list(strategies)}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if summarize_restarts < 1:
        raise ValueError(f"summarize_restarts must be at least 1, got {summarize_restarts}")
    merged = Archive()
    keys = {}                 # strategy -> per-run candidate key sets, in run order
    base_seed = seed = base_config.sampler.seed
    for strategy_config in configs:
        runs = keys[strategy_config.strategy] = []
        for _ in range(repetitions):
            sampler = base_config.sampler.with_settings({"seed": seed})
            seed += 1
            result = detect(sut, replace(strategy_config, sampler=sampler))
            runs.append({c.key for c in result.archive})
            merged.merge(result.archive)

    report = summarize(merged, random.Random(base_seed), restarts=summarize_restarts)
    cluster_ids = {tuple(member): (g["validity"], c["id"])
                   for g in report["groups"] for c in g["clusters"] for member in c["members"]}
    covered = {name: [{cluster_ids[k] for k in run if k in cluster_ids} for run in runs]
               for name, runs in keys.items()}
    unique_keys, unique_clusters = _exclusive(keys), _exclusive(covered)
    document = {
        "sut": sut.name, "repetitions": repetitions, "budget": base_config.budget,
        "union_total": report["total_candidates"],
        "total_clusters": sum(len(g["clusters"]) for g in report["groups"]),
        "strategies": {
            name: {
                "found": [len(run) for run in runs],
                "unique": len(unique_keys[name]),
                "covered": [sorted(map(list, c)) for c in covered[name]],
                "unique_clusters": sorted(map(list, unique_clusters[name])),
            } for name, runs in keys.items()
        },
    }
    return document, report
