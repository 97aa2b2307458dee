"""Command-line interface.

Subcommands: detect (run one search), summarize (cluster archives into a
report), rank (re-score and sort candidates), oracle (exhaustive adjacent
scan), experiment (repeated seeded runs with statistics).

Exit codes: 0 success, 1 usage error, 2 data error.  The AUTOBVA_SEED
environment variable overrides any --seed flag and config-file seed.  Every
file format is read and written by ``archive_io`` or ``experiment``.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .archive_io import (
    DataError,
    load_archives,
    read_cluster_labels,
    read_sampler_config,
    run_manifest,
    write_archive_csv,
    write_archive_json,
    write_manifest,
    write_ranked_csv,
    write_report_json,
    write_report_markdown,
)
from .detection import STRATEGIES, Archive, DetectionConfig, detect, usable_cpus
from .distances import parse_distance, pdq
from .oracle import scan_adjacent
from .sampling import SamplerConfig
from .suts import get_sut
from .values import parse_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Default concurrent runs of an external SUT per usable CPU: each run is a
# process, and the parent's share of a spawn overlaps the children's work.
JOBS_PER_CPU = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise ValueError(message)


def _effective_seed(value: int) -> int:
    env = os.environ.get("AUTOBVA_SEED")
    if not env:
        return value
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"AUTOBVA_SEED from the environment must be an integer, "
                         f"got {env!r}") from None


def _detection_config(args) -> DetectionConfig:
    """The search flags; the sampler takes its flags, then the --config
    file's settings over them, then AUTOBVA_SEED over the seed."""
    sampler = SamplerConfig(method=args.sampling, cts=args.cts == "on",
                            big_int_bit_cap=args.big_int_bit_cap, seed=args.seed)
    if args.config:
        sampler = read_sampler_config(args.config, sampler)
    return DetectionConfig(
        budget=args.budget,
        strategy=args.strategy,
        threshold=args.threshold,
        output_distance=parse_distance(args.distance),
        sampler=replace(sampler, seed=_effective_seed(sampler.seed)),
    )


def _int_at_least(least: int, text: str) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return value


def _non_negative_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"must be an exact rational, e.g. 0 or 1/2, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _value_tuple(text: str) -> tuple:
    values = []
    for part in text.split(","):
        try:
            values.append(parse_value(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} in {text!r} is not an integer, true or false") from None
    return tuple(values)


class _Budget(argparse.Action):
    """Stores ``--KIND AMOUNT`` as the budget ``{KIND: AMOUNT}``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, {self.option_strings[0][2:]: values})


def _add_sut_flags(p):
    p.add_argument("--sut", required=True,
                   help="bytecount | bmi | bmi-class | date | external:<cmd>")
    p.add_argument("--arity", type=_positive_int, default=1, help="arity of an external SUT")
    p.add_argument("--timeout", type=_positive_float, default=5.0, help="external SUT timeout (s)")


def _add_restarts_flag(p):
    # summarization.KMEANS_RESTARTS, which cannot be imported here without numpy
    p.add_argument("--restarts", type=_positive_int, default=100, help="k-means restarts")


def _add_detect_flags(p):
    _add_sut_flags(p)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--seconds", dest="budget", metavar="SECONDS", action=_Budget,
                        type=_positive_float)
    budget.add_argument("--iterations", dest="budget", metavar="ITERATIONS", action=_Budget,
                        type=_non_negative_int)
    budget.add_argument("--executions", dest="budget", metavar="EXECUTIONS", action=_Budget,
                        type=_non_negative_int,
                        help="stop drawing samples once the searches have made this "
                             "many SUT executions")
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--sampling", choices=["uniform", "bituniform"], default=SamplerConfig.method)
    p.add_argument("--cts", choices=["on", "off"], default="on" if SamplerConfig.cts else "off")
    p.add_argument("--big-int-bit-cap", type=int, default=SamplerConfig.big_int_bit_cap)
    p.add_argument("--distance", default=DetectionConfig.output_distance.name,
                   help="strlen | jaccard1 | jaccard2 | levenshtein")
    p.add_argument("--threshold", type=_non_negative_rational, default=DetectionConfig.threshold,
                   help="exact rational ≥ 0, e.g. 0 or 1/2; write a value starting with '-' "
                        "as --threshold=VALUE")
    p.add_argument("--jobs", type=_positive_int, default=JOBS_PER_CPU * usable_cpus(),
                   help=f"runs of an external SUT at once (default: {JOBS_PER_CPU} per "
                        "usable CPU; 1 runs one at a time)")
    p.add_argument("--config", default=None, help="JSON file with sampling.* / seed keys")
    p.add_argument("--out", default=".", help="output directory")


def cmd_detect(args) -> int:
    sut = get_sut(args.sut, arity=args.arity, timeout=args.timeout, concurrency=args.jobs)
    config = _detection_config(args)
    result = detect(sut, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest(sut.name, config, result)
    write_archive_csv(out / "archive.csv", result.archive)
    write_archive_json(out / "archive.json", result.archive, manifest)
    write_manifest(out / "manifest.json", manifest)
    print(f"{sut.name} {config.strategy}: {len(result.archive)} candidates, "
          f"{result.executions} executions, {result.samples} samples, "
          f"{result.elapsed:.2f}s -> {out}")
    return EXIT_OK


def summarize(archive, rng, restarts):
    """``summarization.summarize``, imported on first call: clustering loads
    numpy, which the other commands never use."""
    from .summarization import summarize
    return summarize(archive, rng, restarts=restarts)


def cmd_summarize(args) -> int:
    archive = load_archives(args.archives)
    rng = random.Random(_effective_seed(args.seed))
    report = summarize(archive, rng, restarts=args.restarts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_markdown(out / "report.md", report)
    write_report_json(out / "report.json", report)
    clusters = sum(len(g.clusters) for g in report.groups)
    print(f"{report.total_candidates} candidates -> {clusters} clusters "
          f"in {len(report.groups)} validity groups -> {out}")
    return EXIT_OK


def cmd_rank(args) -> int:
    archive = load_archives(args.archives)
    distance = parse_distance(args.distance)
    labels = read_cluster_labels(args.report) if args.report else {}
    if args.report and len(archive) and not any(c.key in labels for c in archive):
        raise DataError(f"labels none of the {len(archive)} ranked candidates", args.report)
    scored = sorted(((pdq(c.input1, c.input2, distance(c.output1.text, c.output2.text)), c)
                     for c in archive), key=lambda sc: (-sc[0], sc[1].key))
    ranked = []
    per_cluster = Counter()    # without a report every candidate is in cluster ""
    for score, c in scored:
        cluster = labels.get(c.key, "")
        per_cluster[cluster] += 1
        if args.top is None or per_cluster[cluster] <= args.top:
            ranked.append((score, c, cluster))
    write_ranked_csv(args.out, ranked)
    print(f"{len(ranked)} ranked candidates ({distance.name}) -> {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    sut = get_sut(args.sut, arity=args.arity, timeout=args.timeout)
    distance = parse_distance(args.distance)
    found = Archive()
    for candidate in scan_adjacent(sut, args.start, args.stop, distance,
                                   vary=args.vary, fixed=args.fixed, force=args.force):
        found.add(candidate)
    write_archive_csv(args.out, found)
    print(f"{len(found)} boundary pairs in [{args.start}, {args.stop}] -> {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .experiment import experiment_markdown, run_experiment, write_experiment   # loads numpy

    sut = get_sut(args.sut, arity=args.arity, timeout=args.timeout, concurrency=args.jobs)
    config = _detection_config(args)
    strategies = [s.strip() for s in args.strategies.split(",")]
    document, report = run_experiment(sut, config, strategies=strategies,
                                      repetitions=args.reps,
                                      summarize_restarts=args.restarts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_experiment(out, document)
    write_report_markdown(out / "report.md", report)
    write_report_json(out / "report.json", report)
    print(experiment_markdown(document))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="autobva",
                     description="Black-box boundary value detection and summarization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run one detection search")
    _add_detect_flags(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=DetectionConfig.strategy)
    p.set_defaults(func=cmd_detect, budget={"seconds": 30.0})

    p = sub.add_parser("summarize", help="cluster archives into a report")
    p.add_argument("archives", nargs="+", help="archive.csv / archive.json files")
    _add_restarts_flag(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("rank", help="re-score candidates and emit a ranked CSV")
    p.add_argument("archives", nargs="+")
    p.add_argument("--distance", default="jaccard2")
    p.add_argument("--top", type=_positive_int, default=None)
    p.add_argument("--report", default=None,
                   help="report.json for per-cluster ranking")
    p.add_argument("--out", default="ranked.csv")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("oracle", help="exhaustive adjacent-pair boundary scan")
    _add_sut_flags(p)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--vary", type=int, default=0, help="argument index to sweep")
    p.add_argument("--fixed", type=_value_tuple, default=None,
                   help="comma-separated full argument tuple, e.g. 2021,2,1")
    p.add_argument("--distance", default=DetectionConfig.output_distance.name)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default="boundaries.csv")
    p.set_defaults(func=cmd_oracle)

    # no abbreviations, so detect's --strategy is refused, not read as --strategies
    p = sub.add_parser("experiment", help="repeated seeded runs with statistics",
                       allow_abbrev=False)
    _add_detect_flags(p)
    # experiment.run_experiment's repetitions, which cannot be imported here without numpy
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--strategies", default=",".join(STRATEGIES))
    _add_restarts_flag(p)
    # an iterations budget keeps repetitions deterministic
    p.set_defaults(func=cmd_experiment, strategy=DetectionConfig.strategy,
                   budget={"iterations": 1000})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
