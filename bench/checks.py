"""Output checks for the benchmark, run outside the timed phase.

Detect archives are checked candidate by candidate against the brute-force
oracle and a fresh execution; summarize reports are checked to partition
the archive they were built from.  Digests fingerprint the written files so
two runs (or two commits) can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from autobva.distances import STRLEN
from autobva.oracle import is_boundary_pair
from autobva.suts import execute
from autobva.values import parse_tuple

# Error texts that mean the harness, not the program under test, failed.
_HARNESS_FAILURES = (
    'ArgumentError("uncaught: ',
    'ArgumentError("timeout after ',
    'ArgumentError("command not found: ',
    'ArgumentError("cannot execute: ',
)


def is_harness_failure(text: str) -> bool:
    return text.startswith(_HARNESS_FAILURES)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_candidates(archive_json) -> list:
    return json.loads(Path(archive_json).read_text(encoding="utf-8"))["candidates"]


def archive_digests(out_dir) -> dict:
    """Digests of one detect output directory.

    ``archive.json`` embeds the run manifest with its elapsed time, so only
    its ``candidates`` array is hashed.
    """
    out_dir = Path(out_dir)
    return {
        "archive.csv": sha256_file(out_dir / "archive.csv"),
        "archive.json:candidates": sha256_json(load_candidates(out_dir / "archive.json")),
    }


def harness_failures_in(candidates: list) -> int:
    return sum(is_harness_failure(entry[side]["text"])
               for entry in candidates for side in ("output1", "output2"))


def check_candidates(sut, candidates: list) -> list:
    """Problems found in archived detect candidates; empty when all hold.

    Each candidate must be an oracle boundary pair, its stored outputs must
    equal a fresh execution, and its score must equal the difference
    quotient of them under strlendist, computed here independently of
    ``pdq``.
    """
    problems = []
    for n, entry in enumerate(candidates):
        i1, i2 = parse_tuple(entry["input1"]), parse_tuple(entry["input2"])
        where = f"{sut.name} candidate #{n} ({entry['input1']} | {entry['input2']})"
        if not is_boundary_pair(sut, i1, i2, STRLEN):
            problems.append(f"{where}: not an oracle boundary pair")
        for side, inputs in (("output1", i1), ("output2", i2)):
            fresh = execute(sut, inputs)
            stored = entry[side]
            if (fresh.text, fresh.status) != (stored["text"], stored["status"]):
                problems.append(f"{where}: stored {side} {stored['text']!r} "
                                f"!= fresh {fresh.text!r}")
        score = Fraction(entry["score"]["num"], entry["score"]["den"])
        expected = Fraction(
            abs(len(entry["output1"]["text"]) - len(entry["output2"]["text"])),
            sum(abs(int(a) - int(b)) for a, b in zip(i1, i2)))
        if score != expected:
            problems.append(f"{where}: score {score} != quotient {expected}")
    return problems


def check_report(report: dict, candidates: list, k_max: int) -> tuple:
    """(problems, failed group count) for a summarize report over ``candidates``;
    a problem with the report as a whole counts as one failed group.

    Every archive key sits in exactly one cluster of the group matching its
    validity, every representative is a member of its cluster, and groups
    of three or more have 2 <= k <= k_max clusters.
    """
    validity = {(c["input1"], c["input2"]): c["validity"] for c in candidates}
    problems = []
    failed_groups = 0
    placed: Counter = Counter()
    for group in report["groups"]:
        before = len(problems)
        name, clusters = group["validity"], group["clusters"]
        k = len(clusters)
        if group["size"] >= 3 and not 2 <= k <= k_max:
            problems.append(f"group {name}: k={k} outside 2..{k_max}")
        if group["size"] < 3 and k != 1:
            problems.append(f"group {name}: {group['size']} candidates in {k} clusters")
        if group["size"] != sum(len(c["members"]) for c in clusters):
            problems.append(f"group {name}: size {group['size']} != member count")
        for cluster in clusters:
            members = {tuple(m) for m in cluster["members"]}
            placed.update(tuple(m) for m in cluster["members"])
            rep = cluster["representative"]
            if (rep["input1"], rep["input2"]) not in members:
                problems.append(f"group {name} cluster {cluster['id']}: "
                                "representative is not a member")
            strays = [m for m in members if validity.get(m) != name]
            if strays:
                problems.append(f"group {name} cluster {cluster['id']}: "
                                f"{len(strays)} members not in the archive's {name} group")
        failed_groups += len(problems) > before
    twice = [key for key, n in placed.items() if n > 1]
    missing = set(validity) - set(placed)
    if twice:
        problems.append(f"{len(twice)} archive keys placed in more than one cluster")
    if missing:
        problems.append(f"{len(missing)} archive keys missing from the report")
    if report["total_candidates"] != len(candidates):
        problems.append(f"report total {report['total_candidates']} != "
                        f"archive size {len(candidates)}")
    return problems, failed_groups or int(bool(problems))
