"""File formats: archives (CSV and JSON), run manifests, cluster reports
and ranked candidate listings.

The CSV archive is the interchange format; a write-then-read round trip
reproduces every candidate bit-exactly.  The JSON archive additionally
carries structured error payloads and the run manifest.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Optional

from .detection import Archive, BoundaryCandidate, DetectionResult, canonical_candidate
from .summarization import ClusterReport
from .values import ExecutionOutcome, parse_tuple, display_tuple

CSV_HEADER = ["input1", "input2", "output1", "output2", "validity", "score_num", "score_den"]

_ERROR_PREFIXES = ("ArgumentError(", "BoundsError(", "DomainError(")


class DataError(Exception):
    """Malformed archive content; carries the offending file and line."""

    def __init__(self, message: str, path=None, line: Optional[int] = None):
        if path is None:
            where = ""
        elif line is None:
            where = f"{path}: "
        else:
            where = f"{path}:{line}: "
        super().__init__(f"{where}{message}")
        self.path = path
        self.line = line


@dataclass
class RunManifest:
    sut: str
    strategy: str
    seed: int
    budget: dict                     # {"seconds": x} or {"iterations": n}
    sampling: dict = field(default_factory=dict)
    distance: str = "strlen"
    threshold: str = "0"
    counts: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @classmethod
    def from_result(cls, sut_name, config, result: DetectionResult) -> "RunManifest":
        return cls(
            sut=sut_name,
            strategy=config.strategy,
            seed=config.sampler.seed,
            budget=config.budget,
            sampling={
                "sampling.method": config.sampler.method,
                "sampling.cts": config.sampler.cts,
                "sampling.big_int_bit_cap": config.sampler.big_int_bit_cap,
                "seed": config.sampler.seed,
            },
            distance=config.output_distance.name,
            threshold=str(config.threshold),
            counts={
                "executions": result.executions,
                "samples": result.samples,
                "candidates": len(result.archive),
            },
            elapsed_seconds=round(result.elapsed, 6),
        )


# ---------------------------------------------------------------------------
# archives


def write_archive_csv(path, candidates: Iterable[BoundaryCandidate]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(
            (*c.key, c.output1.text, c.output2.text,
             c.validity, c.score.numerator, c.score.denominator)
            for c in candidates)


def _outcome_from_text(text: str, is_error: bool) -> ExecutionOutcome:
    if not is_error:
        return ExecutionOutcome(text=text)
    return ExecutionOutcome(text=text, error_kind="argument_error")


def _candidate_from_fields(i1, i2, o1, o2, validity, num, den) -> BoundaryCandidate:
    if validity == "VV":
        err1 = err2 = False
    elif validity == "EE":
        err1 = err2 = True
    elif validity == "VE":
        # the tag does not say which side erred; recognize the canonical texts
        err1 = o1.startswith(_ERROR_PREFIXES)
        err2 = o2.startswith(_ERROR_PREFIXES)
        if err1 == err2:
            err1, err2 = False, True
    else:
        raise ValueError(f"unknown validity tag {validity!r}")
    return canonical_candidate(
        parse_tuple(i1), _outcome_from_text(o1, err1),
        parse_tuple(i2), _outcome_from_text(o2, err2),
        Fraction(num, den),
    )


def read_archive_csv(path) -> list:
    """Parse a CSV archive; raises DataError with the line number on bad rows."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DataError(f"bad header {header!r}", path, 1)
        for row in reader:
            line = reader.line_num
            if len(row) != len(CSV_HEADER):
                raise DataError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", path, line)
            try:
                out.append(_candidate_from_fields(*row[:5], int(row[5]), int(row[6])))
            except (ValueError, ZeroDivisionError) as exc:
                raise DataError(str(exc), path, line) from exc
    return out


def _indented_json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=1)`` writes it nested under a
    key that sits ``indent`` deep."""
    return json.dumps(value, indent=1).replace("\n", "\n" + indent)


def _payload_json(payload: dict) -> str:
    """An error payload as it sits under its ``payload`` key."""
    if all(type(k) is str and type(v) in (str, int) for k, v in payload.items()):
        # the flat shape every built-in program and the external adapter
        # write, formatted without json's pure-Python encoder
        return "{\n     " + ",\n     ".join(
            f"{_json_str(k)}: {_json_str(v) if type(v) is str else v}"
            for k, v in payload.items()) + "\n    }"
    return _indented_json(payload, "    ")


def _outcome_json(o: ExecutionOutcome) -> str:
    """One outcome object as it sits under a candidate's ``outputN`` key."""
    head = f'{{\n    "status": "{o.status}",\n    "text": {_json_str(o.text)}'
    if o.error_kind is None:
        return head + "\n   }"
    head += f',\n    "error_kind": {_json_str(o.error_kind)}'
    if o.payload:
        head += f',\n    "payload": {_payload_json(o.payload)}'
    return head + "\n   }"


def _candidate_json(c: BoundaryCandidate, strategies: dict) -> str:
    """One entry of the ``candidates`` list, without its trailing separator."""
    input1, input2 = key = c.key
    tags = sorted(strategies.get(key, ()))
    tags_json = "[\n    " + ",\n    ".join(map(_json_str, tags)) + "\n   ]" if tags else "[]"
    score = c.score
    return (f'  {{\n   "input1": {_json_str(input1)},\n   "input2": {_json_str(input2)},'
            f'\n   "output1": {_outcome_json(c.output1)},'
            f'\n   "output2": {_outcome_json(c.output2)},'
            f'\n   "validity": "{c.validity}",'
            f'\n   "score": {{\n    "num": {score.numerator},\n    "den": {score.denominator}\n   }},'
            f'\n   "strategies": {tags_json}\n  }}')


def _string(value, what: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {type(value).__name__} {value!r}")
    return value


def _outcome_from_json(data: dict, side: str) -> ExecutionOutcome:
    error_kind = data.get("error_kind") if data.get("status") == "error" else None
    return ExecutionOutcome(
        text=_string(data["text"], f"{side}.text"),
        error_kind=None if error_kind is None else _string(error_kind, f"{side}.error_kind"),
        payload=data.get("payload", {}),
    )


def _strategies_from_json(tags) -> set:
    if not isinstance(tags, list):
        raise ValueError(f"strategies must be a list, got {type(tags).__name__} {tags!r}")
    return {_string(tag, "strategy name") for tag in tags}


def write_archive_json(path, archive: Archive, manifest: Optional[RunManifest] = None) -> None:
    """Write the bytes ``json.dumps(doc, indent=1)`` writes for the document
    ``{"manifest": ..., "candidates": [...]}``.

    ``indent`` sends ``json`` through its pure-Python encoder, so candidates,
    by far the bulk, are formatted here directly; the manifest and error
    payloads other than flat string-to-string-or-int maps still go through
    ``json.dumps``.  Texts, error kinds and strategy names are strings.
    """
    strategies = archive.strategies
    entries = [_candidate_json(c, strategies) for c in archive]
    candidates = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    manifest_json = _indented_json(asdict(manifest) if manifest else None, " ")
    Path(path).write_text(f'{{\n "manifest": {manifest_json},\n "candidates": {candidates}\n}}',
                          encoding="utf-8")


def read_archive_json(path) -> tuple:
    """Returns (candidates, strategies-by-key, manifest dict or None)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}", path, exc.lineno) from exc
    if not isinstance(doc, dict):
        raise DataError("expected a JSON object with a candidates list", path)
    candidates = []
    strategies = {}
    for i, entry in enumerate(doc.get("candidates", [])):
        try:
            c = canonical_candidate(
                parse_tuple(entry["input1"]),
                _outcome_from_json(entry["output1"], "output1"),
                parse_tuple(entry["input2"]),
                _outcome_from_json(entry["output2"], "output2"),
                Fraction(entry["score"]["num"], entry["score"]["den"]),
            )
            tags = entry.get("strategies")
            if tags:
                strategies[c.key] = _strategies_from_json(tags)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DataError(f"candidate #{i}: {exc}", path) from exc
        candidates.append(c)
    return candidates, strategies, doc.get("manifest")


def load_archives(paths, threshold: Optional[Fraction] = None) -> Archive:
    """Merge archive files (CSV or JSON by extension), re-deduplicating.

    No re-filtering by default: rows are kept as stored, even at score zero,
    so ranking can list them last.  An unreadable file is a DataError.
    """
    merged = Archive(Fraction(-1) if threshold is None else threshold)
    for path in paths:
        path = Path(path)
        try:
            if path.suffix == ".json":
                candidates, strategies, _ = read_archive_json(path)
            else:
                candidates, strategies = read_archive_csv(path), {}
        except OSError as exc:
            raise DataError(exc.strerror or str(exc), path) from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text: {exc}", path) from exc
        for c in candidates:
            merged.add(c)
            key = c.key
            tags = strategies.get(key)
            if tags and key in merged:
                merged.strategies.setdefault(key, set()).update(tags)
    return merged


def write_manifest(path, manifest: RunManifest) -> None:
    Path(path).write_text(json.dumps(asdict(manifest), indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# cluster reports


def report_to_json(report: ClusterReport) -> dict:
    return {
        "total_candidates": report.total_candidates,
        "groups": [
            {
                "validity": g.validity,
                "size": g.size,
                "silhouette": g.silhouette,
                "clusters": [
                    {
                        "id": c.cluster_id,
                        "size": c.size,
                        "strategy_counts": c.strategy_counts,
                        "representative": {
                            "input1": c.representative.key[0],
                            "output1": c.representative.output1.text,
                            "input2": c.representative.key[1],
                            "output2": c.representative.output2.text,
                        },
                        "members": [list(m.key) for m in c.members],
                    }
                    for c in g.clusters
                ],
            }
            for g in report.groups
        ],
    }


def write_report_json(path, report: ClusterReport) -> None:
    Path(path).write_text(json.dumps(report_to_json(report), indent=1), encoding="utf-8")


def report_to_markdown(report: ClusterReport) -> str:
    lines = ["# Boundary candidate summary", ""]
    strategies = sorted({tag for g in report.groups for c in g.clusters
                         for tag in c.strategy_counts})
    head = ["ID", "Validity", "Input 1", "Output 1", "Input 2", "Output 2", "Cluster size"]
    head += [f"{s} found" for s in strategies]
    for g in report.groups:
        title = f"## {g.validity} ({g.size} candidates"
        title += f", silhouette {g.silhouette:.3f})" if g.silhouette is not None else ")"
        lines += [title, ""]
        lines.append("| " + " | ".join(head) + " |")
        lines.append("|" + "---|" * len(head))
        for c in g.clusters:
            rep = c.representative
            row = [str(c.cluster_id), g.validity,
                   display_tuple(rep.input1), rep.output1.text,
                   display_tuple(rep.input2), rep.output2.text,
                   str(c.size)]
            row += [str(c.strategy_counts.get(s, 0)) for s in strategies]
            lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
        lines.append("")
    return "\n".join(lines)


def write_report_markdown(path, report: ClusterReport) -> None:
    Path(path).write_text(report_to_markdown(report), encoding="utf-8")


# ---------------------------------------------------------------------------
# ranking


def write_ranked_csv(path, rows: Iterable[dict]) -> None:
    fieldnames = ["rank", "cluster", "input1", "input2", "output1", "output2",
                  "validity", "score_num", "score_den", "score"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
