"""File formats: archives (CSV and JSON), run manifests, sampler config
files, cluster reports and ranked candidate listings.

Both archive formats store one record per candidate: the two inputs, each
side's status, text and error kind, the validity tag, the exact score and
the strategies that found it.  Both readers decode records through one
function that holds every check, and return an ``Archive`` built through
``Archive.add``, which checks strategy names; the writers take an
``Archive``.  So CSV and JSON round trips give the same candidates with
the same error sides, kinds and strategies.  Error payloads
and the run manifest are stored in the JSON archive only.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .detection import Archive, BoundaryCandidate, DetectionConfig, DetectionResult
from .sampling import SamplerConfig
from .suts import MAX_OUTPUT_BYTES
from .values import ExecutionOutcome, parse_int, parse_tuple, typed

# An error kind is empty on a valid side; strategies are sorted names joined
# by ";".  Error payloads are not stored in CSV.  The longest text an outcome
# holds is an external stream of MAX_OUTPUT_BYTES, each byte at worst kept
# as a 4-character escape.
CSV_FIELD_LIMIT = 4 * MAX_OUTPUT_BYTES
CSV_HEADER = ["input1", "input2", "output1", "output2", "validity", "score_num", "score_den",
              "error_kind1", "error_kind2", "strategies"]
# what ends a line in Markdown; a report.md table cell holds none, so each
# cluster stays one table row
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class DataError(Exception):
    """Malformed archive content; carries the offending file and line."""

    def __init__(self, message: str, path, line: Optional[int] = None):
        where = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{where}{message}")
        self.path = path
        self.line = line


def run_manifest(sut_name: str, config: DetectionConfig, result: DetectionResult) -> dict:
    """How a detection run was made and what it did, as manifest.json and
    archive.json store it."""
    return {
        "sut": sut_name,
        "strategy": config.strategy,
        "seed": config.sampler.seed,
        "budget": config.budget,     # {"seconds": x}, {"iterations": n} or {"executions": n}
        "sampling": config.sampler.settings(),
        "distance": config.output_distance.name,
        "threshold": str(config.threshold),
        "counts": {
            "executions": result.executions,
            "samples": result.samples,
            "candidates": len(result.archive),
        },
        "elapsed_seconds": round(result.elapsed, 6),
    }


@contextmanager
def _reading(path) -> Iterator[None]:
    """Turn a failure to read, decode or parse the file ``path`` into a
    DataError naming it, and the line for invalid JSON."""
    try:
        yield
    except OSError as exc:
        raise DataError(exc.strerror or str(exc), path) from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc}", path) from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}", path, exc.lineno) from exc
    except RecursionError as exc:
        raise DataError("nested too deeply to parse", path) from exc


def load_json(path):
    """The JSON document in the file ``path``."""
    with _reading(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))


def read_sampler_config(path, base: SamplerConfig) -> SamplerConfig:
    """``base`` with the settings in the JSON config file ``path`` laid over it."""
    settings = load_json(path)
    if not isinstance(settings, dict):
        raise DataError(f"expected a JSON object of settings, got {type(settings).__name__}", path)
    try:
        return base.with_settings(settings)
    except ValueError as exc:
        raise DataError(str(exc), path) from exc


# ---------------------------------------------------------------------------
# archives: one record per candidate, a JSON entry or a CSV row mapped to one


def write_archive_csv(path, archive: Archive) -> None:
    """One row per candidate, with its strategies."""
    strategies = archive.strategies
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        # csv writes a valid side's error kind, None, as an empty field
        writer.writerows(
            (*c.key, c.output1.text, c.output2.text,
             c.validity, c.score.numerator, c.score.denominator,
             c.output1.error_kind, c.output2.error_kind, ";".join(sorted(strategies.get(c.key, ()))))
            for c in archive)


def _record_from_row(row: list) -> dict:
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    i1, i2, text1, text2, validity, num, den, kind1, kind2, tags = row
    return {"input1": i1, "input2": i2,
            "output1": {"status": "error" if kind1 else "valid", "text": text1, "error_kind": kind1 or None},
            "output2": {"status": "error" if kind2 else "valid", "text": text2, "error_kind": kind2 or None},
            "validity": validity, "score": {"num": parse_int(num), "den": parse_int(den)},
            "strategies": tags.split(";") if tags else []}


def read_archive_csv(path) -> Archive:
    """The stored candidates, kept at any score; a bad row is a DataError
    naming its line."""
    csv.field_size_limit(max(csv.field_size_limit(), CSV_FIELD_LIMIT))
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DataError(str(exc), path, 1) from exc
        if header == CSV_HEADER[:7]:
            raise DataError("old 7-column format without error sides; use the run's archive.json", path, 1)
        if header != CSV_HEADER:
            raise DataError(f"bad header {header!r}", path, 1)
        return _decode(map(_record_from_row, reader), path, lambda index: (reader.line_num, ""))


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


def write_archive_json(path, archive: Archive, manifest: Optional[dict] = None) -> None:
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
    manifest_json = _indented_json(manifest, " ")
    Path(path).write_text(f'{{\n "manifest": {manifest_json},\n "candidates": {candidates}\n}}',
                          encoding="utf-8")


def read_archive_json(path) -> Archive:
    """The stored candidates, kept at any score; a bad entry is a DataError
    naming its index in the candidates list."""
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("candidates"), list):
        raise DataError("expected a JSON object with a candidates list", path)
    return _decode(doc["candidates"], path, lambda index: (None, f"candidate #{index}: "))


def _decode(records, path, locate) -> Archive:
    """An archive of every stored record, at any score.  A bad record is a
    DataError at ``locate(index)``, a line and a message prefix."""
    archive, decoded = Archive(), 0
    try:
        for record in records:
            archive.add(*_candidate_from_record(record))
            decoded += 1
    except (KeyError, TypeError, ValueError, ZeroDivisionError, csv.Error) as exc:
        line, prefix = locate(decoded)
        raise DataError(f"{prefix}{exc}", path, line) from exc
    return archive


def _outcome_from_record(data: dict, side: str) -> ExecutionOutcome:
    status = data["status"]
    kind = data.get("error_kind")
    if status not in ("valid", "error"):
        raise ValueError(f"{side}.status must be 'valid' or 'error', got {status!r}")
    if kind is not None:
        typed(kind, str, f"{side}.error_kind")
    if (status == "error") != bool(kind):
        raise ValueError(f"{side}: an error outcome needs an error_kind and a valid one has "
                         f"none, got status {status!r} with error_kind {kind!r}")
    payload = data.get("payload")
    if "payload" in data:
        # the writer stores a payload only on an error side, as an object
        if kind is None:
            raise ValueError(f"{side}: only an error outcome has a payload, got {payload!r}")
        typed(payload, dict, f"{side}.payload")
    return ExecutionOutcome(typed(data["text"], str, f"{side}.text"), kind, payload)


def _candidate_from_record(record: dict) -> tuple:
    """(candidate, strategy names) from one record, with every check on
    stored candidates but the form of strategy names, which ``Archive.add``
    checks."""
    score = record["score"]
    input1 = parse_tuple(typed(record["input1"], str, "input1"))
    input2 = parse_tuple(typed(record["input2"], str, "input2"))
    # equal tuples include ones equal as numbers, such as 1 and true
    if not input1 or len(input1) != len(input2) or input1 == input2:
        raise ValueError(f"inputs must be distinct and non-empty, with one arity, "
                         f"got {record['input1']!r} and {record['input2']!r}")
    candidate = BoundaryCandidate(
        input1, _outcome_from_record(record["output1"], "output1"),
        input2, _outcome_from_record(record["output2"], "output2"),
        Fraction(typed(score["num"], int, "score.num"), typed(score["den"], int, "score.den")))
    if candidate.score < 0:
        raise ValueError(f"score must not be negative, got {candidate.score}")
    if record["validity"] != candidate.validity:
        raise ValueError(f"validity {record['validity']!r}, but the outcomes make {candidate.validity}")
    tags = typed(record["strategies"], list, "strategies")
    for tag in tags:
        typed(tag, str, "strategy name")
    return candidate, tags


def load_archives(paths) -> Archive:
    """Merge archive files (CSV or JSON by extension), re-deduplicating.

    Candidates are kept as stored, even at score zero, since an ``Archive``
    has no threshold; ranking lists them last.  A bad file is a DataError.
    The merge starts from the first file's archive, as its reader built it.
    """
    archives = (_read_archive(Path(path)) for path in paths)
    merged = next(archives, Archive())
    for archive in archives:
        merged.merge(archive)
    return merged


def _read_archive(path: Path) -> Archive:
    reader = read_archive_json if path.suffix == ".json" else read_archive_csv
    return reader(path)


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# cluster reports


def write_report_json(path, report: dict) -> None:
    """Write ``report``, the report.json document ``summarization.summarize``
    returns."""
    Path(path).write_text(json.dumps(report, indent=1), encoding="utf-8")


def read_cluster_labels(path) -> dict:
    """Member key -> the label ``"<validity>/<cluster id>"`` of its cluster
    in the report.json at ``path``.  Each member, a list of two strings,
    is in one cluster only; a validity is a string, a cluster id an integer."""
    doc = load_json(path)
    labels, where = {}, ""
    try:
        for g, group in enumerate(doc["groups"]):
            where = f"group #{g}: "
            for c, cluster in enumerate(group["clusters"]):
                where = f"group #{g} cluster #{c}: "
                label = f"{typed(group['validity'], str, 'validity')}/{typed(cluster['id'], int, 'id')}"
                for member in cluster["members"]:
                    if type(member) is not list or list(map(type, member)) != [str, str]:
                        raise ValueError(f"a member must be a list of two strings, got {member!r}")
                    key = tuple(member)
                    if key in labels:
                        raise ValueError(f"member {member!r} is in cluster {labels[key]} too")
                    labels[key] = label
    except (KeyError, TypeError) as exc:
        raise DataError(f"{where}not a cluster report ({type(exc).__name__}: {exc})", path) from exc
    except ValueError as exc:
        raise DataError(f"{where}{exc}", path) from exc
    return labels


def _display_key(key: str) -> str:
    """``display_tuple`` of the input whose ``render_tuple`` key is ``key``."""
    return key if ";" not in key else "(" + key.replace(";", ",") + ")"


def report_to_markdown(report: dict) -> str:
    """The report.md tables, drawn from the report.json document."""
    lines = ["# Boundary candidate summary", ""]
    strategies = sorted({tag for g in report["groups"] for c in g["clusters"]
                         for tag in c["strategy_counts"]})
    head = ["ID", "Validity", "Input 1", "Output 1", "Input 2", "Output 2", "Cluster size"]
    head += [f"{s} found" for s in strategies]
    for g in report["groups"]:
        title = f"## {g['validity']} ({g['size']} candidates"
        title += f", silhouette {g['silhouette']:.3f})" if g["silhouette"] is not None else ")"
        lines += [title, ""]
        lines.append("| " + " | ".join(head) + " |")
        lines.append("|" + "---|" * len(head))
        for c in g["clusters"]:
            rep = c["representative"]
            row = [str(c["id"]), g["validity"],
                   _display_key(rep["input1"]), rep["output1"],
                   _display_key(rep["input2"]), rep["output2"],
                   str(c["size"])]
            row += [str(c["strategy_counts"].get(s, 0)) for s in strategies]
            lines.append("| " + " | ".join(_LINE_BREAK.sub("<br>", cell.replace("|", "\\|"))
                                           for cell in row) + " |")
        lines.append("")
    return "\n".join(lines)


def write_report_markdown(path, report: dict) -> None:
    Path(path).write_text(report_to_markdown(report), encoding="utf-8")


# ---------------------------------------------------------------------------
# ranking


def write_ranked_csv(path, ranked: Iterable[tuple]) -> None:
    """One row per (score, candidate, cluster label), ranked in the given
    order; the label is empty for a candidate in no cluster."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "cluster", "input1", "input2", "output1", "output2",
                         "validity", "score_num", "score_den", "score"])
        writer.writerows(
            (rank, cluster, *c.key, c.output1.text, c.output2.text, c.validity,
             score.numerator, score.denominator, f"{float(score):.6g}")
            for rank, (score, c, cluster) in enumerate(ranked, 1))
