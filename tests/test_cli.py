"""CLI surface: flags, files, exit codes."""

import csv
import hashlib
import json
import os
import re
import stat
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from autobva.archive_io import CSV_HEADER, read_archive_csv, read_archive_json
from autobva.cli import main
from autobva.detection import DetectionConfig
from autobva.sampling import SamplerConfig, sample_arguments
from autobva.suts import get_sut
from autobva.values import render_value


def run_cli(*argv):
    return main(list(argv))


def test_detect_writes_archive_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = run_cli("detect", "--sut", "bytecount", "--strategy", "bcs",
                   "--iterations", "1500", "--seed", "0", "--out", str(out))
    assert code == 0
    assert (out / "archive.csv").exists()
    assert (out / "archive.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sut"] == "bytecount"
    assert manifest["budget"] == {"iterations": 1500}
    with open(out / "archive.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["input1", "input2", "output1", "output2",
                       "validity", "score_num", "score_den",
                       "error_kind1", "error_kind2", "strategies"]
    assert {row[9] for row in rows[1:]} == {"bcs"}
    assert manifest["counts"]["candidates"] == len(rows) - 1 > 0


def test_detect_threshold_keeps_only_candidates_scoring_above_it(tmp_path):
    """A threshold leaves the search alone and keeps the candidates scoring
    above it, in the order the run found them."""
    def run(*threshold):
        out = tmp_path / (threshold[-1].replace("/", "-") if threshold else "0")
        assert run_cli("detect", "--sut", "date", "--strategy", "lns", "--iterations", "500",
                       "--seed", "0", *threshold, "--out", str(out)) == 0
        return json.loads((out / "archive.json").read_text())["candidates"], \
            json.loads((out / "manifest.json").read_text())

    def score(entry):
        return Fraction(entry["score"]["num"], entry["score"]["den"])

    everything, manifest = run()
    assert manifest["threshold"] == "0"
    kept, manifest = run("--threshold", "3/2")
    assert manifest["threshold"] == "3/2"
    assert len(everything) == 152 and sum(score(e) == 1 for e in everything) == 62
    assert kept == [e for e in everything if score(e) > Fraction(3, 2)]
    assert kept and all(score(e) > Fraction(3, 2) for e in kept)


def test_detect_zero_iterations_is_ok(tmp_path):
    out = tmp_path / "empty"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "0",
                   "--out", str(out)) == 0
    with open(out / "archive.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1


def test_detect_unknown_sut_is_usage_error(capsys):
    assert run_cli("detect", "--sut", "nope", "--iterations", "1") == 1
    assert capsys.readouterr().err == (
        "usage error: unknown SUT 'nope' (expected one of "
        "['bmi', 'bmi-class', 'bytecount', 'date'] or external:<cmd>)\n")
    # with no program word, Popen would run the first rendered input
    for sut in ("external:", "external: ", 'external:""'):
        assert run_cli("detect", "--sut", sut, "--iterations", "1") == 1
        assert capsys.readouterr().err == \
            "usage error: external SUT needs a command: external:<cmd>\n"


def test_detect_unknown_flag_is_usage_error():
    assert run_cli("detect", "--sut", "bytecount", "--frobnicate", "1") == 1


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_detect_jobs_below_one_is_usage_error(jobs, capsys):
    assert run_cli("detect", "--sut", "external:/bin/echo", "--iterations", "1",
                   "--jobs", jobs) == 1
    assert capsys.readouterr().err.startswith("usage error: argument --jobs: ")


@pytest.mark.parametrize("command", ["detect", "experiment", "oracle"])
@pytest.mark.parametrize("arity", ["0", "-1"])
def test_arity_below_one_is_usage_error(command, arity, capsys):
    window = ["--from", "0", "--to", "1"] if command == "oracle" else ["--iterations", "1"]
    assert run_cli(command, "--sut", "external:/bin/echo", "--arity", arity, *window) == 1
    assert capsys.readouterr().err == \
        f"usage error: argument --arity: must be at least 1, got {arity}\n"


def test_detect_env_seed_overrides_flag(tmp_path, monkeypatch):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("AUTOBVA_SEED", "99")
    run_cli("detect", "--sut", "bytecount", "--iterations", "500",
            "--seed", "0", "--out", str(out1))
    monkeypatch.delenv("AUTOBVA_SEED")
    run_cli("detect", "--sut", "bytecount", "--iterations", "500",
            "--seed", "99", "--out", str(out2))
    run_cli("detect", "--sut", "bytecount", "--iterations", "500",
            "--seed", "0", "--out", str(out3))
    assert (out1 / "archive.csv").read_bytes() == (out2 / "archive.csv").read_bytes()
    assert (out1 / "archive.csv").read_bytes() != (out3 / "archive.csv").read_bytes()


@pytest.mark.parametrize("command", ["detect", "summarize"])
def test_bad_env_seed_is_usage_error_naming_it(tmp_path, monkeypatch, capsys, command):
    run = tmp_path / "run"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "5", "--out", str(run)) == 0
    capsys.readouterr()
    monkeypatch.setenv("AUTOBVA_SEED", "abc")
    if command == "detect":
        argv = ["detect", "--sut", "bytecount", "--iterations", "5", "--out", str(tmp_path / "o")]
    else:
        argv = ["summarize", str(run / "archive.json"), "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == \
        "usage error: AUTOBVA_SEED from the environment must be an integer, got 'abc'\n"
    assert not (tmp_path / "o").exists()


def test_detect_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampling.method": "uniform", "sampling.cts": False,
                               "sampling.big_int_bit_cap": 128, "seed": 7}))
    out = tmp_path / "run"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "300",
                   "--config", str(cfg), "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sampling"]["sampling.method"] == "uniform"
    assert manifest["sampling"]["sampling.cts"] is False
    assert manifest["seed"] == 7


def test_detect_bad_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampling.mode": "uniform"}))
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "1",
                   "--config", str(cfg)) == 2
    assert capsys.readouterr().err == f"data error: {cfg}: unknown key 'sampling.mode'\n"


# config file contents that are not a JSON object of typed settings
BAD_CONFIGS = {
    "top-level list": ('[1]', ": expected a JSON object of settings, got list"),
    "null seed": ('{"seed": null}', ": seed must be an integer, got NoneType None"),
    "fractional seed": ('{"seed": 1.5}', ": seed must be an integer, got float 1.5"),
    "cts as text": ('{"sampling.cts": "off"}', ": sampling.cts must be a bool, got str 'off'"),
    "cts as number": ('{"sampling.cts": 0}', ": sampling.cts must be a bool, got int 0"),
    "bit cap as bool": ('{"sampling.big_int_bit_cap": true}',
                        ": sampling.big_int_bit_cap must be an integer, got bool True"),
    "bit cap too small": ('{"sampling.big_int_bit_cap": 10}',
                          ": sampling.big_int_bit_cap must be at least 64, got 10"),
    "method as number": ('{"sampling.method": 1}', ": sampling.method must be a string, got int 1"),
    "unknown method": ('{"sampling.method": "bogus"}',
                       ": sampling.method must be 'uniform' or 'bituniform', got 'bogus'"),
    "invalid JSON": ('{"seed": 1\n', ":2: invalid JSON: Expecting ',' delimiter"),
}


@pytest.mark.parametrize("command", ["detect", "experiment"])
@pytest.mark.parametrize("case", BAD_CONFIGS)
def test_bad_config_file_is_data_error(tmp_path, capsys, command, case):
    text, message = BAD_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run_cli(command, "--sut", "bytecount", "--iterations", "1",
                   "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"data error: {cfg}{message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["config", "report"])
def test_unreadable_json_input_is_data_error(tmp_path, capsys, command):
    """A --config or --report file that is missing or not UTF-8 is a data
    error naming it, as an archive file is."""
    run = tmp_path / "run"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "50", "--out", str(run)) == 0
    capsys.readouterr()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for path, message in ((tmp_path / "missing.json", "No such file or directory"),
                          (binary, "not UTF-8 text")):
        if command == "config":
            argv = ["detect", "--sut", "bytecount", "--iterations", "1", "--config", str(path),
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["rank", str(run / "archive.json"), "--report", str(path),
                    "--out", str(tmp_path / "ranked.csv")]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: {message}")


@pytest.mark.parametrize("argv, message", [
    (["experiment", "--reps", "0"], "argument --reps: must be at least 1, got 0"),
    (["experiment", "--restarts", "0"], "argument --restarts: must be at least 1, got 0"),
    (["detect", "--iterations", "-5"], "argument --iterations: must be at least 0, got -5"),
    (["experiment", "--iterations", "-1"], "argument --iterations: must be at least 0, got -1"),
    (["detect", "--seconds", "0"], "argument --seconds: must be finite and above 0, got 0.0"),
    (["detect", "--seconds", "-1"], "argument --seconds: must be finite and above 0, got -1.0"),
    (["detect", "--seconds", "nan"], "argument --seconds: must be finite and above 0, got nan"),
    (["detect", "--seconds", "inf"], "argument --seconds: must be finite and above 0, got inf"),
    (["detect", "--timeout", "0"], "argument --timeout: must be finite and above 0, got 0.0"),
    (["oracle", "--timeout", "-2", "--from", "0", "--to", "1"],
     "argument --timeout: must be finite and above 0, got -2.0"),
    (["experiment", "--strategies", "lns,lns"], "each strategy must be named once, got ['lns', 'lns']"),
    (["experiment", "--strategies", "bcs,lns,bcs"],
     "each strategy must be named once, got ['bcs', 'lns', 'bcs']"),
    (["experiment", "--strategies", ","], "unknown strategy ''"),
    (["experiment", "--strategies", "lns,"], "unknown strategy ''"),
    (["detect", "--threshold", "1/0"],
     "argument --threshold: must be an exact rational, e.g. 0 or 1/2, got '1/0'"),
    (["experiment", "--threshold", "1/0"],
     "argument --threshold: must be an exact rational, e.g. 0 or 1/2, got '1/0'"),
    (["detect", "--threshold", "half"],
     "argument --threshold: must be an exact rational, e.g. 0 or 1/2, got 'half'"),
    (["detect", "--threshold", "-1"], "argument --threshold: must be at least 0, got -1"),
    (["experiment", "--threshold", "-1"], "argument --threshold: must be at least 0, got -1"),
    (["detect", "--threshold=-1/2"], "argument --threshold: must be at least 0, got -1/2"),
    (["experiment", "--threshold=-1/2"], "argument --threshold: must be at least 0, got -1/2"),
    # argparse reads "-1/2" after a space as a flag, not as a negative number
    (["detect", "--threshold", "-1/2"], "argument --threshold: expected one argument"),
    (["experiment", "--threshold", "-1/2"], "argument --threshold: expected one argument"),
    # each run's strategy comes from --strategies, so detect's flag is not taken
    (["experiment", "--strategy", "lns"], "unrecognized arguments: --strategy lns"),
])
def test_bad_count_or_strategy_list_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--sut", "bytecount", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["summarize", "--restarts", "0"], "argument --restarts: must be at least 1, got 0"),
    (["rank", "--top", "0"], "argument --top: must be at least 1, got 0"),
])
def test_bad_count_on_archive_is_usage_error(tmp_path, capsys, argv, message):
    run = tmp_path / "run"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "50", "--out", str(run)) == 0
    capsys.readouterr()
    assert run_cli(*argv, str(run / "archive.json"), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_summarize_and_rank(tmp_path):
    runs = []
    for seed in (0, 1):
        out = tmp_path / f"run{seed}"
        run_cli("detect", "--sut", "bytecount", "--strategy", "bcs",
                "--iterations", "1500", "--seed", str(seed), "--out", str(out))
        runs.append(str(out / "archive.json"))
    rep = tmp_path / "rep"
    assert run_cli("summarize", *runs, "--restarts", "40", "--seed", "0",
                   "--out", str(rep)) == 0
    report = json.loads((rep / "report.json").read_text())
    assert {g["validity"] for g in report["groups"]} >= {"VV"}
    assert (rep / "report.md").read_text().startswith("#")

    ranked = tmp_path / "ranked.csv"
    assert run_cli("rank", *runs, "--distance", "jaccard2", "--top", "5",
                   "--out", str(ranked)) == 0
    with open(ranked, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert 0 < len(rows) <= 5
    scores = [float(r["score"]) for r in rows]
    assert scores == sorted(scores, reverse=True)

    per_cluster = tmp_path / "percluster.csv"
    assert run_cli("rank", *runs, "--top", "1", "--report",
                   str(rep / "report.json"), "--out", str(per_cluster)) == 0
    with open(per_cluster, newline="") as fh:
        rows = list(csv.DictReader(fh))
    clusters = [r["cluster"] for r in rows]
    assert len(clusters) == len(set(clusters))


def test_rank_reproduces_reference_order(tmp_path):
    # the six worked example pairs, stored with their strlendist scores;
    # re-ranking under jaccard1 must order them 1,2,3,4 then the zero pair
    rows = [
        ("9", "10", "9B", "10B", "VV", "1", "1"),
        ("999949999", "999950000", "999.9 MB", "1.0 GB", "VV", "2", "1"),
        ("99949", "99950", "99.9 kB", "100.0 kB", "VV", "1", "1"),
        ("99949", "99951", "99.9 kB", "100.0 kB", "VV", "1", "2"),
        ("99951", "99952", "100.0 kB", "100.0 kB", "VV", "0", "1"),
        ("99948", "99949", "99.9 kB", "99.9 kB", "VV", "0", "1"),
    ]
    src = tmp_path / "table.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(row + ("", "", "") for row in rows)
    out = tmp_path / "ranked.csv"
    assert run_cli("rank", str(src), "--distance", "jaccard1", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        ranked = list(csv.DictReader(fh))
    assert [r["input1"] for r in ranked] == \
        ["9", "999949999", "99949", "99949", "99948", "99951"]
    assert [r["score"] for r in ranked[:2]] == ["0.75", "0.625"]
    # --top 1 surfaces the strongest pair
    top = tmp_path / "top.csv"
    assert run_cli("rank", str(src), "--top", "1", "--out", str(top)) == 0
    with open(top, newline="") as fh:
        (only,) = list(csv.DictReader(fh))
    assert (only["input1"], only["input2"]) == ("9", "10")


def test_summarize_empty_archive_exits_zero(tmp_path):
    out = tmp_path / "empty"
    run_cli("detect", "--sut", "bytecount", "--iterations", "0", "--out", str(out))
    rep = tmp_path / "rep"
    assert run_cli("summarize", str(out / "archive.csv"), "--out", str(rep)) == 0
    assert json.loads((rep / "report.json").read_text())["total_candidates"] == 0


def test_summarize_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(CSV_HEADER) + "\n"
                   "1,2,a,b,VV,not_a_number,1,,,\n")
    assert run_cli("summarize", str(bad)) == 2
    assert capsys.readouterr().err.startswith(f"data error: {bad}:2: invalid literal for int()")


# integers as a writer never writes them: an input or score is read only
# as written, so no two stored spellings of one input merge
NON_CANONICAL_INTEGERS = ["1_0", "+9", " 10 ", "-0", "010"]


@pytest.mark.parametrize("command", ["summarize", "rank"])
@pytest.mark.parametrize("fmt, field", [("csv", "input2"), ("csv", "score_num"),
                                        ("csv", "score_den"), ("json", "input2")])
@pytest.mark.parametrize("spelling", NON_CANONICAL_INTEGERS)
def test_archive_integer_not_written_as_writers_write_it_is_data_error(
        tmp_path, capsys, command, fmt, field, spelling):
    """An input or CSV score cell of the second stored candidate, spelled
    otherwise than the writers write it, is refused at its line or index."""
    cells = {"input2": "2", "score_num": "1", "score_den": "1", field: spelling}
    path = tmp_path / f"archive.{fmt}"
    if fmt == "csv":
        path.write_text(",".join(CSV_HEADER) + "\n1,2,a,b,VV,1,1,,,bcs\n"
                        "3,{input2},a,b,VV,{score_num},{score_den},,,bcs\n".format(**cells))
        where = f"{path}:3: "
    else:
        path.write_text(json.dumps({"candidates": [{
            "input1": input1, "input2": input2,
            "output1": {"status": "valid", "text": "a"}, "output2": {"status": "valid", "text": "b"},
            "validity": "VV", "score": {"num": 1, "den": 1}, "strategies": ["bcs"]}
            for input1, input2 in (("1", "2"), ("3", spelling))]}))
        where = f"{path}: candidate #1: "
    assert run_cli(command, str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (f"data error: {where}non-canonical integer {spelling!r}, "
                                       f"expected {str(int(spelling))!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["summarize", "rank"])
def test_old_csv_header_is_data_error(tmp_path, capsys, command):
    old = tmp_path / "old.csv"
    old.write_text("input1,input2,output1,output2,validity,score_num,score_den\n"
                   "1,2,a,b,VV,1,1\n")
    out = tmp_path / ("rep" if command == "summarize" else "ranked.csv")
    assert run_cli(command, str(old), "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"data error: {old}:1: old 7-column format without "
                                       "error sides; use the run's archive.json\n")


def test_summarize_missing_archive_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert run_cli("summarize", str(missing), "--out", str(tmp_path / "rep")) == 2
    assert capsys.readouterr().err == f"data error: {missing}: No such file or directory\n"
    for suffix in (".csv", ".json"):
        binary = tmp_path / f"binary{suffix}"
        binary.write_bytes(b"\xff\xfe")
        assert run_cli("summarize", str(binary), "--out", str(tmp_path / "rep")) == 2
        assert capsys.readouterr().err.startswith(f"data error: {binary}: not UTF-8 text")


def test_rank_malformed_report_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("detect", "--sut", "bytecount", "--iterations", "50", "--out", str(out))
    report = tmp_path / "report.json"
    report.write_text("{\"groups\": [\n")
    assert run_cli("rank", str(out / "archive.json"), "--report", str(report),
                   "--out", str(tmp_path / "ranked.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {report}:2: invalid JSON: Expecting value")
    report.write_text("[]")
    assert run_cli("rank", str(out / "archive.json"), "--report", str(report),
                   "--out", str(tmp_path / "ranked.csv")) == 2
    assert capsys.readouterr().err.startswith(f"data error: {report}: not a cluster report")
    # each member is a list of two strings in one cluster, each validity a
    # string and each cluster id an integer; a refusal names group and cluster
    good = {"id": 1, "members": [["999", "1000"]]}
    for clusters, message in [
        ([good, {"id": 2, "members": ["ab"]}],
         "group #0 cluster #1: a member must be a list of two strings, got 'ab'"),
        ([{"id": 1, "members": [["999"]]}],
         "group #0 cluster #0: a member must be a list of two strings, got ['999']"),
        ([{"id": 1, "members": [["999", 1000]]}],
         "group #0 cluster #0: a member must be a list of two strings, got ['999', 1000]"),
        ([good, {"id": 2, "members": [["5", "6"], ["999", "1000"]]}],
         "group #0 cluster #1: member ['999', '1000'] is in cluster VE/1 too"),
        ([{"id": "1", "members": []}], "group #0 cluster #0: id must be an integer, got str '1'"),
        ([{"id": True, "members": []}], "group #0 cluster #0: id must be an integer, got bool True"),
        ([good, {"members": []}], "group #0 cluster #1: not a cluster report (KeyError: 'id')"),
    ]:
        report.write_text(json.dumps({"groups": [{"validity": "VE", "clusters": clusters}]}))
        assert run_cli("rank", str(out / "archive.json"), "--report", str(report),
                       "--out", str(tmp_path / "ranked.csv")) == 2
        assert capsys.readouterr().err == f"data error: {report}: {message}\n"
    report.write_text(json.dumps({"groups": [{"validity": "VE", "clusters": [good]},
                                             {"validity": 3, "clusters": [good]}]}))
    assert run_cli("rank", str(out / "archive.json"), "--report", str(report),
                   "--out", str(tmp_path / "ranked.csv")) == 2
    assert capsys.readouterr().err == (
        f"data error: {report}: group #1 cluster #0: validity must be a string, got int 3\n")


def test_rank_report_labelling_no_candidate_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("detect", "--sut", "bytecount", "--iterations", "50", "--out", str(out))
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"groups": [{"validity": "VV", "clusters": [
        {"id": 1, "members": [["1", "2"]]}]}]}))
    ranked = tmp_path / "ranked.csv"
    assert run_cli("rank", str(out / "archive.json"), "--report", str(report),
                   "--top", "1", "--out", str(ranked)) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {report}: labels none of the ")
    assert not ranked.exists()


# one candidate of a valid JSON archive; each case below spoils one field
ARCHIVE_ENTRY = {
    "input1": "999", "input2": "1000",
    "output1": {"status": "valid", "text": "999B"},
    "output2": {"status": "error", "text": "ArgumentError(\"no\")",
                "error_kind": "argument_error"},
    "validity": "VE", "score": {"num": 1, "den": 1}, "strategies": ["bcs"],
}
SPOILED_ENTRIES = {
    "numeric text": (("output1", "text"), 5, "output1.text must be a string, got int 5"),
    "numeric error kind": (("output2", "error_kind"), 7,
                           "output2.error_kind must be a string, got int 7"),
    "numeric strategy": (("strategies",), ["bcs", 3], "strategy name must be a string, got int 3"),
    "strategy string": (("strategies",), "bcs", "strategies must be a list, got str 'bcs'"),
    "boolean score": (("score", "num"), True, "score.num must be an integer, got bool True"),
    "list payload": (("output2", "payload"), [1, 2],
                     "output2.payload must be a JSON object, got list [1, 2]"),
}


DELETED = object()   # a SPOILED_ENTRIES value that removes the field


def bad_archive_is_data_error(tmp_path, capsys, command, good, bad, where, message):
    """``command`` reads ``good`` and fails on ``bad`` with exit 2, naming
    the file, the place ``where`` in it and the fault."""
    out = ["--out", str(tmp_path / ("rep" if command == "summarize" else "ranked.csv"))]
    assert run_cli(command, str(good), *out) == 0
    capsys.readouterr()
    assert run_cli(command, str(bad), *out) == 2
    assert capsys.readouterr().err == f"data error: {bad}{where}: {message}\n"


def spoiled_archive_is_data_error(tmp_path, capsys, command, keys, value, message):
    """A JSON archive whose second candidate has one field spoiled."""
    entry = json.loads(json.dumps(ARCHIVE_ENTRY))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"manifest": None, "candidates": [entry, entry]}))
    target = entry
    for key in keys[:-1]:
        target = target[key]
    if value is DELETED:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"manifest": None, "candidates": [ARCHIVE_ENTRY, entry]}))
    bad_archive_is_data_error(tmp_path, capsys, command, good, bad, ": candidate #1", message)


@pytest.mark.parametrize("command", ["summarize", "rank"])
@pytest.mark.parametrize("doc", [[ARCHIVE_ENTRY], {"manifest": None},
                                 {"candidates": {"0": ARCHIVE_ENTRY}}],
                         ids=["list", "no candidates", "candidates object"])
def test_archive_json_not_an_object_with_a_candidates_list_is_data_error(
        tmp_path, capsys, command, doc):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"manifest": None, "candidates": [ARCHIVE_ENTRY]}))
    bad.write_text(json.dumps(doc))
    bad_archive_is_data_error(tmp_path, capsys, command, good, bad, "",
                              "expected a JSON object with a candidates list")


@pytest.mark.parametrize("command", ["summarize", "rank"])
@pytest.mark.parametrize("case", SPOILED_ENTRIES)
def test_archive_json_with_non_string_field_is_data_error(tmp_path, capsys, command, case):
    spoiled_archive_is_data_error(tmp_path, capsys, command, *SPOILED_ENTRIES[case])


CONTRADICTING_ENTRIES = {
    "bad status": (("output1", "status"), "ok", "output1.status must be 'valid' or 'error', got 'ok'"),
    "error without kind": (("output2", "error_kind"), DELETED,
                           "output2: an error outcome needs an error_kind and a valid one has "
                           "none, got status 'error' with error_kind None"),
    "error with empty kind": (("output2", "error_kind"), "",
                              "output2: an error outcome needs an error_kind and a valid one has "
                              "none, got status 'error' with error_kind ''"),
    "valid with kind": (("output1", "error_kind"), "argument_error",
                        "output1: an error outcome needs an error_kind and a valid one has "
                        "none, got status 'valid' with error_kind 'argument_error'"),
    "validity disagrees": (("validity",), "VV", "validity 'VV', but the outcomes make VE"),
    "payload on a valid side": (("output1", "payload"), {"code": 1},
                                "output1: only an error outcome has a payload, got {'code': 1}"),
    "semicolon in strategy": (("strategies",), ["bcs;lns"],
                              "strategy name must be non-empty and have no ';', got 'bcs;lns'"),
    "empty strategy": (("strategies",), [""], "strategy name must be non-empty and have no ';', got ''"),
    "negative score": (("score", "den"), -2, "score must not be negative, got -1/2"),
    "equal inputs": (("input2",), "999", "inputs must be distinct and non-empty, with one "
                                         "arity, got '999' and '999'"),
    "inputs of two arities": (("input2",), "1000;1", "inputs must be distinct and non-empty, "
                                                     "with one arity, got '999' and '1000;1'"),
    "empty input": (("input1",), "", "inputs must be distinct and non-empty, with one arity, "
                                     "got '' and '1000'"),
}


@pytest.mark.parametrize("command", ["summarize", "rank"])
@pytest.mark.parametrize("case", CONTRADICTING_ENTRIES)
def test_archive_json_contradicting_itself_is_data_error(tmp_path, capsys, command, case):
    spoiled_archive_is_data_error(tmp_path, capsys, command, *CONTRADICTING_ENTRIES[case])


# one valid VE row of a CSV archive, then rows that each contradict themselves
CSV_GOOD_ROW = '999,1000,999B,"ArgumentError(""no"")",VE,1,1,,argument_error,bcs'
CONTRADICTING_ROWS = {
    "validity disagrees": ('999,1000,999B,"ArgumentError(""no"")",VV,1,1,,argument_error,bcs',
                           "validity 'VV', but the outcomes make VE"),
    "error side without kind": ('999,1000,999B,"ArgumentError(""no"")",VE,1,1,,,bcs',
                                "validity 'VE', but the outcomes make VV"),
    "empty strategy": ('999,1000,999B,"ArgumentError(""no"")",VE,1,1,,argument_error,bcs;',
                       "strategy name must be non-empty and have no ';', got ''"),
    "missing columns": ('999,1000,999B,"ArgumentError(""no"")",VE,1,1', "expected 10 fields, got 7"),
    "negative score": ('999,1000,999B,"ArgumentError(""no"")",VE,5,-1,,argument_error,bcs',
                       "score must not be negative, got -5"),
    "equal inputs": ('999,999,999B,"ArgumentError(""no"")",VE,1,1,,argument_error,bcs',
                     "inputs must be distinct and non-empty, with one arity, got '999' and '999'"),
    "inputs of two arities": ('999;1,1000,999B,"ArgumentError(""no"")",VE,1,1,,argument_error,bcs',
                              "inputs must be distinct and non-empty, with one arity, "
                              "got '999;1' and '1000'"),
    "empty inputs": (',,999B,"ArgumentError(""no"")",VE,1,1,,argument_error,bcs',
                     "inputs must be distinct and non-empty, with one arity, got '' and ''"),
}


@pytest.mark.parametrize("command", ["summarize", "rank"])
@pytest.mark.parametrize("case", CONTRADICTING_ROWS)
def test_archive_csv_contradicting_itself_is_data_error(tmp_path, capsys, command, case):
    row, message = CONTRADICTING_ROWS[case]
    header = ",".join(CSV_HEADER)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(f"{header}\n{CSV_GOOD_ROW}\n{CSV_GOOD_ROW}\n")
    bad.write_text(f"{header}\n{CSV_GOOD_ROW}\n{row}\n")
    bad_archive_is_data_error(tmp_path, capsys, command, good, bad, ":3", message)


def test_oracle_bytecount_window(tmp_path):
    out = tmp_path / "boundaries.csv"
    assert run_cli("oracle", "--sut", "bytecount", "--from", "0", "--to", "2000",
                   "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[1]) for r in rows] == [("9", "10"), ("99", "100"), ("999", "1000")]


def test_oracle_fixed_arguments(tmp_path):
    out = tmp_path / "date.csv"
    assert run_cli("oracle", "--sut", "date", "--vary", "2", "--fixed", "2021,2,1",
                   "--from", "25", "--to", "40", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[1]) for r in rows] == [("2021;2;28", "2021;2;29")]


def test_oracle_refuses_huge_window(tmp_path):
    assert run_cli("oracle", "--sut", "bytecount", "--from", "0",
                   "--to", str(2 * 10**8), "--out", str(tmp_path / "x.csv")) == 1


@pytest.mark.parametrize("argv, message", [
    (["--sut", "date", "--fixed", "2021,x,1"],
     "argument --fixed: 'x' in '2021,x,1' is not an integer, true or false"),
    (["--sut", "date", "--fixed", "2021,,1"],
     "argument --fixed: '' in '2021,,1' is not an integer, true or false"),
    (["--sut", "date"], "date has arity 3; fixed values are required"),
    (["--sut", "date", "--fixed", "2021,2"], "fixed tuple has 2 values; date has arity 3"),
    (["--sut", "date", "--fixed", "2021,2,1", "--vary", "3"],
     "vary index must be in 0..2 for date, got 3"),
    (["--sut", "date", "--fixed", "2021,2,1", "--vary=-1"],
     "vary index must be in 0..2 for date, got -1"),
    (["--sut", "bytecount", "--vary", "1"], "vary index must be in 0..0 for bytecount, got 1"),
    (["--sut", "bytecount", "--from", "5", "--to", "4"],
     "empty or negative window: stop must be >= start, got start 5 and stop 4"),
    *((["--sut", "date", "--fixed", f"2021,{part},1"],
       f"argument --fixed: {part!r} in '2021,{part},1' is not an integer, true or false")
      for part in NON_CANONICAL_INTEGERS),
])
def test_oracle_refusal_names_what_it_got(tmp_path, capsys, argv, message):
    out = tmp_path / "boundaries.csv"
    assert run_cli("oracle", "--from", "0", "--to", "3", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_oracle_empty_window(tmp_path):
    out = tmp_path / "none.csv"
    assert run_cli("oracle", "--sut", "bytecount", "--from", "5", "--to", "5",
                   "--out", str(out)) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1


def test_experiment_harness(tmp_path):
    out = tmp_path / "exp"
    assert run_cli("experiment", "--sut", "bytecount", "--reps", "2",
                   "--iterations", "800", "--seed", "0", "--restarts", "30",
                   "--out", str(out)) == 0
    doc = json.loads((out / "experiment.json").read_text())
    assert set(doc["strategies"]) == {"lns", "bcs"}
    for stats in doc["strategies"].values():
        assert len(stats["found"]) == 2
    assert doc["union_total"] >= max(
        max(s["found"]) for s in doc["strategies"].values())
    md = (out / "experiment.md").read_text()
    assert "## Candidates" in md and "## Cluster coverage" in md
    # unique counts never exceed the union
    assert all(s["unique"] <= doc["union_total"] for s in doc["strategies"].values())


@pytest.mark.parametrize("repetitions", [0, -1])
def test_run_experiment_refuses_fewer_than_one_repetition(monkeypatch, repetitions):
    """Refused before any run or summary: with no runs, experiment.md would
    have no mean to show."""
    import autobva.experiment as experiment

    for name in ("detect", "summarize"):
        monkeypatch.setattr(experiment, name, lambda *args, **kwargs: pytest.fail("ran"))
    with pytest.raises(ValueError, match=f"repetitions must be at least 1, got {repetitions}"):
        experiment.run_experiment(get_sut("bytecount"), DetectionConfig(budget={"iterations": 10}),
                                  repetitions=repetitions)


@pytest.mark.parametrize("restarts", [0, -1])
def test_run_experiment_refuses_fewer_than_one_restart(monkeypatch, restarts):
    import autobva.experiment as experiment

    for name in ("detect", "summarize"):
        monkeypatch.setattr(experiment, name, lambda *args, **kwargs: pytest.fail("ran"))
    with pytest.raises(ValueError, match=f"summarize_restarts must be at least 1, got {restarts}"):
        experiment.run_experiment(get_sut("bytecount"), DetectionConfig(budget={"iterations": 10}),
                                  summarize_restarts=restarts)


def test_external_sut_through_cli(tmp_path):
    script = tmp_path / "wrap.sh"
    script.write_text("#!/bin/sh\nif [ \"$1\" -lt 100 ]; then echo small; else echo big; fi\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    out = tmp_path / "oracle.csv"
    assert run_cli("oracle", "--sut", f"external:{script}", "--from", "95",
                   "--to", "105", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[1]) for r in rows] == [("99", "100")]


# An external SUT with every kind of outcome: output, errors with and without
# stderr, and, on the run's first sampled input, a run past the timeout.  An
# odd last digit adds a word, so neighbouring inputs print texts of different
# lengths and every one-step pair scores above 0; BCS then never expands, and
# its first steps reach an exit code 5 at a last digit of 2.
CONCURRENT_SUT = """#!/bin/sh
case "$1" in
  *[13579]) odd=" odd" ;;
  *) odd="" ;;
esac
case "$1" in
  {slow}) exec sleep 1 ;;
  -*) echo "negative $1$odd" >&2; exit 3 ;;
  *[27]) exit 5 ;;
  true|false) echo "flag $1" ;;
  *) echo "${{#1}} digits$odd" ;;
esac
"""


@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_external_detect_is_identical_at_any_jobs(tmp_path, strategy):
    seed = 3
    first, _ = sample_arguments(get_sut("bytecount"), SamplerConfig(seed=seed), Random(seed))
    script = tmp_path / "sut.sh"
    script.write_text(CONCURRENT_SUT.format(slow=render_value(first[0])))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    elapsed = re.compile(rb'"elapsed_seconds": [0-9.e-]+')
    runs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("detect", "--sut", f"external:{script}", "--strategy", strategy,
                       "--iterations", "12", "--seed", str(seed), "--timeout", "0.2",
                       "--jobs", jobs, "--out", str(out)) == 0
        runs.append({name: elapsed.sub(b'"elapsed_seconds": 0', (out / name).read_bytes())
                     for name in ("archive.csv", "archive.json", "manifest.json")})
    assert runs[0] == runs[1]
    for text in (b"timeout after 0.2s", b"negative ", b"exit code 5", b" digits"):
        assert text in runs[0]["archive.json"]
    assert json.loads(runs[0]["manifest.json"])["counts"]["samples"] == 12


# A Python external SUT: errors below zero, and an odd last digit adds a
# word, so one-step pairs differ in length above zero; below it, BCS expands
# until the number of digits changes.
PYTHON_SUT = """#!{python} -IS
import sys
v = sys.argv[1]
if v.startswith("-"):
    sys.stderr.write("negative " + v + "\\n")
    sys.exit(3)
print(str(len(v)) + " digits" + (" odd" if v[-1] in "13579" else ""))
"""


@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_external_detect_executions_budget_is_identical_at_any_jobs(tmp_path, strategy):
    script = tmp_path / "sut.py"
    script.write_text(PYTHON_SUT.format(python=sys.executable))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    elapsed = re.compile(rb'"elapsed_seconds": [0-9.e-]+')
    runs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("detect", "--sut", f"external:{script}", "--strategy", strategy,
                       "--executions", "30", "--seed", "2", "--jobs", jobs,
                       "--out", str(out)) == 0
        runs.append({name: elapsed.sub(b'"elapsed_seconds": 0', (out / name).read_bytes())
                     for name in ("archive.csv", "archive.json", "manifest.json")})
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0]["manifest.json"])
    assert manifest["budget"] == {"executions": 30}
    assert manifest["counts"]["executions"] >= 30
    assert b"negative " in runs[0]["archive.json"] and b" digits odd" in runs[0]["archive.json"]


@pytest.mark.parametrize("command", ["detect", "experiment"])
def test_budget_flags_exclude_each_other(command, capsys):
    for flags in (["--executions", "5", "--iterations", "5"],
                  ["--executions", "5", "--seconds", "1"],
                  ["--seconds", "1", "--iterations", "5"]):
        assert run_cli(command, "--sut", "bytecount", *flags) == 1
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command, budget", [
    ("detect", {"seconds": 30.0}),
    ("experiment", {"iterations": 1000}),
])
def test_default_budgets(monkeypatch, tmp_path, command, budget):
    """Without a budget flag, detect searches for 30 seconds and each
    experiment run draws 1000 samples."""
    import autobva.cli as cli
    import autobva.experiment as experiment

    configs = []

    class Captured(Exception):
        pass

    def capture(sut, config, *args, **kwargs):
        configs.append(config)
        raise Captured   # stops the command before any search

    monkeypatch.setattr(cli, "detect", capture)
    monkeypatch.setattr(experiment, "run_experiment", capture)
    with pytest.raises(Captured):
        run_cli(command, "--sut", "bytecount", "--out", str(tmp_path / "out"))
    assert [config.budget for config in configs] == [budget]


def test_flags_default_to_the_library_defaults(monkeypatch):
    """Each run setting's default is stated once: the library's, or the one
    flag definition pinned here to the library's."""
    import inspect

    from autobva import cli
    from autobva.experiment import run_experiment
    from autobva.summarization import KMEANS_RESTARTS
    from autobva.suts import make_external_sut

    monkeypatch.delenv("AUTOBVA_SEED", raising=False)
    parser = cli.build_parser()
    args = parser.parse_args(["detect", "--sut", "date"])
    assert cli._detection_config(args) == DetectionConfig(budget={"seconds": 30.0})
    external = inspect.signature(make_external_sut).parameters
    for argv in (["detect"], ["experiment"], ["oracle", "--from", "0", "--to", "1"]):
        args = parser.parse_args([*argv, "--sut", "date"])
        assert (args.arity, args.timeout) == (external["arity"].default,
                                              external["timeout"].default)
    for argv in (["summarize", "archive.csv"], ["experiment", "--sut", "date"]):
        assert parser.parse_args(argv).restarts == KMEANS_RESTARTS
    restarts = inspect.signature(run_experiment).parameters["summarize_restarts"]
    assert restarts.default == KMEANS_RESTARTS
    repetitions = inspect.signature(run_experiment).parameters["repetitions"]
    assert parser.parse_args(["experiment", "--sut", "date"]).reps == repetitions.default


def _option_help(command, option, capsys) -> str:
    """The help ``command --help`` shows for ``option``, whitespace folded."""
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    text = capsys.readouterr().out
    return " ".join(re.search(rf"^  {option} .*?(?=^  -)", text, re.M | re.S).group().split())


@pytest.mark.parametrize("option", ["--sut", "--arity", "--timeout"])
def test_oracle_takes_the_sut_flags_of_detect(option, capsys):
    shown = {command: _option_help(command, option, capsys)
             for command in ("detect", "experiment", "oracle")}
    assert len(set(shown.values())) == 1 and len(shown["detect"]) > len(option) + 10, shown


def test_detect_executions_below_zero_is_usage_error(capsys):
    assert run_cli("detect", "--sut", "bytecount", "--executions", "-1") == 1
    assert capsys.readouterr().err.startswith("usage error: argument --executions: ")


# An external SUT that errs below zero and on inputs ending in 7, so its VE
# pairs have the error on either side; its error texts carry no prefix.
EITHER_SIDE_SUT = """#!/bin/sh
case "$1" in
  -*) echo "negative $1" >&2; exit 3 ;;
  *7) exit 5 ;;
  *) echo "${#1} digits" ;;
esac
"""


def test_csv_and_json_archives_read_and_summarize_alike(tmp_path):
    script = tmp_path / "sut.sh"
    script.write_text(EITHER_SIDE_SUT)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    runs = [(sut, strategy, "200") for sut in ("bytecount", "bmi", "bmi-class", "date")
            for strategy in ("lns", "bcs")]
    runs += [(f"external:{script}", strategy, "12") for strategy in ("lns", "bcs")]
    error_sides = set()
    for seed, (sut, strategy, iterations) in enumerate(runs):
        out = tmp_path / f"run{seed}"
        assert run_cli("detect", "--sut", sut, "--strategy", strategy, "--iterations", iterations,
                       "--seed", str(seed), "--out", str(out)) == 0
        from_csv = read_archive_csv(out / "archive.csv")
        from_json = read_archive_json(out / "archive.json")
        candidates, strategies = list(from_csv), from_csv.strategies
        assert candidates == list(from_json)
        assert strategies == from_json.strategies
        assert [(c.output1.error_kind, c.output2.error_kind) for c in candidates] == \
            [(c.output1.error_kind, c.output2.error_kind) for c in from_json]
        assert set(strategies) == {c.key for c in candidates}
        assert all(tags == {strategy} for tags in strategies.values())
        error_sides.update((sut, c.output1.error_kind, c.output2.error_kind)
                           for c in candidates if c.validity == "VE")
        reports = []
        for name in ("archive.csv", "archive.json"):
            rep = out / f"report-{name}"
            assert run_cli("summarize", str(out / name), "--restarts", "20", "--seed", "0",
                           "--out", str(rep)) == 0
            reports.append([(rep / f).read_bytes() for f in ("report.json", "report.md")])
        assert reports[0] == reports[1]
    external = f"external:{script}"
    assert {(external, "argument_error", None), (external, None, "argument_error"),
            ("bytecount", None, "bounds_error"), ("bmi", "domain_error", None)} <= error_sides


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the experiment files for bytecount, seed 0
GOLDEN_EXPERIMENT = {
    "experiment.json": "7f6f5bc0bd25c30a36fbdcbad38d89e7c8c09d64059e6544573fb215660d14da",
    "experiment.md": "fc33e673586c8aa51c1abb6c3cd3035ccbe732ca1af0e45890278f7fc933ac09",
}


def test_experiment_golden_outputs(tmp_path):
    out = tmp_path / "exp"
    assert run_cli("experiment", "--sut", "bytecount", "--reps", "2", "--iterations", "300",
                   "--restarts", "20", "--out", str(out)) == 0
    assert {name: _sha256(out / name) for name in GOLDEN_EXPERIMENT} == GOLDEN_EXPERIMENT


@pytest.mark.skipif(sys.platform != "linux", reason="restarts fork workers on Linux only")
def test_experiment_forks_no_worker_while_other_threads_run(tmp_path, monkeypatch):
    """The search threads of an external SUT are gone before summarize
    forks its k-means workers; Python 3.12 and later warn on a fork while
    other threads run."""
    import threading
    from multiprocessing.context import ForkProcess

    from autobva import summarization

    monkeypatch.setattr(summarization, "usable_cpus", lambda: 2)
    monkeypatch.setattr(summarization, "SPLIT_MIN_WORK", 0)
    threads_at_fork = []
    start = ForkProcess.start

    def counted_start(process):
        threads_at_fork.append(threading.active_count())
        start(process)

    monkeypatch.setattr(ForkProcess, "start", counted_start)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("experiment", "--sut", "external:/bin/echo", "--reps", "1",
                       "--iterations", "10", "--restarts", "10", "--jobs", "4",
                       "--out", str(tmp_path / "exp")) == 0
    assert threads_at_fork and set(threads_at_fork) == {1}
    assert not [w for w in caught if "fork" in str(w.message)]


# sha256 of ranked CSVs of one seeded bytecount BCS archive, under its flags
GOLDEN_RANKED = {
    "plain": "5339cc0296a65508b9d8f57ec9dcb24da207f3f9bacd884fe0075910815e9656",
    "top2": "08b9287f9d55a50509952e2b1d9d2bde89b93e6b70ffba71a74ca1fd5a691f7b",
    "report-top1": "6cae6ef917f6bf432d5097f94346b56fb5909f7565881020d68392604c0e68cf",
}


def test_rank_golden_outputs(tmp_path):
    run = tmp_path / "run"
    assert run_cli("detect", "--sut", "bytecount", "--iterations", "1500",
                   "--out", str(run)) == 0
    assert run_cli("summarize", str(run / "archive.json"), "--restarts", "20",
                   "--out", str(run)) == 0
    flags = {"plain": [], "top2": ["--top", "2"],
             "report-top1": ["--report", str(run / "report.json"), "--top", "1"]}
    digests = {}
    for name, extra in flags.items():
        out = tmp_path / f"{name}.csv"
        assert run_cli("rank", str(run / "archive.json"), *extra, "--out", str(out)) == 0
        digests[name] = _sha256(out)
    assert digests == GOLDEN_RANKED


# sha256 of manifest.json, elapsed time masked, for a run set up by --config
GOLDEN_CONFIG_MANIFEST = "2a280537ea20c3c74baffc8e5a726e5fd75e3ca3e7f423b8d782765ba66b770f"


def test_config_run_golden_manifest(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampling.method": "uniform", "sampling.cts": False,
                               "sampling.big_int_bit_cap": 96, "seed": 7}))
    out = tmp_path / "run"
    assert run_cli("detect", "--sut", "date", "--strategy", "lns", "--iterations", "300",
                   "--config", str(cfg), "--out", str(out)) == 0
    masked = re.sub(rb'"elapsed_seconds": [0-9.e-]+', b'"elapsed_seconds": 0',
                    (out / "manifest.json").read_bytes())
    assert hashlib.sha256(masked).hexdigest() == GOLDEN_CONFIG_MANIFEST


# Run in a fresh interpreter, so the modules it loads are its own.
IMPORT_GRAPH_SCRIPT = """
import sys
from pathlib import Path
from autobva import cli

out = Path(sys.argv[1])
archive = str(out / "run" / "archive.json")
assert cli.main(["detect", "--sut", "bytecount", "--iterations", "300", "--seed", "0",
                 "--out", str(out / "run")]) == 0
assert cli.main(["rank", archive, "--out", str(out / "ranked.csv")]) == 0
assert cli.main(["oracle", "--sut", "bytecount", "--from", "0", "--to", "2000",
                 "--out", str(out / "boundaries.csv")]) == 0
loaded = [name for name in ("numpy", "autobva.summarization", "subprocess",
                           "multiprocessing", "ctypes") if name in sys.modules]
assert not loaded, f"loaded {loaded}"
assert cli.main(["summarize", archive, "--restarts", "5", "--out", str(out / "report")]) == 0
import autobva
from autobva import kmeans
assert autobva.summarize.__module__ == kmeans.__module__ == "autobva.summarization"
print("ok")
"""


def test_detect_rank_and_oracle_load_no_numpy_or_subprocess(tmp_path):
    """Only clustering loads numpy, summarization, multiprocessing and
    ctypes, and only an external SUT loads subprocess; summarize still
    works in the same process."""
    import subprocess

    import autobva

    env = {**os.environ, "PYTHONPATH": str(Path(autobva.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "report" / "report.json").exists()


def _deep_json(path):
    path.write_text("[" * 100000 + "]" * 100000)
    return path


@pytest.mark.parametrize("command", ["summarize", "config", "report"])
def test_deeply_nested_json_is_data_error(tmp_path, capsys, command):
    deep = _deep_json(tmp_path / "deep.json")
    if command == "summarize":
        argv = ["summarize", str(deep), "--out", str(tmp_path / "rep")]
    elif command == "config":
        argv = ["detect", "--sut", "bytecount", "--iterations", "1", "--config", str(deep),
                "--out", str(tmp_path / "run")]
    else:
        run = tmp_path / "run"
        assert run_cli("detect", "--sut", "bytecount", "--iterations", "50",
                       "--out", str(run)) == 0
        capsys.readouterr()
        argv = ["rank", str(run / "archive.json"), "--report", str(deep),
                "--out", str(tmp_path / "ranked.csv")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"data error: {deep}: nested too deeply to parse\n"


@pytest.mark.parametrize("line", [1, 3])
@pytest.mark.parametrize("command", ["summarize", "rank"])
def test_csv_field_over_the_limit_is_data_error(tmp_path, capsys, command, line):
    from autobva.archive_io import CSV_FIELD_LIMIT
    rows = [",".join(CSV_HEADER), "1,2,a,b,VV,1,1,,,", "3,4,a,y,VV,1,1,,,"]
    rows[line - 1] = rows[line - 1].replace("a", "a" * (CSV_FIELD_LIMIT + 1), 1)
    path = tmp_path / "long.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / ("rep" if command == "summarize" else "ranked.csv")
    assert run_cli(command, str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {path}:{line}: field larger than field limit")
    assert not out.exists()


@pytest.fixture
def int_digits():
    """The default limit on decimal digits in int-string conversion, set for
    the test and restored after it."""
    held = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(held)


def test_big_int_cap_past_decimal_digit_limit_is_usage_error(tmp_path, capsys, monkeypatch,
                                                             int_digits):
    # 2 ** 14284 has 4300 digits, 2 ** 14285 has 4301
    assert len(str(1 << 14284)) == int_digits
    import autobva.detection as detection

    def drawn(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(detection, "sample_arguments", drawn)
    out = tmp_path / "run"
    assert run_cli("detect", "--sut", "date", "--strategy", "lns", "--iterations", "500",
                   "--seed", "1", "--big-int-bit-cap", "14286", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "usage error: sampling.big_int_bit_cap must be at most 14285, since Python converts "
        "integers of at most 4300 digits (sys.get_int_max_str_digits()), got 14286\n")
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampling.big_int_bit_cap": 14286}))
    assert run_cli("detect", "--sut", "date", "--iterations", "500", "--config", str(cfg),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {cfg}: sampling.big_int_bit_cap must be at most 14285")
    assert not out.exists()


@pytest.mark.parametrize("sut", ["date", "bytecount"])
@pytest.mark.parametrize("strategy", ["lns", "bcs"])
def test_big_int_cap_at_decimal_digit_limit_runs_and_reads_back(tmp_path, sut, strategy,
                                                                int_digits):
    out = tmp_path / "run"
    assert run_cli("detect", "--sut", sut, "--strategy", strategy, "--iterations", "300",
                   "--seed", "1", "--big-int-bit-cap", "14285", "--out", str(out)) == 0
    from_csv, from_json = read_archive_csv(out / "archive.csv"), read_archive_json(out / "archive.json")
    assert len(from_json) and [c.key for c in from_csv] == [c.key for c in from_json]
    if sut == "date":   # bytecount's boundaries all sit at small magnitudes
        assert max(len(part) for c in from_json for part in c.key) > 1000
