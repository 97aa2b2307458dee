"""Serialization round trips and error reporting for malformed inputs."""

import json
from fractions import Fraction
from random import Random

import pytest

from autobva.archive_io import (
    CSV_HEADER,
    DataError,
    RunManifest,
    load_archives,
    load_json,
    read_archive_csv,
    read_archive_json,
    read_cluster_labels,
    read_sampler_config,
    write_archive_csv,
    write_archive_json,
    write_manifest,
    write_report_json,
    write_report_markdown,
)
from autobva.detection import Archive, DetectionConfig, detect, make_candidate
from autobva.distances import STRLEN
from autobva.sampling import SamplerConfig
from autobva.summarization import summarize
from autobva.suts import execute, get_sut

BC = get_sut("bytecount")


def executed_pair(sut, i1, i2):
    """The candidate of two executed inputs, scored under strlen."""
    o1, o2 = execute(sut, i1), execute(sut, i2)
    return make_candidate(i1, o1, i2, o2, STRLEN(o1.text, o2.text))


def _run(seed=0, iterations=1500, strategy="bcs"):
    cfg = DetectionConfig(strategy=strategy, budget={"iterations": iterations},
                          sampler=SamplerConfig(seed=seed))
    return cfg, detect(BC, cfg)


def test_csv_round_trip_is_bit_exact(tmp_path):
    _, result = _run()
    path = tmp_path / "archive.csv"
    write_archive_csv(path, result.archive)
    loaded = read_archive_csv(path)
    original = list(result.archive)
    assert len(loaded) == len(original)
    for a, b in zip(original, loaded):
        assert a.key == b.key
        assert a.output1.text == b.output1.text
        assert a.output2.text == b.output2.text
        assert (a.output1.error_kind, a.output2.error_kind) == \
            (b.output1.error_kind, b.output2.error_kind)
        assert a.validity == b.validity
        assert a.score == b.score
    assert {c.output2.error_kind for c in loaded} == {None, "bounds_error"}
    assert loaded.strategies == result.archive.strategies
    # the archive read back writes the same bytes
    path2 = tmp_path / "again.csv"
    write_archive_csv(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_quoting_survives_commas_and_quotes(tmp_path):
    from autobva.values import ExecutionOutcome
    from autobva.detection import BoundaryCandidate
    weird = BoundaryCandidate(
        (1,), ExecutionOutcome(text='a,"b"'),
        (2,), ExecutionOutcome(text="plain"),
        Fraction(1),
    )
    archive = Archive()
    archive.add(weird)
    path = tmp_path / "weird.csv"
    write_archive_csv(path, archive)
    read = read_archive_csv(path)
    (loaded,) = read
    assert loaded.output1.text == 'a,"b"'
    assert read.strategies == {}


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n")
    with pytest.raises(DataError) as err:
        read_archive_csv(path)
    assert err.value.line == 1


def test_csv_reports_offending_line(tmp_path):
    _, result = _run(iterations=300)
    path = tmp_path / "archive.csv"
    write_archive_csv(path, result.archive)
    lines = path.read_text().splitlines()
    lines[2] = "mangled row"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        read_archive_csv(path)
    assert err.value.line == 3


def test_csv_rejects_old_header(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("input1,input2,output1,output2,validity,score_num,score_den\n"
                    "999,1000,999B,ArgumentError(\"no\"),VE,1,1\n")
    with pytest.raises(DataError) as err:
        read_archive_csv(path)
    assert err.value.line == 1
    assert str(err.value) == (f"{path}:1: old 7-column format without error sides; "
                              "use the run's archive.json")


# An external program whose error text is its stderr, with no error prefix
# the outcome could be recognized by.
NEGATIVE_ERRS = """sh -c 'if [ "$0" -lt 0 ]; then echo "negative $0" >&2; exit 3; fi; echo "$0 ok"'"""


def _both_round_trips(tmp_path, archive):
    """The archive as read back from CSV and from JSON."""
    csv_path, json_path = tmp_path / "archive.csv", tmp_path / "archive.json"
    write_archive_csv(csv_path, archive)
    write_archive_json(json_path, archive)
    return [read_archive_csv(csv_path), read_archive_json(json_path)]


def test_external_ve_pair_keeps_its_error_side_through_csv(tmp_path):
    from autobva.suts import make_external_sut
    sut = make_external_sut(NEGATIVE_ERRS)
    archive = Archive()
    archive.add(executed_pair(sut, (0,), (-1,)), ("bcs",))
    (c,) = archive
    assert (c.output1.text, c.output1.error_kind) == ("negative -1", "argument_error")
    assert c.output2.is_valid
    for read in _both_round_trips(tmp_path, archive):
        (loaded,) = read
        assert loaded == c
        assert (loaded.output1.error_kind, loaded.output2.error_kind) == ("argument_error", None)
        assert read.strategies == {("-1", "0"): {"bcs"}}


def test_bounds_error_kind_survives_csv(tmp_path):
    big = 999999999999994822657
    archive = Archive()
    archive.add(executed_pair(BC, (big - 1,), (big,)), ("lns",))
    for read in _both_round_trips(tmp_path, archive):
        (loaded,) = read
        assert (loaded.output1.error_kind, loaded.output2.error_kind) == (None, "bounds_error")
        assert read.strategies == {loaded.key: {"lns"}}


def test_error_without_kind_is_data_error_in_both_formats(tmp_path):
    """An error side whose kind is missing no longer reads back as valid."""
    json_path = tmp_path / "archive.json"
    json_path.write_text(json.dumps({"manifest": None, "candidates": [{
        "input1": "999", "input2": "1000",
        "output1": {"status": "valid", "text": "999B"},
        "output2": {"status": "error", "text": "ArgumentError(\"no\")"},
        "validity": "VE", "score": {"num": 1, "den": 1}, "strategies": []}]}))
    with pytest.raises(DataError) as err:
        read_archive_json(json_path)
    assert str(err.value) == (f"{json_path}: candidate #0: output2: an error outcome needs an "
                              "error_kind and a valid one has none, got status 'error' "
                              "with error_kind None")
    csv_path = tmp_path / "archive.csv"
    csv_path.write_text(",".join(CSV_HEADER) + "\n"
                        '999,1000,999B,"ArgumentError(""no"")",VE,1,1,,,\n')
    with pytest.raises(DataError) as err:
        read_archive_csv(csv_path)
    assert str(err.value) == f"{csv_path}:2: validity 'VE', but the outcomes make VV"


def test_json_round_trip_with_manifest(tmp_path):
    cfg, result = _run(seed=5)
    manifest = RunManifest.from_result("bytecount", cfg, result)
    path = tmp_path / "archive.json"
    write_archive_json(path, result.archive, manifest)
    loaded = read_archive_json(path)
    meta = json.loads(path.read_text())["manifest"]
    assert len(loaded) == len(result.archive)
    assert meta["sut"] == "bytecount"
    assert meta["strategy"] == "bcs"
    assert meta["counts"]["candidates"] == len(result.archive)
    assert meta["counts"]["executions"] == result.executions
    assert meta["sampling"]["sampling.method"] == "bituniform"
    assert all(tags == {"bcs"} for tags in loaded.strategies.values())
    for a, b in zip(result.archive, loaded):
        assert a == b


def test_json_error_payload_survives(tmp_path):
    archive = Archive()
    big = 999999999999994822657
    archive.add(executed_pair(BC, (big - 1,), (big,)))
    path = tmp_path / "ve.json"
    write_archive_json(path, archive)
    (c,) = read_archive_json(path)
    assert c.output2.error_kind == "bounds_error"
    assert c.output2.payload == {"accessed": "kMGTPE", "index": 7}


def test_json_invalid_document(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        read_archive_json(path)


def test_load_json_names_the_file_for_every_fault(tmp_path):
    binary, broken = tmp_path / "binary.json", tmp_path / "broken.json"
    binary.write_bytes(b"\xff\xfe")
    broken.write_text('{\n "a": 1,\n}')
    cases = [(tmp_path / "missing.json", "No such file or directory"),
             (tmp_path, "Is a directory"),
             (binary, "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
             (broken, "invalid JSON: Expecting property name")]
    for path, message in cases:
        with pytest.raises(DataError) as err:
            load_json(path)
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}{':3' if path == broken else ''}: {message}")
    ok = tmp_path / "ok.json"
    ok.write_text('{"a": [1]}')
    assert load_json(ok) == {"a": [1]}


def test_inputs_equal_as_numbers_are_data_error(tmp_path):
    """true and 1 are one input to a program, so they make no pair."""
    path = tmp_path / "archive.csv"
    path.write_text(",".join(CSV_HEADER) + "\n1,true,a,b,VV,1,1,,,\n")
    with pytest.raises(DataError) as err:
        read_archive_csv(path)
    assert str(err.value) == (f"{path}:2: inputs must be distinct and non-empty, with one "
                              "arity, got '1' and 'true'")


def test_sampler_config_file_lays_typed_settings_over_its_base(tmp_path):
    base = SamplerConfig(method="uniform", cts=False, big_int_bit_cap=96, seed=4)
    assert base.settings() == {"sampling.method": "uniform", "sampling.cts": False,
                               "sampling.big_int_bit_cap": 96, "seed": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SamplerConfig().settings()))
    assert read_sampler_config(path, base) == SamplerConfig()
    path.write_text('{"seed": 9}')
    assert read_sampler_config(path, base) == SamplerConfig("uniform", False, 96, 9)
    path.write_text('{"seed": "9"}')
    with pytest.raises(DataError) as err:
        read_sampler_config(path, base)
    assert str(err.value) == f"{path}: seed must be an integer, got str '9'"


def test_cluster_labels_of_a_written_report(tmp_path):
    cfg, result = _run(seed=3, iterations=300)
    report = summarize(result.archive, Random(0), restarts=10)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    labels = read_cluster_labels(path)
    assert labels == {key: f"{validity}/{cluster_id}"
                      for key, (validity, cluster_id) in report.cluster_of().items()}
    assert len(labels) == len(result.archive)


def test_readers_keep_stored_candidates_at_any_score(tmp_path):
    """Detection never archives a score of 0, but a stored one, from a file
    written before that or by hand, reads back: an archive applies no
    threshold."""
    stored = Archive()
    for a, b in ((99948, 99949), (9, 10)):
        assert stored.add(executed_pair(BC, (a,), (b,)), ("lns",))
    assert [c.score for c in stored] == [0, 1]
    csv_path, json_path = tmp_path / "archive.csv", tmp_path / "archive.json"
    for read in _both_round_trips(tmp_path, stored) + [load_archives([csv_path, json_path])]:
        assert list(read) == list(stored)
        assert read.strategies == stored.strategies


def test_load_archives_merges_and_dedups(tmp_path):
    _, r1 = _run(seed=1)
    _, r2 = _run(seed=2)
    p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.json"
    write_archive_csv(p1, r1.archive)
    write_archive_json(p2, r2.archive)
    merged = load_archives([p1, p2])
    keys = {c.key for c in r1.archive} | {c.key for c in r2.archive}
    assert len(merged) == len(keys)
    # merging a file with itself adds nothing
    again = load_archives([p1, p1])
    assert len(again) == len(r1.archive)


def test_load_archives_unions_strategies_and_renders_keys_once(tmp_path, monkeypatch):
    import autobva.detection as detection
    _, lns = _run(seed=1, strategy="lns")
    _, bcs = _run(seed=1)
    p1, p2 = tmp_path / "lns.json", tmp_path / "bcs.json"
    write_archive_json(p1, lns.archive)
    write_archive_json(p2, bcs.archive)
    expected = Archive()
    expected.merge(lns.archive)
    expected.merge(bcs.archive)
    assert any(len(tags) == 2 for tags in expected.strategies.values())

    renders = []
    render = detection.render_tuple
    monkeypatch.setattr(detection, "render_tuple", lambda values: renders.append(1) or render(values))
    merged = load_archives([p1, p2])
    assert merged.strategies == expected.strategies
    # each candidate read renders its key once; Archive.add and the merge
    # loop read the kept key
    assert len(renders) == 2 * (len(lns.archive) + len(bcs.archive))


def test_load_archives_of_one_file_is_the_read_archive(tmp_path, monkeypatch):
    _, lns = _run(seed=1, strategy="lns")
    for path, read in ((tmp_path / "lns.json", read_archive_json),
                       (tmp_path / "lns.csv", read_archive_csv)):
        (write_archive_json if path.suffix == ".json" else write_archive_csv)(path, lns.archive)
        # the reader adds each candidate once; nothing copies them into a
        # second archive
        adds = []
        add = Archive.add
        monkeypatch.setattr(Archive, "add", lambda self, *args: adds.append(1) or add(self, *args))
        loaded = load_archives([path])
        monkeypatch.setattr(Archive, "add", add)
        assert len(adds) == len(lns.archive)
        reread = read(path)
        assert list(loaded) == list(reread) == list(lns.archive)
        assert loaded.strategies == reread.strategies == lns.archive.strategies


def test_manifest_file(tmp_path):
    cfg, result = _run(seed=3, iterations=200)
    manifest = RunManifest.from_result("bytecount", cfg, result)
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    doc = json.loads(path.read_text())
    assert doc["budget"] == {"iterations": 200}
    assert doc["threshold"] == "0"
    assert doc["counts"]["samples"] == 200


def test_report_files(tmp_path):
    _, result = _run(seed=4)
    report = summarize(result.archive, Random(0), restarts=30)
    md = tmp_path / "report.md"
    js = tmp_path / "report.json"
    write_report_markdown(md, report)
    write_report_json(js, report)
    text = md.read_text()
    assert "| ID | Validity |" in text
    assert "bcs found" in text
    doc = json.loads(js.read_text())
    assert doc["total_candidates"] == report.total_candidates
    for group in doc["groups"]:
        assert sum(c["size"] for c in group["clusters"]) == group["size"]
        for cluster in group["clusters"]:
            assert len(cluster["members"]) == cluster["size"]


def test_report_markdown_keeps_each_cluster_on_one_table_line(tmp_path):
    """An external program's stderr can span lines (a traceback, say); each
    line break in a cell is written as <br>, so no table row splits."""
    from autobva.detection import BoundaryCandidate
    from autobva.values import ExecutionOutcome
    texts = ["Traceback (most recent call last):\n  File \"x\"\nValueError: -1",
             "first\r\nsecond", "left\rright | more", "one line"]
    archive = Archive()
    for n, text in enumerate(texts):
        archive.add(BoundaryCandidate((n,), ExecutionOutcome(f"{n} ok"), (n + 10,),
                                      ExecutionOutcome(text, "argument_error"), Fraction(1)))
    report = summarize(archive, Random(0), restarts=10)
    md = tmp_path / "report.md"
    write_report_markdown(md, report)
    text = md.read_bytes().decode("utf-8")
    assert "\r" not in text
    table = [line for line in text.split("\n") if line.startswith("|")]
    assert all(line.endswith("|") for line in table)
    # a head and a rule per group, then one line per cluster
    assert len(table) == sum(2 + len(g.clusters) for g in report.groups)
    rep_texts = {c.representative.output2.text for g in report.groups for c in g.clusters}
    rendered = {"one line": "one line", "first\r\nsecond": "first<br>second",
                "left\rright | more": "left<br>right \\| more",
                texts[0]: "Traceback (most recent call last):<br>  File \"x\"<br>ValueError: -1"}
    for rep in rep_texts:
        assert f" {rendered[rep]} |" in text


# ---------------------------------------------------------------------------
# write_archive_json against the json module


def _reference_archive_json(archive, manifest=None) -> str:
    """The document ``write_archive_json`` must reproduce byte for byte,
    built as a dict and encoded by ``json.dumps(doc, indent=1)``."""
    from dataclasses import asdict

    from autobva.values import render_tuple

    def outcome(o):
        data = {"status": o.status, "text": o.text}
        if o.error_kind is not None:
            data["error_kind"] = o.error_kind
            if o.payload:
                data["payload"] = o.payload
        return data

    doc = {
        "manifest": asdict(manifest) if manifest else None,
        "candidates": [
            {
                "input1": render_tuple(c.input1),
                "input2": render_tuple(c.input2),
                "output1": outcome(c.output1),
                "output2": outcome(c.output2),
                "validity": c.validity,
                "score": {"num": c.score.numerator, "den": c.score.denominator},
                "strategies": sorted(archive.strategies.get(c.key, ())),
            }
            for c in archive
        ],
    }
    return json.dumps(doc, indent=1)


@pytest.fixture(scope="module")
def json_cases():
    import sys

    from autobva.detection import BoundaryCandidate
    from autobva.suts import make_external_sut
    from autobva.values import ExecutionOutcome

    cases = {"empty": (Archive(), None)}

    # bytecount BoundsError and date ArgumentError payloads, found by detect
    big = 999999999999994822657
    errors = Archive()
    errors.add(executed_pair(BC, (big - 1,), (big,)), ("bcs",))
    errors.add(executed_pair(get_sut("date"), (2021, 2, 28), (2021, 2, 29)), ("lns",))
    errors.add(executed_pair(get_sut("date"), (2021, 12, 1), (2021, 13, 1)))
    exits = make_external_sut(f"{sys.executable} -c 'import sys; sys.exit(int(sys.argv[1]))'")
    errors.add(executed_pair(exits, (0,), (3,)), ("bcs",))
    cases["error payloads"] = (errors, None)

    cfg, result = _run(seed=5, strategy="lns")
    manifest = RunManifest.from_result("bytecount", cfg, result)
    merged = Archive()
    merged.merge(result.archive)
    _, bcs = _run(seed=5)
    merged.merge(bcs.archive)
    bmi = detect(get_sut("bmi"), DetectionConfig(strategy="lns", budget={"iterations": 100}))
    for c in bmi.archive:
        merged.add(c)  # no strategy: written as an empty list
    assert any(len(tags) == 2 for tags in merged.strategies.values())
    assert any(c.key not in merged.strategies for c in merged)
    cases["merged with manifest"] = (merged, manifest)

    odd = Archive()
    texts = ['quote " and back\\slash', "tab\tnew\nline\r\x00\x1f\x7f", "kB éß   \U0001f600",
             "", "</script>", "\ud800 lone surrogate"]
    payloads = [
        lambda text: {"field": text, "value": -(10 ** 30), text: 0},  # flat, as programs write
        lambda text: {"field": text, "flag": True},                  # a bool is no int here
        lambda text: {"nested": {"list": [1, text, None, 2.5], "empty": {}}, "n": 1.0},
    ]
    for n, text in enumerate(texts):
        odd.add(BoundaryCandidate(
            (n, True), ExecutionOutcome(text),
            (n + 1, True), ExecutionOutcome(text, "argument_error", payloads[n % 3](text)),
            Fraction(n + 1, 3)), ("lns",) if n % 2 else ())
    odd.add(next(iter(odd)), ("zé", "a\"b", "lns"))
    cases["escapes"] = (odd, RunManifest(sut="external:echo é \"x\"", strategy="bcs", seed=-1,
                                         budget={"seconds": 0.5}, sampling={}, distance="strlen",
                                         threshold="0", counts={}, elapsed_seconds=1e-7))
    return cases


@pytest.mark.parametrize("case", ["empty", "error payloads", "merged with manifest", "escapes"])
def test_write_archive_json_equals_json_dumps(tmp_path, json_cases, case):
    archive, manifest = json_cases[case]
    path = tmp_path / "archive.json"
    write_archive_json(path, archive, manifest)
    assert path.read_bytes() == _reference_archive_json(archive, manifest).encode("utf-8")
    if case == "error payloads":
        kinds = {c.output2.error_kind for c in archive}
        assert kinds == {"bounds_error", "argument_error"}
        payloads = [c.output2.payload for c in archive]
        assert {"exit_code": 3} in payloads and {"accessed": "kMGTPE", "index": 7} in payloads


def test_csv_round_trip_of_the_longest_texts(tmp_path):
    """Texts as long as an external run can print: 1 MiB of bytes that are
    not UTF-8 decode to four characters each."""
    from autobva.suts import MAX_OUTPUT_BYTES, _decode
    from autobva.values import ExecutionOutcome
    longest = _decode(bytearray(b"\x80" * MAX_OUTPUT_BYTES))
    assert len(longest) == 4 * 2**20
    archive = Archive()
    for i, text in enumerate(("y" * 200000, longest)):
        archive.add(make_candidate((2 * i,), ExecutionOutcome(text), (2 * i + 1,),
                                   ExecutionOutcome("short"), Fraction(1)), ("lns",))
    path = tmp_path / "archive.csv"
    write_archive_csv(path, archive)
    loaded = read_archive_csv(path)
    assert [(c.key, c.output1.text, c.output2.text) for c in loaded] == \
        [(c.key, c.output1.text, c.output2.text) for c in archive]
