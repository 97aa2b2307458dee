"""Golden fixtures and behavioral properties of the built-in subject programs."""

import calendar
import dataclasses
import pickle
import shutil
import stat
import sys
import time
from datetime import date as pydate
from decimal import Decimal, getcontext
from random import Random

import pytest

from autobva.suts import (
    MAX_OUTPUT_BYTES,
    civil_from_rata_die,
    days_in_month,
    execute,
    get_sut,
    is_leap_year,
    make_external_sut,
    rata_die,
    render_float,
)
from autobva.values import (
    ARGUMENT_ERROR,
    DOMAIN_ERROR,
    ExecutionOutcome,
    error_outcome,
    render_value,
)

BC = get_sut("bytecount")
BMI = get_sut("bmi")
BMI_CLASS = get_sut("bmi-class")
DATE = get_sut("date")


def out(sut, *args):
    return execute(sut, args).text


# ---------------------------------------------------------------------------
# rendering


@pytest.mark.parametrize("value,text", [
    (False, "false"), (True, "true"),
    (0, "0"), (-10, "-10"), (10**30, str(10**30)),
])
def test_render_value(value, text):
    assert render_value(value) == text


@pytest.mark.parametrize("x,text", [
    (930000.0, "930000.0"), (9.8, "9.8"), (0.0, "0.0"),
    (float("inf"), "Inf"), (float("-inf"), "-Inf"), (float("nan"), "NaN"),
    (1e16, "1.0e16"), (3.4e42, "3.4e42"), (1e-05, "1.0e-5"),
])
def test_render_float(x, text):
    assert render_float(x) == text


def test_execution_outcome_contract():
    outcome = ExecutionOutcome("E", "argument_error", {"exit_code": 1})
    for field_name in ("text", "error_kind", "payload"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(outcome, field_name, None)
    twin = ExecutionOutcome(text="E", error_kind="argument_error", payload={"exit_code": 2})
    assert outcome == twin and hash(outcome) == hash(twin)      # payload is not compared
    assert outcome != ExecutionOutcome("E")
    first, second = ExecutionOutcome("x"), ExecutionOutcome("x")
    assert first.payload == {} and first.payload is not second.payload
    assert repr(first) == "ExecutionOutcome(text='x', error_kind=None, payload={})"
    assert [f.name for f in dataclasses.fields(ExecutionOutcome)] == \
        ["text", "error_kind", "payload"]
    changed = dataclasses.replace(outcome, text="F")
    assert (changed.text, changed.error_kind, changed.payload) == \
        ("F", "argument_error", {"exit_code": 1})
    assert pickle.loads(pickle.dumps(outcome)).payload == {"exit_code": 1}



# ---------------------------------------------------------------------------
# bytecount

BYTECOUNT_GOLDEN = [
    # passthrough below 1000, booleans included
    (False, "falseB"),
    (True, "trueB"),
    (-1, "-1B"),
    (0, "0B"),
    (9, "9B"),
    (10, "10B"),
    (-10, "-10B"),
    (-9, "-9B"),
    (999, "999B"),
    (-(10**30), "-1000000000000000000000000000000B"),
    (-(10**30 - 1), "-999999999999999999999999999999B"),
    # unit formatting, including the carry bug at 999.95 and its kin
    (1000, "1.0 kB"),
    (2099, "2.1 kB"),
    (9950, "9.9 kB"),
    (9951, "10.0 kB"),
    (99949, "99.9 kB"),
    (99950, "100.0 kB"),
    (999949, "999.9 kB"),
    (999950, "1.0 MB"),
    (9950001, "10.0 MB"),
    (999949999, "999.9 MB"),
    (999950000, "1.0 GB"),
    (99950000000000000, "100.0 PB"),
    (9950000000000002000, "10.0 EB"),
    (999999999999994822656, "1000.0 EB"),
    # unit lookup walks off the end of "kMGTPE"
    (999999999999994822657, 'BoundsError("kMGTPE", 7)'),
    (999999999999990520104160854016, 'BoundsError("kMGTPE", 9)'),
    (999999999999990520104160854017, 'BoundsError("kMGTPE", 10)'),
]


@pytest.mark.parametrize("value,text", BYTECOUNT_GOLDEN)
def test_bytecount_golden(value, text):
    assert out(BC, value) == text


def test_bytecount_small_values_pass_through():
    rng = Random(7)
    for _ in range(2000):
        v = rng.randint(-10**12, 999)
        assert out(BC, v) == f"{v}B"
    assert out(BC, False) == "falseB"
    assert out(BC, True) == "trueB"


def test_bytecount_bounds_error_payload():
    o = execute(BC, (999999999999994822657,))
    assert not o.is_valid
    assert o.error_kind == "bounds_error"
    assert o.payload == {"accessed": "kMGTPE", "index": 7}


def test_bytecount_determinism():
    for v in (999950, 999999999999994822657, -5, True):
        assert execute(BC, (v,)) == execute(BC, (v,))


# ---------------------------------------------------------------------------
# BMI

BMI_VALUE_GOLDEN = [
    ((0, 93), "Inf"),
    ((1, 93), "930000.0"),
    ((106, 11), "9.8"),
    ((106, 12), "10.7"),
    ((-1, 0), 'DomainError("height or weight negative")'),
    ((0, 0), "NaN"),
    ((-1, 1), 'DomainError("height or weight negative")'),
    ((0, 1), "Inf"),
    ((1, -1), 'DomainError("height or weight negative")'),
    ((1, 0), "0.0"),
]


@pytest.mark.parametrize("args,text", BMI_VALUE_GOLDEN)
def test_bmi_value_golden(args, text):
    assert out(BMI, *args) == text


BMI_CLASS_GOLDEN = [
    ((1, 0), "Underweight"),
    ((1, 1), "Severely obese"),
    ((21, 1), "Normal"),
    ((21, 2), "Severely obese"),
    ((26, 1), "Underweight"),
    ((26, 2), "Obese"),
    ((29, 1), "Underweight"),
    ((29, 2), "Overweight"),
    ((29, 3), "Severely obese"),
    ((101, 18), "Underweight"),
    ((101, 19), "Normal"),
    ((101, 30), "Obese"),
    ((101, 31), "Severely obese"),
    ((108, 26), "Normal"),
    ((108, 27), "Overweight"),
    ((115, 32), "Overweight"),
    ((115, 33), "Obese"),          # 24.95 rounds to 25.0 before classifying
    ((132, 44), "Obese"),
    ((133, 44), "Overweight"),
    ((133, 41), "Overweight"),
    ((134, 41), "Normal"),
    ((1015, 3087), "Severely obese"),
    ((1016, 3087), "Obese"),
    ((100088, 18482537), "Normal"),       # height +1 tips the rounded value below 18.5
    ((100089, 18482537), "Underweight"),
    ((-1, 0), 'DomainError("height or weight negative")'),
    ((0, 0), "Severely obese"),           # NaN fails every comparison
    ((1, -1), 'DomainError("height or weight negative")'),
    ((1, 0), "Underweight"),
]


@pytest.mark.parametrize("args,label", BMI_CLASS_GOLDEN)
def test_bmi_classification_golden(args, label):
    assert out(BMI_CLASS, *args) == label


def test_bmi_thresholds_verified_by_exact_arithmetic():
    # independent oracle: recompute the frozen label fixtures with exact
    # decimal arithmetic; all of them sit far from binary64 rounding noise
    getcontext().prec = 60
    cuts = [(Decimal("18.5"), "Underweight"), (Decimal("23.0"), "Normal"),
            (Decimal("25.0"), "Overweight"), (Decimal("30.0"), "Obese")]
    for (h, w), label in BMI_CLASS_GOLDEN:
        if h < 0 or w < 0 or (h == 0 and w == 0):
            continue
        if h == 0:
            expected = "Severely obese"  # infinite value
        else:
            v = Decimal(w) / (Decimal(h) / 100) ** 2
            v = v.quantize(Decimal("0.1"))
            expected = "Severely obese"
            for cut, name in cuts:
                if v < cut:
                    expected = name
                    break
        assert expected == label, (h, w)


def test_bmi_classification_pure_function_of_rounded_value():
    rng = Random(11)
    by_value = {}
    for _ in range(4000):
        h, w = rng.randint(0, 3000), rng.randint(0, 3000)
        value = out(BMI, h, w)
        label = out(BMI_CLASS, h, w)
        assert by_value.setdefault(value, label) == label


# ---------------------------------------------------------------------------
# date

DATE_GOLDEN = [
    ((-10000, 2, 3), "-10000-02-03"),
    ((-9999, 2, 3), "-9999-02-03"),
    ((-1, 9, 3), "-0001-09-03"),
    ((0, 9, 3), "0000-09-03"),
    ((9999, 5, 9), "9999-05-09"),
    ((10000, 5, 9), "10000-05-09"),
    ((0, 2, 0), 'ArgumentError("Day: 0 out of range (1:29)")'),   # year 0 is leap
    ((0, 2, 1), "0000-02-01"),
    ((330, 5, 0), 'ArgumentError("Day: 0 out of range (1:31)")'),
    ((330, 5, 1), "0330-05-01"),
    ((-8, 3, -1), 'ArgumentError("Day: -1 out of range (1:31)")'),
    ((-8, 3, 0), 'ArgumentError("Day: 0 out of range (1:31)")'),
    ((0, 0, 92), 'ArgumentError("Month: 0 out of range (1:12)")'),
    ((0, 1, 92), 'ArgumentError("Day: 92 out of range (1:31)")'),
    ((0, 4, 99), 'ArgumentError("Day: 99 out of range (1:30)")'),
    ((0, 4, 100), 'ArgumentError("Day: 100 out of range (1:30)")'),
    ((0, 999999999, 0), 'ArgumentError("Month: 999999999 out of range (1:12)")'),
    ((0, 1000000000, 0), 'ArgumentError("Month: 1000000000 out of range (1:12)")'),
    ((2021, 2, 29), 'ArgumentError("Day: 29 out of range (1:28)")'),
    ((2022, 2, 29), 'ArgumentError("Day: 29 out of range (1:28)")'),
    ((2021, 2, 28), "2021-02-28"),
    ((2020, 2, 29), "2020-02-29"),
    # Int64 wrap-around in the day-number decomposition for huge years
    ((757576862466481, 2, 21), "252522163911150-6028347736506391-02"),
    ((757576862466482, 2, 21), "-252522163911150-12056695473012777-30"),
]


@pytest.mark.parametrize("args,text", DATE_GOLDEN)
def test_date_golden(args, text):
    assert out(DATE, *args) == text


def test_month_check_precedes_day_check():
    assert "Month: 13" in out(DATE, 2000, 13, 99)


def test_leap_rules_against_calendar_module():
    for y in range(1, 3000):
        assert is_leap_year(y) == calendar.isleap(y)
        assert days_in_month(y, 2) == calendar.monthrange(y, 2)[1]


def test_rata_die_matches_datetime_ordinal():
    rng = Random(3)
    for _ in range(3000):
        y = rng.randint(1, 9999)
        m = rng.randint(1, 12)
        d = rng.randint(1, days_in_month(y, m))
        assert rata_die(y, m, d) == pydate(y, m, d).toordinal()


def test_rata_die_400_year_cycle():
    # proleptic extension beyond datetime's range: 400 years = 146097 days
    rng = Random(4)
    for _ in range(500):
        y = rng.randint(-10**6, 10**6)
        m = rng.randint(1, 12)
        d = rng.randint(1, days_in_month(y, m))
        assert rata_die(y + 400, m, d) - rata_die(y, m, d) == 146097


def test_date_round_trip_within_million_years():
    rng = Random(5)
    for _ in range(3000):
        y = rng.randint(-10**6, 10**6)
        m = rng.randint(1, 12)
        d = rng.randint(1, days_in_month(y, m))
        assert civil_from_rata_die(rata_die(y, m, d)) == (y, m, d)
        text = out(DATE, y, m, d)
        ys, ms, ds = text.rsplit("-", 2)
        assert (int(ys), int(ms), int(ds)) == (y, m, d)


def test_overflowed_years_render_inconsistently_with_inputs():
    y = 757576862466481
    text = out(DATE, y, 2, 21)
    assert str(y) not in text


def test_boolean_arguments_convert_before_validation():
    assert out(DATE, True, True, True) == "0001-01-01"
    assert out(DATE, 0, False, 1) == 'ArgumentError("Month: 0 out of range (1:12)")'


# ---------------------------------------------------------------------------
# error outcomes


@pytest.mark.parametrize("sut,args,kind,message,payload", [
    (DATE, (2000, 13, 1), ARGUMENT_ERROR, "Month: 13 out of range (1:12)",
     {"field": "month", "value": 13}),
    (DATE, (2001, 2, 29), ARGUMENT_ERROR, "Day: 29 out of range (1:28)",
     {"field": "day", "value": 29, "last": 28}),
    (BMI, (-1, 70), DOMAIN_ERROR, "height or weight negative", {}),
    (BMI_CLASS, (170, -1), DOMAIN_ERROR, "height or weight negative", {}),
], ids=["month", "day", "bmi", "bmi-class"])
def test_one_call_outcomes_equal_error_outcome(sut, args, kind, message, payload):
    """The built-ins build their errors in one constructor call, to the
    bytes the generic ``error_outcome`` gives, payload order included."""
    got, expected = execute(sut, args), error_outcome(kind, message, **payload)
    assert (got.text, got.error_kind, got.payload, list(got.payload)) == \
        (expected.text, expected.error_kind, expected.payload, list(expected.payload))


def test_negative_bmi_inputs_share_one_outcome_with_an_empty_payload():
    shared = execute(BMI, (-1, 70))
    assert execute(BMI_CLASS, (170, -1)) is shared and shared.payload == {}


# ---------------------------------------------------------------------------
# execution wrapper and external commands


def test_execute_checks_arity():
    with pytest.raises(ValueError):
        execute(BC, (1, 2))


@pytest.mark.parametrize("arity", [0, -1])
def test_arity_is_at_least_one(arity):
    with pytest.raises(ValueError, match="arity must be >= 1"):
        dataclasses.replace(BC, arity=arity)
    with pytest.raises(ValueError, match="arity must be >= 1"):
        make_external_sut("/bin/echo", arity=arity)


def test_execute_catches_sut_exceptions():
    from autobva.suts import SutDescriptor

    def boom(_):
        raise RuntimeError("kaput")

    o = execute(SutDescriptor("boom", 1, boom), (1,))
    assert not o.is_valid
    assert "kaput" in o.text


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_echo(tmp_path):
    sut = make_external_sut(_script(tmp_path, "echoer", 'echo "$1"'))
    o = execute(sut, (42,))
    assert o.is_valid and o.text == "42"
    assert execute(sut, (False,)).text == "false"


def test_external_failure_captures_stderr(tmp_path):
    sut = make_external_sut(_script(tmp_path, "failer", 'echo "broken $1" >&2; exit 3'))
    o = execute(sut, (1,))
    assert not o.is_valid
    assert o.text == "broken 1"
    assert o.payload["exit_code"] == 3


def test_external_output_that_is_not_utf8_keeps_its_bytes_as_escapes(tmp_path):
    """Bytes that are not UTF-8 become backslash escapes, on stdout and on
    stderr alike; UTF-8 text decodes as it is, with CRLF read as a newline."""
    path = tmp_path / "bytes.py"
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "out = sys.stdout if sys.argv[1] == '0' else sys.stderr\n"
        "out.buffer.write(b'\\xff\\xfe bad ' + sys.argv[1].encode() + b'\\r\\n'\n"
        "                 + 'caf\\u00e9\\r\\nend'.encode())\n"
        "sys.exit(int(sys.argv[1]))\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    sut = make_external_sut(str(path))
    assert execute(sut, (0,)) == ExecutionOutcome("\\xff\\xfe bad 0\ncafé\nend")
    failed = execute(sut, (3,))
    assert (failed.text, failed.error_kind, failed.payload) == \
        ("\\xff\\xfe bad 3\ncafé\nend", "argument_error", {"exit_code": 3})


def test_external_missing_command_is_an_outcome():
    sut = make_external_sut("/nonexistent/definitely-not-here")
    o = execute(sut, (1,))
    assert not o.is_valid
    assert "not found" in o.text


def test_external_timeout(tmp_path):
    sut = make_external_sut(_script(tmp_path, "sleeper", "sleep 30"), timeout=0.2)
    o = execute(sut, (1,))
    assert not o.is_valid
    assert "timeout" in o.text


def test_external_timeout_kills_what_the_program_started(tmp_path):
    """The subshell outlives a kill of the script alone and would write the
    marker a second later; killing the run's process group stops it."""
    marker = tmp_path / "marker"
    sut = make_external_sut(_script(tmp_path, "spawner", f"(sleep 1; touch {marker})\n"),
                            timeout=0.2)
    assert execute(sut, (1,)) == ExecutionOutcome('ArgumentError("timeout after 0.2s")',
                                                  "argument_error")
    time.sleep(1.5)
    assert not marker.exists()


OVER_CAP = ExecutionOutcome(f'ArgumentError("output over {MAX_OUTPUT_BYTES} bytes")',
                            "argument_error")


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_external_output_is_capped_per_stream(tmp_path, stream):
    """A stream may carry MAX_OUTPUT_BYTES; one byte more, or 2 MiB from a
    run that exits 0, ends the run with the cap outcome, not the timeout."""
    path = tmp_path / "writer.py"
    path.write_text(f"#!{sys.executable}\n"
                    "import sys\n"
                    f"sys.{stream}.buffer.write(b'x' * int(sys.argv[1]))\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    sut = make_external_sut(str(path), timeout=0.5)
    at_cap = execute(sut, (MAX_OUTPUT_BYTES,))
    assert at_cap.is_valid and at_cap.text == ("x" * MAX_OUTPUT_BYTES if stream == "stdout"
                                               else "")
    assert execute(sut, (MAX_OUTPUT_BYTES + 1,)) == OVER_CAP
    assert execute(sut, (2 * MAX_OUTPUT_BYTES,)) == OVER_CAP


@pytest.mark.skipif(shutil.which("yes") is None, reason="needs yes(1)")
def test_external_flood_ends_at_the_cap_well_before_its_timeout():
    """``yes`` writes until it is killed; the run stops at the cap."""
    sut = make_external_sut(shutil.which("yes"), timeout=0.5)
    t0 = time.perf_counter()
    assert execute(sut, ("y",)) == OVER_CAP
    assert time.perf_counter() - t0 < 0.25


@pytest.mark.parametrize("command", ["", " ", '""', "'' -n"])
def test_external_sut_needs_a_program_word(command):
    # Popen would otherwise run the first rendered input as the program
    with pytest.raises(ValueError, match="external SUT needs a command"):
        make_external_sut(command)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, 0.0, -1])
def test_external_sut_refuses_a_timeout_the_cli_refuses(timeout):
    # construction only: NaN and inf made every run an uncaught error, and
    # 0 or below made every run a timeout
    with pytest.raises(ValueError, match="timeout must be finite and above 0"):
        make_external_sut("/bin/echo", timeout=timeout)
    assert make_external_sut("/bin/echo", timeout=1e-3).name == "external:/bin/echo"


def test_get_sut_passes_make_external_sut_keywords_on():
    sut = get_sut("external:/bin/echo", arity=2, timeout=1.5, concurrency=3)
    assert (sut.arity, sut.concurrency) == (2, 3)
    assert get_sut("bytecount", arity=2, timeout=1.5, concurrency=3) is BC
    for name in ("external:/bin/echo", "bytecount"):
        with pytest.raises(TypeError, match="jobs"):
            get_sut(name, jobs=3)


def test_get_sut_rejects_unknown():
    with pytest.raises(ValueError):
        get_sut("quicksort")
    with pytest.raises(ValueError):
        get_sut("external:")
