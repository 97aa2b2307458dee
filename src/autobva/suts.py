"""The built-in subject programs and the execution wrapper around them.

The four built-ins are value-faithful ports of small Julia functions,
including their quirks: ``bytecount`` keeps its float-log rounding bugs and
its out-of-bounds unit lookup, ``date`` validates against the proleptic
Gregorian calendar but converts through wrapping 64-bit rata-die arithmetic,
and the BMI pair divides in binary64 and rounds to one decimal before doing
anything else.  Executions never raise: errors are captured as outcomes.
Each built-in outcome is built in one ``ExecutionOutcome`` call, with the
bytes ``error_outcome`` would give, which costs about twice as much.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .values import (
    ARGUMENT_ERROR,
    DOMAIN_ERROR,
    ExecutionOutcome,
    InputTuple,
    bounds_error,
    error_outcome,
    render_value,
)


@dataclass(frozen=True)
class SutDescriptor:
    """A black-box program under test: arity, an invoker, and how many
    invocations may run at once (``concurrency``).

    In-process programs hold the interpreter lock while they run, so only
    programs in their own processes gain from a concurrency above 1.
    """

    name: str
    arity: int
    invoke: Callable[[InputTuple], ExecutionOutcome] = field(compare=False)
    concurrency: int = 1

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")


def execute(sut: SutDescriptor, inputs: InputTuple) -> ExecutionOutcome:
    """Run the program on one input tuple; any raised error becomes data."""
    if len(inputs) != sut.arity:
        raise ValueError(f"{sut.name} expects {sut.arity} arguments, got {len(inputs)}")
    try:
        return sut.invoke(inputs)
    except Exception as exc:  # user-supplied SUTs must not kill a run
        return error_outcome(ARGUMENT_ERROR, f"uncaught: {exc!r}")


# ---------------------------------------------------------------------------
# float helpers shared by the BMI programs


def render_float(x: float) -> str:
    """Shortest round-trip decimal, matching Julia's Float64 printing.

    ``repr`` already emits the shortest form; this only converts the
    exponent spelling (``1e+16`` -> ``1.0e16``) and the infinity/NaN names.
    """
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "-Inf" if x < 0 else "Inf"
    r = repr(x)
    if "e" in r:
        mantissa, _, exponent = r.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{int(exponent)}"
    return r


def round_one_decimal(x: float) -> float:
    # round(x*10)/10 in binary64 with ties-to-even, as the original code did;
    # the scaling's representation error is part of the observed behavior.
    if not math.isfinite(x):
        return x
    scaled = x * 10.0
    if not math.isfinite(scaled):
        return x
    return round(scaled) / 10.0


def _to_float(v: int) -> float:
    # round-to-nearest-even conversion; saturate on the (unsampleable) overflow
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# ---------------------------------------------------------------------------
# bytecount


_BYTE_UNITS = "kMGTPE"
_LOG_1000 = math.log(1000)


def bytecount(inputs: InputTuple) -> ExecutionOutcome:
    """Human-readable byte count, bugs included.

    Values below 1000 (all negatives, booleans) pass through as
    ``render_value(b) + "B"``.  Otherwise the unit exponent comes from a
    binary64 ``log`` quotient and the mantissa from a one-decimal format of a
    binary64 division, so e.g. 99950 renders as ``100.0 kB`` and 999950000
    carries over to ``1.0 GB``.  Exponents past the six known units produce a
    bounds error on the unit lookup.
    """
    (b,) = inputs
    if b < 1000:
        return ExecutionOutcome(render_value(b) + "B")
    f = _to_float(b)
    if math.isinf(f):
        exp = (len(str(b)) - 1) // 3
    else:
        exp = math.floor(math.log(f) / _LOG_1000)
    if exp > len(_BYTE_UNITS):
        return bounds_error(_BYTE_UNITS, exp)
    num = format(f / (1000.0 ** exp), ".1f")
    if float(num) >= 1000.0 and exp < len(_BYTE_UNITS):
        exp += 1
        if exp > len(_BYTE_UNITS):
            return bounds_error(_BYTE_UNITS, exp)
        num = format(f / (1000.0 ** exp), ".1f")
    return ExecutionOutcome(f"{num} {_BYTE_UNITS[exp - 1]}B")


# ---------------------------------------------------------------------------
# BMI

# every negative input gets this one outcome
_NEGATIVE_INPUT = error_outcome(DOMAIN_ERROR, "height or weight negative")


def _bmi_number(height: int, weight: int) -> float:
    h = _to_float(height) / 100.0
    try:
        v = _to_float(weight) / (h * h)
    except ZeroDivisionError:
        v = math.nan if weight == 0 else math.inf
    return round_one_decimal(v)


def bmi_value(inputs: InputTuple) -> ExecutionOutcome:
    """weight / (height/100)^2 rounded to one decimal; negatives are a domain error."""
    height, weight = inputs
    if height < 0 or weight < 0:
        return _NEGATIVE_INPUT
    return ExecutionOutcome(render_float(_bmi_number(height, weight)))


def bmi_classification(inputs: InputTuple) -> ExecutionOutcome:
    """Weight class of the one-decimal-rounded BMI value.

    Rounding happens before classification, so 24.95 lands on the 25.0 side.
    NaN fails every comparison and falls through to the last class, which is
    the observed behavior for (0, 0).
    """
    height, weight = inputs
    if height < 0 or weight < 0:
        return _NEGATIVE_INPUT
    v = _bmi_number(height, weight)
    if v < 18.5:
        label = "Underweight"
    elif v < 23.0:
        label = "Normal"
    elif v < 25.0:
        label = "Overweight"
    elif v < 30.0:
        label = "Obese"
    else:
        label = "Severely obese"
    return ExecutionOutcome(label)


# ---------------------------------------------------------------------------
# date


_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63

_CUMULATIVE_DAYS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _w64(x: int) -> int:
    x &= _INT64_MASK
    return x - (1 << 64) if x & _INT64_SIGN else x


def _wfld(a: int, b: int) -> int:
    return _w64(a // b)


def _wdiv(a: int, b: int) -> int:
    # truncating division, like the original's div()
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _w64(q)


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_month(year: int, month: int) -> int:
    return _DAYS_IN_MONTH[month - 1] + (1 if month == 2 and is_leap_year(year) else 0)


def rata_die(year: int, month: int, day: int) -> int:
    """Serial day number of a validated date, in wrapping 64-bit arithmetic.

    day 1 = 0001-01-01.  Huge years overflow exactly like the Int64 original,
    which is what produces the nonsense outputs observed for them.
    """
    yp = _w64(year - 1)
    cumulative = _CUMULATIVE_DAYS[month - 1] + (1 if month > 2 and is_leap_year(year) else 0)
    total = _w64(day + cumulative)
    total = _w64(total + _w64(365 * yp))
    total = _w64(total + _wfld(yp, 4))
    total = _w64(total - _wfld(yp, 100))
    total = _w64(total + _wfld(yp, 400))
    return total


def civil_from_rata_die(days: int) -> tuple:
    """Invert rata_die with the same wrapping semantics (100*z overflows first)."""
    z = _w64(days + 306)
    h = _w64(_w64(100 * z) - 25)
    a = _wfld(h, 3652425)
    b = _w64(a - _wfld(a, 4))
    y = _wfld(_w64(_w64(100 * b) + h), 36525)
    c = _w64(_w64(b + z) - _w64(365 * y))
    c = _w64(c - _wfld(y, 4))
    m = _wdiv(_w64(_w64(5 * c) + 456), 153)
    d = _w64(c - _wdiv(_w64(_w64(153 * m) - 457), 5))
    if m > 12:
        return _w64(y + 1), _w64(m - 12), d
    return y, m, d


def _pad(value: int, width: int) -> str:
    return f"-{abs(value):0{width}d}" if value < 0 else f"{value:0{width}d}"


def render_date(year: int, month: int, day: int) -> str:
    return f"{_pad(year, 4)}-{_pad(month, 2)}-{_pad(day, 2)}"


def date_ctor(inputs: InputTuple) -> ExecutionOutcome:
    """Proleptic Gregorian date constructor with the original's validation order."""
    year, month, day = inputs
    # conversion precedes validation in the original, so booleans show as 0/1
    year, month, day = int(year), int(month), int(day)
    if not 1 <= month <= 12:
        return ExecutionOutcome(f'ArgumentError("Month: {month} out of range (1:12)")',
                                ARGUMENT_ERROR, {"field": "month", "value": month})
    last = days_in_month(year, month)
    if not 1 <= day <= last:
        return ExecutionOutcome(f'ArgumentError("Day: {day} out of range (1:{last})")',
                                ARGUMENT_ERROR, {"field": "day", "value": day, "last": last})
    y, m, d = civil_from_rata_die(rata_die(year, month, day))
    return ExecutionOutcome(render_date(y, m, d))


# ---------------------------------------------------------------------------
# external commands


# Bytes an external run may write to each of stdout and stderr; a run that
# writes more is stopped, so a flood cannot exhaust memory before its timeout.
MAX_OUTPUT_BYTES = 1 << 20


class _OutputTooLarge(Exception):
    pass


def _read_output(proc, timeout: float) -> tuple:
    """The bytes a run wrote to stdout and to stderr, read as ``communicate``
    reads them but with each stream capped at ``MAX_OUTPUT_BYTES``.

    Raises ``subprocess.TimeoutExpired`` once ``timeout`` seconds have gone
    and ``_OutputTooLarge`` once a stream passes the cap; either way the
    run is still going.
    """
    import selectors
    import subprocess

    deadline = time.monotonic() + timeout
    output = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    with selectors.PollSelector() as selector:
        for stream in output:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            ready = selector.select(deadline - time.monotonic())
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            for key, _ in ready:
                data = os.read(key.fd, 32768)
                if not data:
                    selector.unregister(key.fileobj)
                    continue
                buffer = output[key.fileobj]
                buffer += data
                if len(buffer) > MAX_OUTPUT_BYTES:
                    raise _OutputTooLarge
    proc.wait(timeout=deadline - time.monotonic())
    return output[proc.stdout], output[proc.stderr]


def _decode(data: bytearray) -> str:
    # what text-mode pipes would give: UTF-8, escapes for other bytes, and
    # CRLF and CR read as newlines
    return data.decode("utf-8", "backslashreplace").replace("\r\n", "\n").replace("\r", "\n")


def make_external_sut(command: str, arity: int = 1, timeout: float = 5.0,
                      concurrency: int = 1) -> SutDescriptor:
    """Adapter for user programs: argv in, stdout out, nonzero exit = error.

    Output is read as UTF-8, with bytes that are not UTF-8 kept as backslash
    escapes, so such a program still yields an outcome.  Up to
    ``concurrency`` copies of the program run at once, so it must tolerate
    concurrent runs when that is above 1.  Each run gets its own pipes, and
    ``subprocess`` closes every other descriptor in the child, so no child
    holds another's pipe open.  Each run is also the leader of its
    own session: on a timeout, or once it writes more than
    ``MAX_OUTPUT_BYTES`` to stdout or stderr, its whole process group is
    killed, so nothing it started outlives the outcome.  A command with no
    program word (blank, or an empty quoted word first), or a timeout that
    is not finite and above 0, as ``--timeout`` refuses, is a ``ValueError``.
    """
    if not 0 < timeout < math.inf:   # NaN fails both comparisons
        raise ValueError(f"timeout must be finite and above 0, got {timeout}")
    # imported here: only external programs need them
    import shlex
    import signal
    import subprocess

    argv_prefix = shlex.split(command)
    if not argv_prefix or not argv_prefix[0]:   # Popen would run the first input
        raise ValueError("external SUT needs a command: external:<cmd>")

    def invoke(inputs: InputTuple) -> ExecutionOutcome:
        argv = argv_prefix + [render_value(v) for v in inputs]
        try:
            # a session of its own, so a timeout can kill all the program started
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    close_fds=True, start_new_session=True)
        except FileNotFoundError:
            return error_outcome(ARGUMENT_ERROR, f"command not found: {argv_prefix[0]}")
        except OSError as exc:
            return error_outcome(ARGUMENT_ERROR, f"cannot execute: {exc}")
        with proc:
            try:
                stdout, stderr = _read_output(proc, timeout)
            except subprocess.TimeoutExpired:
                return error_outcome(ARGUMENT_ERROR, f"timeout after {timeout}s")
            except _OutputTooLarge:
                return error_outcome(ARGUMENT_ERROR, f"output over {MAX_OUTPUT_BYTES} bytes")
            finally:
                if proc.returncode is None:   # timed out, over the cap or interrupted
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode == 0:
            return ExecutionOutcome(_decode(stdout).strip())
        message = _decode(stderr).strip() or f"exit code {proc.returncode}"
        return ExecutionOutcome(text=message, error_kind=ARGUMENT_ERROR,
                                payload={"exit_code": proc.returncode})

    return SutDescriptor(name=f"external:{command}", arity=arity, invoke=invoke,
                         concurrency=concurrency)


# ---------------------------------------------------------------------------
# registry


BUILTIN_SUTS = {
    "bytecount": SutDescriptor("bytecount", 1, bytecount),
    "bmi": SutDescriptor("bmi", 2, bmi_value),
    "bmi-class": SutDescriptor("bmi-class", 2, bmi_classification),
    "date": SutDescriptor("date", 3, date_ctor),
}


def get_sut(name: str, **external) -> SutDescriptor:
    """Look up a built-in by name, or build an ``external:<cmd>`` adapter
    with ``make_external_sut``'s keywords (``arity``, ``timeout``,
    ``concurrency``).  A built-in ignores their values, but an unknown
    keyword is a ``TypeError`` for either."""
    if name in BUILTIN_SUTS:
        inspect.signature(make_external_sut).bind(name, **external)
        return BUILTIN_SUTS[name]
    if name.startswith("external:"):
        return make_external_sut(name[len("external:"):], **external)
    raise ValueError(f"unknown SUT {name!r} (expected one of {sorted(BUILTIN_SUTS)} or external:<cmd>)")
