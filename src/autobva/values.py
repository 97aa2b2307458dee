"""Value domain shared by all subject programs.

Arguments are arbitrary-precision integers or booleans.  Python's ``bool``
is a subtype of ``int``, which mirrors the integer type hierarchy the
subject programs were written against (``true + 1 == 2``), so values are
plain ``bool``/``int`` objects and an input is just a tuple of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

Value = int  # bool is accepted anywhere a Value is; isinstance(v, bool) distinguishes
InputTuple = tuple        # tuple[Value, ...]

BOUNDS_ERROR = "bounds_error"
ARGUMENT_ERROR = "argument_error"
DOMAIN_ERROR = "domain_error"

_JSON_TYPES = {str: "a string", int: "an integer", bool: "a bool", list: "a list", dict: "a JSON object"}

_ERROR_LABELS = {
    BOUNDS_ERROR: "BoundsError",
    ARGUMENT_ERROR: "ArgumentError",
    DOMAIN_ERROR: "DomainError",
}


def typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, so a bool is no integer;
    else a ValueError naming ``what`` and the JSON type it must have."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {type(value).__name__} {value!r}")
    return value


def render_value(v: Value) -> str:
    """Render a value the way the subject programs print it.

    Booleans render as ``false``/``true``; integers as plain decimal with a
    leading ``-`` for negatives and no digit grouping.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def parse_int(text: str) -> int:
    """The integer in ``text``, which must be written as ``str`` writes it:
    no ``+``, spaces, underscores or leading zeros, and no ``-0``."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"non-canonical integer {text!r}, expected {str(value)!r}")
    return value


def parse_value(text: str) -> Value:
    if text == "true":
        return True
    if text == "false":
        return False
    return parse_int(text)


def render_tuple(values: InputTuple) -> str:
    """Semicolon-joined rendering, used as one half of a candidate's identity key."""
    return ";".join(render_value(v) for v in values)


def parse_tuple(text: str) -> InputTuple:
    if text == "":
        return ()
    return tuple(parse_value(part) for part in text.split(";"))


def display_tuple(values: InputTuple) -> str:
    """Human-facing rendering: bare value for arity 1, ``(a,b,...)`` otherwise."""
    if len(values) == 1:
        return render_value(values[0])
    return "(" + ",".join(render_value(v) for v in values) + ")"


@dataclass(frozen=True, init=False)
class ExecutionOutcome:
    """The observed result of one execution: a rendered output or a captured error.

    ``text`` is the string the rest of the pipeline compares; for errors it is
    the rendered error (e.g. ``BoundsError("kMGTPE", 7)``) so that two distinct
    errors can still be told apart by string distance.
    """

    text: str
    error_kind: Optional[str] = None   # None for valid outcomes
    payload: dict = field(default_factory=dict, compare=False)

    def __init__(self, text: str, error_kind: Optional[str] = None,
                 payload: Optional[dict] = None):
        # One outcome per execution: filling the instance dict directly is
        # cheaper than the frozen dataclass's object.__setattr__ per field.
        d = self.__dict__
        d["text"] = text
        d["error_kind"] = error_kind
        d["payload"] = {} if payload is None else payload

    @property
    def is_valid(self) -> bool:
        return self.error_kind is None

    @property
    def status(self) -> str:
        return "valid" if self.error_kind is None else "error"


def error_outcome(kind: str, message: str, **payload) -> ExecutionOutcome:
    """Build an error outcome with the canonical ``Kind("message")`` text."""
    label = _ERROR_LABELS.get(kind, "Error")
    # ``**payload`` already collected into a fresh dict
    return ExecutionOutcome(f'{label}("{message}")', kind, payload)


def bounds_error(accessed: str, index: int) -> ExecutionOutcome:
    """Out-of-range string access, rendered like ``BoundsError("kMGTPE", 7)``."""
    return ExecutionOutcome(
        text=f'BoundsError("{accessed}", {index})',
        error_kind=BOUNDS_ERROR,
        payload={"accessed": accessed, "index": int(index)},
    )
