"""Parameter ranges, each stated once, on the record field that it bounds.

A field states its default and range with :func:`param`.  A record made
with :func:`checked` refuses a value outside a field's range, both on
construction and on ``dataclasses.replace``, with the message
``"{field} must be {range}, got {value}"``, or ``"{field} must be finite,
got {value}"`` for an infinite float inside the range.  The config parser
runs the same check and prints its text, with the key that sets the field
and its line: NaN lies in no range, so it gets the range's text.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple


class Range(NamedTuple):
    """The values a parameter may take: the text that messages print, and its test."""

    text: str
    holds: Callable[[object], bool]

    def check(self, name: str, value) -> None:
        """Raise ``"{name} must be {text}, got {value}"`` unless ``value`` lies in the range.

        An infinite float that the range's test lets through, as ``>= 0``
        does, is refused as ``"{name} must be finite, got {value}"``.  A
        ``bool`` lies in ``ON_OFF`` only, though it compares as 0 or 1.
        """
        if not self.holds(value) or value.__class__ is bool and self is not ON_OFF:
            raise ValueError(f"{name} must be {self.text}, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# The ranges that several fields or arguments share.
NON_NEGATIVE = Range(">= 0", lambda v: v >= 0.0)
POSITIVE = Range("> 0", lambda v: v > 0.0)
UNIT = Range("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
OPEN_UNIT = Range("in (0, 1)", lambda v: 0.0 < v < 1.0)
UNIT_ABOVE_0 = Range("in (0, 1]", lambda v: 0.0 < v <= 1.0)
UNIT_BELOW_1 = Range("in [0, 1)", lambda v: 0.0 <= v < 1.0)
ON_OFF = Range("on or off", lambda v: isinstance(v, bool))


def param(default=MISSING, *, within: Range):
    """A record field whose values lie ``within``; required unless ``default`` is given."""
    return field(default=default, metadata={"range": within})


def checked(cls: type) -> type:
    """Make ``cls`` a dataclass that checks each field stating a range, in field order.

    The fields to check are listed once, here, when the class is made.
    The class's own ``__post_init__``, if any, runs after the checks (it
    states, say, the rules that span fields).
    """
    rules = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        for name, within in ranged:
            within.check(name, getattr(self, name))
        if rules is not None:
            rules(self)

    cls.__post_init__ = __post_init__
    cls = dataclass(cls)
    ranged = tuple((f.name, f.metadata["range"]) for f in fields(cls) if "range" in f.metadata)
    return cls
