"""CSV output shared by the trace, scan and concentration writers, and the
rule by which a config record stores the values its cells are written from.

One cell rule serves every table (and the CLI's `key=value` lines): None is
an empty cell, booleans are lowercase, floats are written with `repr` so
they round-trip exactly, and enums as their value.

One field rule serves every config record (`InstanceSpec`, `HyperParams`,
`SolverConfig`, `SgdParams`, `ConcentrationTrial`, `CertTolerances`) and
the CLI's config reader: `field_value` checks a value against its field's
annotation and returns it as that type, and `store_fields` applies it to
each field of a record.
"""

import csv
import dataclasses
import io
import typing
from enum import Enum
from numbers import Integral, Real

import numpy as np

_SCALARS = {int: Integral, float: Real, bool: (bool, np.bool_)}


def cell(v):
    """The text of one output cell."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # numpy 2 reprs np.float64 as "np.float64(...)"
    if isinstance(v, Enum):
        return v.value
    return str(v)


def write_csv(header, rows, stream=None):
    """Write a header row and data rows as CSV; returns the text when no stream is given."""
    own = stream is None
    if own:
        stream = io.StringIO()
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    w.writerows([cell(v) for v in row] for row in rows)
    return stream.getvalue() if own else None


def field_value(name, value, tp):
    """`value` as the annotated type `tp` of the field `name`.

    An int field takes an integer and a float field a real, neither of them
    a bool; a bool field takes only a bool (np.bool_ included).  The three
    store the Python type, so numpy scalars become Python ones.  An enum
    field takes a member's value and stores the member; a `T | None` field
    also takes None; any other type (a nested record, a list) takes its
    instances.  A wrong type is a TypeError, and an enum value no member
    has a ValueError listing the members; both name `name`.
    """
    if type(None) in typing.get_args(tp):  # T | None
        if value is None:
            return None
        tp = next(t for t in typing.get_args(tp) if t is not type(None))
    if issubclass(tp, Enum):
        try:
            return tp(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be one of: {', '.join(m.value for m in tp)}") from None
    is_bool = isinstance(value, (bool, np.bool_))
    if is_bool != (tp is bool) or not isinstance(value, _SCALARS.get(tp, tp)):
        got = "a boolean" if is_bool else type(value).__name__
        raise TypeError(f"{name} must be {'int or float' if tp is float else tp.__name__}, got {got}")
    return tp(value) if tp in _SCALARS else value


def store_fields(record):
    """Check each field of the frozen dataclass `record` by `field_value` and store
    it as its annotated type; the first step of every config record's `__post_init__`."""
    for f in dataclasses.fields(record):
        object.__setattr__(record, f.name, field_value(f.name, getattr(record, f.name), f.type))
