"""CSV output shared by the trace, scan and concentration writers.

One cell rule serves every table (and the CLI's `key=value` lines): None is
an empty cell, booleans are lowercase, floats are written with `repr` so
they round-trip exactly, and enums as their value.
"""

import csv
import io
from enum import Enum


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
