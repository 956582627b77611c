"""CSV output shared by the trace, scan and concentration writers."""

import csv
import io


def write_csv(header, rows, stream=None):
    """Write a header row and data rows as CSV; returns the text when no stream is given."""
    own = stream is None
    if own:
        stream = io.StringIO()
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return stream.getvalue() if own else None
