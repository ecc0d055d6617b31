"""Run reports: one solver run's result, and its table, CSV and JSON-lines forms."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import get_type_hints


@dataclass
class RunReport:
    """Counters and final state of one solver run at one target accuracy.

    ``IT`` counts assignments of a new outer iterate (including the final
    one made when the gradient target is reached); ``CO`` counts every oracle
    entry-point invocation of the run (made on its thread, so runs sharing
    an oracle each count their own); ``BGM_E`` / ``BGM_IT`` count inner-solver
    executions and their total iterations, and the property ``BGM_A`` is
    their ratio.  ``converged`` is False when an iteration cap ended the run
    instead of the gradient test.
    """

    epsilon: float
    IT: int
    CO: int
    BGM_E: int
    BGM_IT: int
    final_grad_norm: float
    final_f: float
    wall_time_s: float
    converged: bool = True

    @property
    def BGM_A(self):
        """Average inner iterations per execution, ``BGM_IT / BGM_E``
        (0.0 when no inner run was made)."""
        return self.BGM_IT / self.BGM_E if self.BGM_E else 0.0


# The one column schema of every format: the stored fields (name -> int,
# float or bool), with the derived BGM_A after BGM_IT.
_TYPES = get_type_hints(RunReport)
CSV_HEADER = list(_TYPES)
CSV_HEADER.insert(CSV_HEADER.index("BGM_IT") + 1, "BGM_A")
_CSV_ONLY = ("final_grad_norm", "final_f", "wall_time_s")  # not in the table
FORMATS = ("table", "csv", "jsonl")  # every emit_report format


def _cell(report, name):
    """Integers and flags as written, floats by their round-tripping
    ``repr``, BGM_A with four decimals."""
    value = getattr(report, name)
    if name == "BGM_A":
        return "%.4f" % value
    return repr(value) if _TYPES[name] is float else str(value)


def _parse_cell(line, name, cell):
    """The value of the cell in column ``name`` of CSV row ``line``."""
    kind = _TYPES[name]
    try:
        if kind is bool:
            return {"True": True, "False": False}[cell]
        return kind(cell)
    except (KeyError, ValueError):
        want = "True or False" if kind is bool else kind.__name__
        raise ValueError("row %d: %s must be %s, got %r"
                         % (line, name, want, cell)) from None


def emit_report(reports, format="table", sink=None):
    """Render run reports as an aligned table, CSV, or JSON lines.

    Counters print as integers and BGM_A with four decimals in all formats;
    the table shows every column but the final state and the time.  Writes
    to ``sink`` (a text stream; stdout when omitted) and also returns the
    rendered text.
    """
    if format not in FORMATS:
        raise ValueError("format must be one of %s" % (FORMATS,))
    if not reports:
        raise ValueError("no reports to emit")

    buf = io.StringIO()
    if format == "table":
        names = [name for name in CSV_HEADER if name not in _CSV_ONLY]
        header = [name.replace("_", "-") for name in names]
        rows = [["%.0e" % r.epsilon] + [_cell(r, name) for name in names[1:]]
                for r in reports]
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        for row in [header] + rows:
            buf.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n")
    elif format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([_cell(r, name) for name in CSV_HEADER])
    else:
        for r in reports:
            record = {name: getattr(r, name) for name in CSV_HEADER}
            record["BGM_A"] = round(r.BGM_A, 4)
            buf.write(json.dumps(record) + "\n")

    text = buf.getvalue()
    out = sink if sink is not None else sys.stdout
    out.write(text)
    return text


def parse_report_csv(text):
    """Parse ``emit_report(..., format='csv')`` output back into RunReports.

    Every stored field is rebuilt exactly.  A row with the wrong number of
    cells, a cell that does not parse as its column's type, or a BGM_A cell
    that disagrees with its four-decimal BGM_IT / BGM_E raises ValueError
    naming the row (1-based, counting the header).
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError("unexpected CSV header %r" % (header,))
    reports = []
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(CSV_HEADER):
            raise ValueError("row %d has %d columns, expected %d"
                             % (line, len(row), len(CSV_HEADER)))
        cells = dict(zip(CSV_HEADER, row))
        bgm_a = cells.pop("BGM_A")
        report = RunReport(**{k: _parse_cell(line, k, v) for k, v in cells.items()})
        if bgm_a != _cell(report, "BGM_A"):
            raise ValueError("row %d: BGM_A %s disagrees with BGM_IT / BGM_E = "
                             "%.4f" % (line, bgm_a, report.BGM_A))
        reports.append(report)
    return reports
