"""Experiment harness: dataset loading, accuracy sweeps, report formatting.

Reproduces the benchmarking protocol used throughout: start from the all-ones
vector with level estimate 1, sweep target accuracies, and report per-accuracy
counters (outer steps IT, oracle calls CO, inner executions BGM-E, inner
iterations BGM-IT, and their ratio BGM-A).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .accel import run_accel
from .basic import run_basic
from .oracles import Dataset, FdThirdOracle, ZeroComposite, logistic_oracle, quartic_oracle
from .reports import RunReport

CSV_HEADER = [
    "epsilon", "IT", "CO", "BGM_E", "BGM_IT", "BGM_A",
    "final_grad_norm", "final_f", "wall_time_s", "converged",
]

_FORMATS = ("table", "csv", "jsonl")


@dataclass
class RunConfig:
    """One harness invocation: a problem, a solver, and an accuracy sweep."""

    problem: str                      # "logistic" | "quartic"
    solver: str = "basic"             # "basic" | "accel"
    epsilons: list = field(default_factory=lambda: [1e-2, 1e-4, 1e-6, 1e-8])
    dataset_path: str | None = None   # logistic only; None => bundled dataset
    has_header: bool = False
    n: int | None = None              # quartic dimension
    m0: float = 1.0
    x0: str | np.ndarray = "ones"     # "ones" | "zeros" | explicit vector
    fd_tau: float | None = None       # replace third derivatives by differences
    max_outer: int = 100000
    max_inner: int = 10000

    def __post_init__(self):
        if self.problem not in ("logistic", "quartic"):
            raise ValueError("problem must be 'logistic' or 'quartic'")
        if self.solver not in ("basic", "accel"):
            raise ValueError("solver must be 'basic' or 'accel'")
        if not self.epsilons:
            raise ValueError("at least one target accuracy is required")
        if not all(0.0 < e < math.inf for e in self.epsilons):
            raise ValueError("target accuracies must be finite and positive")
        if not 0.0 < self.m0 < math.inf:
            raise ValueError("m0 must be finite and positive")
        if self.problem == "quartic" and (self.n is None or self.n < 1):
            raise ValueError("quartic problem needs a positive dimension n")
        if self.problem == "quartic" and self.dataset_path is not None:
            raise ValueError("dataset_path only applies to the logistic problem")
        if self.fd_tau is not None and not 0.0 < self.fd_tau < math.inf:
            raise ValueError("fd_tau must be finite and positive")


def bundled_dataset_path():
    """Path of the packaged 100-sample synthetic logistic dataset."""
    return str(resources.files("tensormin").joinpath("data/synth100.csv"))


def load_dataset(path, has_header=False):
    """Read a CSV of feature columns with a final {0,1} label column.

    An all-ones intercept column is prepended to the features.  Malformed
    rows, ragged rows, and non-binary labels are reported with their row
    number (1-based, counting the header if present).
    """
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if lineno == 1 and has_header:
                continue
            if not record or all(not cell.strip() for cell in record):
                continue
            if width is None:
                width = len(record)
                if width < 2:
                    raise ValueError(
                        "row %d has %d columns; need at least one feature "
                        "and a label" % (lineno, width)
                    )
            elif len(record) != width:
                raise ValueError(
                    "row %d has %d columns, expected %d" % (lineno, len(record), width)
                )
            try:
                vals = [float(cell) for cell in record]
            except ValueError:
                raise ValueError("row %d contains a non-numeric cell" % lineno) from None
            if vals[-1] not in (0.0, 1.0):
                raise ValueError(
                    "row %d label %r is not 0 or 1" % (lineno, record[-1])
                )
            rows.append(vals)
    if not rows:
        raise ValueError("dataset %s contains no data rows" % path)
    data = np.asarray(rows, dtype=float)
    features = np.hstack([np.ones((data.shape[0], 1)), data[:, :-1]])
    return Dataset(features=features, labels=data[:, -1])


def _load_data(cfg):
    """The logistic dataset ``cfg`` names (None for the quartic)."""
    if cfg.problem != "logistic":
        return None
    path = cfg.dataset_path if cfg.dataset_path is not None else bundled_dataset_path()
    return load_dataset(path, has_header=cfg.has_header)


def _build_oracle(cfg, data):
    if cfg.problem == "logistic":
        oracle = logistic_oracle(data)
    else:
        oracle = quartic_oracle(cfg.n)
    if cfg.fd_tau is not None:
        oracle = FdThirdOracle(oracle, cfg.fd_tau)
    return oracle


def _start_point(cfg, dim):
    if isinstance(cfg.x0, str):
        if cfg.x0 == "ones":
            return np.ones(dim)
        if cfg.x0 == "zeros":
            return np.zeros(dim)
        raise ValueError("x0 policy must be 'ones', 'zeros', or a vector")
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError("explicit x0 has shape %s, expected (%d,)" % (x0.shape, dim))
    return x0


def run_experiment(cfg, trace_sink=None):
    """Run the configured solver once per target accuracy on fresh counters.

    The dataset is read once per call; each accuracy gets a fresh oracle
    built from it, so its counters (and any finite-difference cache) start
    empty.  Returns the list of ``RunReport``s in the order of ``cfg.epsilons``.
    Solver exceptions are re-raised annotated with the failing accuracy.
    """
    solver = run_basic if cfg.solver == "basic" else run_accel
    composite = ZeroComposite()
    reports = []
    data = None
    for eps in cfg.epsilons:
        sink = None
        if trace_sink is not None:
            sink = lambda row, _e=eps: trace_sink(dict(row, epsilon=_e))
        try:
            if data is None:  # first accuracy: load errors are annotated too
                data = _load_data(cfg)
            oracle = _build_oracle(cfg, data)
            x0 = _start_point(cfg, oracle.n)
            _, report, _ = solver(
                oracle, composite, x0, cfg.m0, eps,
                max_outer=cfg.max_outer, max_inner=cfg.max_inner,
                trace_sink=sink,
            )
        except Exception as exc:
            raise type(exc)("epsilon=%g: %s" % (eps, exc)) from exc
        reports.append(report)
    return reports


def emit_report(reports, format="table", sink=None):
    """Render run reports as an aligned table, CSV, or JSON lines.

    Counters print as integers and BGM_A with four decimals in all formats.
    Writes to ``sink`` (a text stream; stdout when omitted) and also returns
    the rendered text.
    """
    if format not in _FORMATS:
        raise ValueError("format must be one of %s" % (_FORMATS,))
    if not reports:
        raise ValueError("no reports to emit")

    buf = io.StringIO()
    if format == "table":
        header = ("epsilon", "IT", "CO", "BGM-E", "BGM-IT", "BGM-A", "converged")
        rows = [
            ("%.0e" % r.epsilon, "%d" % r.IT, "%d" % r.CO,
             "%d" % r.BGM_E, "%d" % r.BGM_IT, "%.4f" % r.BGM_A, str(r.converged))
            for r in reports
        ]
        widths = [max(len(h), *(len(row[j]) for row in rows))
                  for j, h in enumerate(header)]
        buf.write("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n")
        for row in rows:
            buf.write("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n")
    elif format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([
                repr(r.epsilon), "%d" % r.IT, "%d" % r.CO, "%d" % r.BGM_E,
                "%d" % r.BGM_IT, "%.4f" % r.BGM_A,
                repr(r.final_grad_norm), repr(r.final_f), repr(r.wall_time_s),
                str(r.converged),
            ])
    else:
        for r in reports:
            record = asdict(r)
            record["BGM_A"] = round(r.BGM_A, 4)
            buf.write(json.dumps(record) + "\n")

    text = buf.getvalue()
    out = sink if sink is not None else sys.stdout
    out.write(text)
    return text


def parse_report_csv(text):
    """Parse ``emit_report(..., format='csv')`` output back into RunReports."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError("unexpected CSV header %r" % (header,))
    reports = []
    for row in reader:
        if not row:
            continue
        if row[9] not in ("True", "False"):
            raise ValueError("converged must be True or False, got %r" % (row[9],))
        reports.append(RunReport(
            epsilon=float(row[0]), IT=int(row[1]), CO=int(row[2]),
            BGM_E=int(row[3]), BGM_IT=int(row[4]), BGM_A=float(row[5]),
            final_grad_norm=float(row[6]), final_f=float(row[7]),
            wall_time_s=float(row[8]), converged=row[9] == "True",
        ))
    return reports
