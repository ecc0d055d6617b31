"""Experiment harness: dataset loading and accuracy sweeps.

Reproduces the benchmarking protocol used throughout: start from the all-ones
vector with level estimate 1, sweep target accuracies, and return one
``RunReport`` of counters per accuracy.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .accel import run_accel
from .basic import MAX_OUTER, run_basic
from .inner import MAX_INNER
from .oracles import (Dataset, FdThirdOracle, ZeroComposite, check_cap,
                      check_positive, logistic_oracle, quartic_oracle,
                      with_context)


@dataclass
class RunConfig:
    """One harness invocation: a problem, a start-point policy, a solver and
    an accuracy sweep; it accepts exactly what ``tensormin solve`` can say."""

    PROBLEMS = ("logistic", "quartic")  # the choices of the string fields
    SOLVERS = ("basic", "accel")
    X0_POLICIES = ("ones", "zeros")

    problem: str                      # one of PROBLEMS
    solver: str = "basic"             # one of SOLVERS
    epsilons: list = field(default_factory=lambda: [1e-2, 1e-4, 1e-6, 1e-8])
    dataset_path: str | None = None   # logistic only; None => bundled dataset
    has_header: bool = False
    n: int | None = None              # quartic dimension
    m0: float = 1.0
    x0: str = "ones"                  # one of X0_POLICIES
    fd_tau: float | None = None       # replace third derivatives by differences
    max_outer: int = MAX_OUTER
    max_inner: int = MAX_INNER

    def __post_init__(self):
        for name, choices in (("problem", self.PROBLEMS),
                              ("solver", self.SOLVERS),
                              ("x0", self.X0_POLICIES)):
            value = getattr(self, name)
            if not (isinstance(value, str) and value in choices):
                raise ValueError("%s must be %s, got %r" % (
                    name, " or ".join(map(repr, choices)), value))
        if not (isinstance(self.epsilons, (list, tuple)) and self.epsilons):
            raise ValueError("epsilons must be a non-empty list of target "
                             "accuracies, got %r" % (self.epsilons,))
        for k, eps in enumerate(self.epsilons):
            check_positive("epsilons[%d]" % k, eps)
        check_positive("m0", self.m0)
        if self.problem == "quartic":
            check_cap("n", self.n)
            if self.dataset_path is not None or self.has_header:
                raise ValueError("dataset_path and has_header only apply to "
                                 "the logistic problem")
        elif self.n is not None:
            raise ValueError("n only applies to the quartic problem, got %r"
                             % (self.n,))
        if self.fd_tau is not None:
            check_positive("fd_tau", self.fd_tau)
        check_cap("max_outer", self.max_outer)
        check_cap("max_inner", self.max_inner)


def bundled_dataset_path():
    """Path of the packaged 100-sample synthetic logistic dataset."""
    return str(resources.files("tensormin").joinpath("data/synth100.csv"))


def load_dataset(path, has_header=False):
    """Read a CSV of feature columns with a final {0,1} label column.

    An all-ones intercept column is prepended to the features.  Malformed
    rows, ragged rows, non-finite cells and non-binary labels are reported
    with their row number (1-based, counting the header if present), a
    non-numeric cell also with its column and text, and a file that is not
    UTF-8 text by the offset of its first undecodable byte.  A leading UTF-8
    byte-order mark is ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            # Dropping a byte-order mark ("CSV UTF-8") after decoding, unlike
            # "utf-8-sig", keeps offsets counted from the file's first byte.
            text = fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ValueError(
                "dataset %s is not UTF-8 text (byte 0x%02x at offset %d)"
                % (path, exc.object[exc.start], exc.start)) from None
    rows = []
    width = None
    for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
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
        vals = []
        for col, cell in enumerate(record, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise ValueError("row %d contains a non-numeric cell in "
                                 "column %d: %r" % (lineno, col, cell)) from None
        if not all(map(math.isfinite, vals)):
            raise ValueError("row %d contains a non-finite cell" % lineno)
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


def _build_oracle(cfg):
    """The oracle ``cfg`` names; a logistic one reads its dataset."""
    if cfg.problem == "logistic":
        path = cfg.dataset_path if cfg.dataset_path is not None else bundled_dataset_path()
        oracle = logistic_oracle(load_dataset(path, has_header=cfg.has_header))
    else:
        oracle = quartic_oracle(cfg.n)
    if cfg.fd_tau is not None:
        oracle = FdThirdOracle(oracle, cfg.fd_tau)
    return oracle


def run_experiment(cfg, trace_sink=None):
    """Run the configured solver once per target accuracy.

    The problem is set up once per call: one oracle (a logistic dataset is
    read once) and one start vector from the ``cfg.x0`` policy, on which
    every accuracy runs; each report counts only its own run's oracle calls.
    ``trace_sink`` goes to the solver, which tags each line with its
    ``epsilon``.  Returns the ``RunReport``s in the order of
    ``cfg.epsilons``.  Set-up and solver exceptions are re-raised by
    ``with_context`` with the failing accuracy, ``epsilon=…``, before their
    message.
    """
    solver = run_basic if cfg.solver == "basic" else run_accel
    composite = ZeroComposite()
    reports = []
    oracle = None
    for eps in cfg.epsilons:
        try:
            if oracle is None:  # first accuracy: set-up errors are annotated too
                oracle = _build_oracle(cfg)
                x0 = (np.ones if cfg.x0 == "ones" else np.zeros)(oracle.n)
            _, report, _ = solver(
                oracle, composite, x0, cfg.m0, eps,
                max_outer=cfg.max_outer, max_inner=cfg.max_inner,
                trace_sink=trace_sink,
            )
        except Exception as exc:
            raise with_context(exc, "epsilon=%g" % eps)
        reports.append(report)
    return reports
