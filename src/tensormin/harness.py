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
                      logistic_oracle, quartic_oracle)


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
    max_outer: int = MAX_OUTER
    max_inner: int = MAX_INNER

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
        if self.problem == "quartic":
            check_cap("n", self.n)
            if self.dataset_path is not None:
                raise ValueError("dataset_path only applies to the logistic "
                                 "problem")
        elif self.n is not None:
            raise ValueError("n only applies to the quartic problem, got %r"
                             % (self.n,))
        if isinstance(self.x0, str) and self.x0 not in ("ones", "zeros"):
            raise ValueError("x0 must be 'ones', 'zeros' or a vector, got %r"
                             % self.x0)
        if self.fd_tau is not None and not 0.0 < self.fd_tau < math.inf:
            raise ValueError("fd_tau must be finite and positive")
        check_cap("max_outer", self.max_outer)
        check_cap("max_inner", self.max_inner)


def bundled_dataset_path():
    """Path of the packaged 100-sample synthetic logistic dataset."""
    return str(resources.files("tensormin").joinpath("data/synth100.csv"))


def load_dataset(path, has_header=False):
    """Read a CSV of feature columns with a final {0,1} label column.

    An all-ones intercept column is prepended to the features.  Malformed
    rows, ragged rows, non-finite cells and non-binary labels are reported
    with their row number (1-based, counting the header if present), and a
    file that is not UTF-8 text by the offset of its first undecodable byte.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
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
        try:
            vals = [float(cell) for cell in record]
        except ValueError:
            raise ValueError("row %d contains a non-numeric cell" % lineno) from None
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
        return np.ones(dim) if cfg.x0 == "ones" else np.zeros(dim)
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError("explicit x0 has shape %s, expected (%d,)" % (x0.shape, dim))
    return x0


def run_experiment(cfg, trace_sink=None):
    """Run the configured solver once per target accuracy on fresh counters.

    The dataset is read once per call; each accuracy gets a fresh oracle
    built from it, so its counters start at zero.  Returns the list of ``RunReport``s in the order of ``cfg.epsilons``.
    Solver exceptions are re-raised annotated with the failing accuracy (as a
    note when their type cannot be rebuilt from one message).
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
            msg = "epsilon=%g: %s" % (eps, exc)
            try:
                annotated = type(exc)(msg)
            except TypeError:  # the type's constructor takes other arguments
                annotated = None
            if annotated is None:
                exc.add_note(msg)
                raise
            raise annotated from exc
        reports.append(report)
    return reports
