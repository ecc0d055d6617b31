"""Command-line front end.

    tensormin solve --problem quartic --n 10 --solver accel --eps 1e-2,1e-4

Exit status: 0 when every accuracy target was reached, 2 when any run hit an
iteration cap, 1 on usage or I/O errors and on a run's typed failure, a
``SolveError``: an ``OracleError``, ``ConvexityError``, ``SecularSolveError``,
``WeightEquationError`` or ``LevelSearchError``, each reported in one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .harness import RunConfig, run_experiment
from .oracles import SolveError
from .reports import FORMATS, emit_report


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("not JSON serializable: %r" % type(value))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for cap hits.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _eps_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("accuracies must be comma-separated floats")
    if not values:
        raise argparse.ArgumentTypeError("no accuracies given")
    return values


def build_parser():
    parser = _Parser(prog="tensormin", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver over an accuracy sweep")
    solve.add_argument("--problem", required=True, choices=RunConfig.PROBLEMS)
    solve.add_argument("--dataset", dest="dataset_path", metavar="DATASET",
                       help="CSV path (logistic)")
    solve.add_argument("--has-header", action="store_true",
                       help="skip the first CSV row")
    solve.add_argument("--n", type=int, help="dimension (quartic)")
    solve.add_argument("--solver", required=True, choices=RunConfig.SOLVERS)
    solve.add_argument("--eps", dest="epsilons", required=True, type=_eps_list,
                       metavar="E1,E2,...",
                       help="comma-separated target gradient norms")
    solve.add_argument("--m0", type=float, default=RunConfig.m0,
                       help="initial level estimate (default %(default)s)")
    solve.add_argument("--x0", choices=RunConfig.X0_POLICIES, default=RunConfig.x0,
                       help="starting point policy (default %(default)s)")
    solve.add_argument("--fd-tau", type=float, default=RunConfig.fd_tau,
                       help="replace third derivatives by gradient differences "
                            "with this step")
    solve.add_argument("--max-outer", type=int, default=RunConfig.max_outer,
                       help="outer step cap (default %(default)s)")
    solve.add_argument("--max-inner", type=int, default=RunConfig.max_inner,
                       help="inner iteration cap (default %(default)s)")
    solve.add_argument("--trace", metavar="PATH",
                       help="write per-iteration JSON lines here")
    solve.add_argument("--format", choices=FORMATS, default="table")
    solve.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1

    trace_fh = None
    trace_sink = None
    try:
        # The solve options are stored under the names of RunConfig's fields.
        cfg = RunConfig(**{f.name: getattr(args, f.name)
                           for f in fields(RunConfig)})
        if args.trace:
            trace_fh = open(args.trace, "w")
            trace_sink = lambda row: trace_fh.write(
                json.dumps(row, default=_jsonable) + "\n"
            )
        reports = run_experiment(cfg, trace_sink=trace_sink)
        if args.out:
            with open(args.out, "w") as fh:
                emit_report(reports, format=args.format, sink=fh)
        else:
            emit_report(reports, format=args.format)
    except (OSError, ValueError, SolveError) as exc:
        sys.stderr.write("tensormin: error: %s\n" % exc)
        return 1
    finally:
        if trace_fh is not None:
            trace_fh.close()

    return 0 if all(r.converged for r in reports) else 2


if __name__ == "__main__":
    sys.exit(main())
