"""
Benchmark harness on the bundled logistic problem
=================================================

The harness runs one solver over a sweep of target accuracies on one
oracle, each run counting only its own calls, and reports five counters for
each target:

  IT      outer iterations (point updates, including the final stop)
  CO      oracle calls (values, gradients, Hessians, traces, third-order)
  BGM_E   inner-solver executions
  BGM_IT  total inner iterations across all executions
  BGM_A   average inner iterations per execution

This script sweeps six decades on the bundled 100-sample dataset, prints
the report in all three formats, and round-trips the CSV form.
"""

import io

from tensormin.harness import RunConfig, run_experiment
from tensormin.reports import emit_report, parse_report_csv

print("Logistic benchmark (bundled dataset, basic solver)")
print("=" * 60)

# ---------------------------------------------------------------------------
# Run the sweep
# ---------------------------------------------------------------------------
cfg = RunConfig(
    problem="logistic",
    solver="basic",
    epsilons=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7],
    m0=1.0,
    x0="ones",
)
reports = run_experiment(cfg)

# ---------------------------------------------------------------------------
# Table form (what the command-line tool prints by default)
# ---------------------------------------------------------------------------
# emit_report writes to its sink (stdout when omitted) and also returns
# the rendered text.
print()
emit_report(reports, format="table")

# ---------------------------------------------------------------------------
# CSV form and round-trip
# ---------------------------------------------------------------------------
csv_text = emit_report(reports, format="csv", sink=io.StringIO())
print("\ncsv form:")
print(csv_text)

parsed = parse_report_csv(csv_text)
print(f"csv round-trip recovered {len(parsed)} rows;"
      f" first row IT = {parsed[0].IT}, final grad = {parsed[0].final_grad_norm:g}")

# ---------------------------------------------------------------------------
# JSON-lines form, written to an explicit sink
# ---------------------------------------------------------------------------
sink = io.StringIO()
emit_report(reports, format="jsonl", sink=sink)
first = sink.getvalue().splitlines()[0]
print(f"\nfirst json line:\n{first}")

# ---------------------------------------------------------------------------
# The same sweep from the command line
# ---------------------------------------------------------------------------
print(
    "\nequivalent command:\n"
    "  tensormin solve --problem logistic --solver basic"
    " --eps 1e-2,1e-3,1e-4,1e-5,1e-6,1e-7 --x0 ones --format table"
)
