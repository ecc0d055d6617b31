"""
Basic versus accelerated outer loop
===================================

Both outer loops drive the gradient norm below a target by repeatedly
minimizing the regularized third-order model, doubling the regularization
level whenever the inner loop certifies the level is too small.  The
accelerated loop additionally maintains a quartic estimating sequence
whose minimum value sandwiches the scaled objective, which yields a
fourth-power decay of the value gap in the worst case.

After each accepted step the accelerated loop also takes a basic companion
step from its current iterate and keeps the point with the lower f, which
the estimating sequence allows.  On an easy, well-conditioned quartic,
where the basic loop contracts linearly, the companion wins and the
accelerated loop keeps pace with the basic one; its guaranteed polynomial
rate would show in the tail of a run that lasts 100 steps or more.
"""

import numpy as np

from tensormin.accel import run_accel
from tensormin.basic import run_basic
from tensormin.oracles import ZeroComposite, quartic_oracle

print("Basic vs accelerated on the separable quartic (n = 10)")
print("=" * 60)

n = 10
x0 = np.ones(n)

# ---------------------------------------------------------------------------
# Run both solvers
# ---------------------------------------------------------------------------
# The accelerated run is capped at 400 outer steps; the solver logs a
# warning if the cap fires.
xb, rep_b, rows_b = run_basic(quartic_oracle(n), ZeroComposite(), x0, 1.0, 1e-8)
xa, rep_a, rows_a = run_accel(
    quartic_oracle(n), ZeroComposite(), x0, 1.0, 1e-7, max_outer=400
)

print("\ncounters:")
print(f"  {'':14} {'IT':>6} {'CO':>6} {'BGM_E':>6} {'BGM_IT':>7} {'BGM_A':>7}")
for name, rep in (("basic", rep_b), ("accelerated", rep_a)):
    print(
        f"  {name:14} {rep.IT:6d} {rep.CO:6d} {rep.BGM_E:6d}"
        f" {rep.BGM_IT:7d} {rep.BGM_A:7.2f}"
    )

# ---------------------------------------------------------------------------
# Value gap per accepted step
# ---------------------------------------------------------------------------
# The quartic's minimum value is zero, so f itself is the value gap.  The
# next iterate of step t is the point of its first accepted row: the
# accepted trial's, or the accelerated loop's companion where it won.


def iterate_values(rows):
    first = {}
    for r in rows:
        if r["accepted"]:
            first.setdefault(r["t"], r["f_trial"])
    return list(first.values())


gaps_b = iterate_values(rows_b)
gaps_a = iterate_values(rows_a)
won = sum(1 for r in rows_a if r.get("companion") and r["accepted"])
print(f"\naccelerated steps where the basic companion won: {won} of"
      f" {len(gaps_a)}")

print("\nvalue gap at accepted steps:")
print(f"  {'step':>5}  {'basic':>12}  {'accelerated':>12}")
for t in range(1, 9):
    b = f"{gaps_b[t - 1]:12.3e}" if t <= len(gaps_b) else " " * 12
    a = f"{gaps_a[t - 1]:12.3e}" if t <= len(gaps_a) else " " * 12
    print(f"  {t:5d}  {b}  {a}")
for t in (50, 100, 200, 400):
    if t <= len(gaps_a):
        print(f"  {t:5d}  {'':12}  {gaps_a[t - 1]:12.3e}")

crossing_b = next(i for i, g in enumerate(gaps_b, start=1) if g <= 1e-6)
crossing_a = next(
    (i for i, g in enumerate(gaps_a, start=1) if g <= 1e-6), None
)
print(f"\nsteps to reach a 1e-6 value gap: basic {crossing_b},"
      f" accelerated {crossing_a}")

# ---------------------------------------------------------------------------
# Fitted decay rates
# ---------------------------------------------------------------------------
# Basic: log of the gap falls linearly => geometric contraction per step.
ratios = [gaps_b[i + 1] / gaps_b[i] for i in range(len(gaps_b) - 2)]
print(f"basic loop contraction factor per step: ~{np.median(ratios):.3f}")

# Accelerated: the guarantee is a power law in the step index, fitted over
# the tail t >= 100 when the run lasts that long.
tail = [(i, g) for i, g in enumerate(gaps_a, start=1) if i >= 100 and g > 0]
if len(tail) >= 2:
    slope, _ = np.polyfit(
        np.log([i for i, _ in tail]), np.log([g for _, g in tail]), 1
    )
    print(f"accelerated loop tail decay exponent  : {-slope:.2f}"
          f"  (guarantee: at least 4 asymptotically)")
else:
    print(f"accelerated loop converged in {len(gaps_a)} steps: no tail"
          f" t >= 100 to fit a decay exponent over")
