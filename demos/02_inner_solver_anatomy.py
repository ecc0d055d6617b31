"""
Anatomy of one model minimization
=================================

The outer loops repeatedly minimize a regularized third-order model built
at an anchor point.  This script builds one such model by hand, walks the
Bregman iteration that minimizes it, and shows the three ways the inner
loop can exit: gradient small enough, stationarity relative to the step,
or provably-too-slow decay at an underestimated regularization level.
"""

import numpy as np

from tensormin.inner import StopReason, run_inner
from tensormin.model import (
    ModelAnchor,
    inner_constants,
    omega_value,
    rho_value,
    taylor3_value,
)
from tensormin.oracles import ZeroComposite, quartic_oracle

print("Inner solver anatomy")
print("=" * 40)

# ---------------------------------------------------------------------------
# Build the model at an anchor
# ---------------------------------------------------------------------------
# The anchor freezes f(x), its gradient and the Hessian trace at the current
# point, and keeps the Hessian only as its tridiagonal factorization
# H = Q T Q^T, which the model, the scaling function and the secular solves
# all use.  The model adds a quartic penalty
# (M/2) * (1/4)||y - x||^4 on top of the third-order Taylor expansion.
n = 6
oracle = quartic_oracle(n)
rng = np.random.default_rng(3)
x = rng.standard_normal(n)
anchor = ModelAnchor.from_oracle(oracle, x, 96.0)

y_probe = x + 0.1 * rng.standard_normal(n)
print(f"\nanchor point f(x)          : {anchor.f_x: .6f}")
print(f"taylor model at probe      : {taylor3_value(anchor, oracle, y_probe): .6f}")
print(f"regularized model at probe : {omega_value(anchor, oracle, y_probe): .6f}")
print(f"true f at probe            : {oracle.value(y_probe): .6f}")
print(f"scaling function at probe  : {rho_value(anchor, y_probe): .6f}")

gnorm = float(np.linalg.norm(anchor.g_x))
lips, beta = inner_constants(anchor, gnorm)
print(f"\nrelative-smoothness constants: L = {lips:.3f}, beta = {beta:.3f}")

# ---------------------------------------------------------------------------
# Watch the Bregman iteration converge
# ---------------------------------------------------------------------------
rows = []
epsilon = 1e-6
result = run_inner(anchor, oracle, ZeroComposite(), epsilon, gnorm,
                   trace=rows.append)

print("\nper-iteration trace (model gradient norm, step length):")
print(f"  {'k':>3}  {'model grad':>12}  {'step norm':>12}")
for row in rows:
    print(f"  {row['k']:3d}  {row['model_grad_norm']:12.3e}  {row['step_norm']:12.3e}")
print(f"\nexit: {result.stop_reason.value} after {result.iterations} iterations")
print(f"final model gradient norm : {result.model_grad_norm:.3e}")
step = float(np.linalg.norm(result.x_plus - x))
print(f"stationarity threshold    : {96.0 / 6.0 * step ** 3:.3e}"
      f"  (one sixth of M times step^3)")
print(f"accuracy threshold        : {epsilon / 7.0:.3e}  (epsilon / 7)")

# ---------------------------------------------------------------------------
# The certificate that a level is too small
# ---------------------------------------------------------------------------
# At a regularization level far below the Hessian's Lipschitz constant the
# model gradient cannot decay at the guaranteed geometric rate.  The inner
# loop detects this and stops with reason SlowConvergence (the outer loop's
# alpha flag) so the outer loop can double the level instead of wasting
# iterations.
low = ModelAnchor.from_oracle(quartic_oracle(n), x, 1e-4)
low_gnorm = float(np.linalg.norm(low.g_x))
low_result = run_inner(low, quartic_oracle(n), ZeroComposite(), epsilon,
                       low_gnorm)
alpha = low_result.stop_reason is StopReason.SLOW_CONVERGENCE
print(f"\nat level M = 1e-4: alpha = {alpha}, "
      f"exit = {low_result.stop_reason.value}, "
      f"iterations = {low_result.iterations}")
