"""The benchmark's three workloads and the output check applied to every solve.

Each workload is a closed loop with one caller: a *pass* runs its solves one
after another, and the benchmark times whole passes.  Inputs are generated
from the workload seed during set-up; the solver only ever receives the
generated arrays.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PAPER_EPSILONS = (1e-2, 1e-4, 1e-6, 1e-8)
PAPER_LEG_EPSILONS = (1e-2, 1e-4)
LOGISTIC_EPSILON = 1e-8
INSTANCES = 3


@dataclass
class Solve:
    """One solver call of a pass and the data needed to check its answer."""

    label: dict                      # workload, solver, epsilon, instance
    epsilon: float
    run: Callable[[], tuple]         # () -> (x, RunReport)
    features: np.ndarray             # raw (m, n) matrix, intercept included
    labels: np.ndarray


def logistic_grad_norm(features, labels, x):
    """||A^T (sigmoid(A x) - b)|| in plain NumPy, independent of the oracle."""
    z = features @ x
    s = np.exp(-np.logaddexp(0.0, -z))
    return float(np.linalg.norm(features.T @ (s - labels)))


def check_solve(solve, x, report):
    """(recomputed gradient norm, None if the answer is right else why not)."""
    gnorm = logistic_grad_norm(solve.features, solve.labels, x)
    if not report.converged:
        return gnorm, "solver stopped at a cap without converging"
    if not gnorm <= solve.epsilon:
        return gnorm, "recomputed gradient norm %.3e exceeds epsilon %.0e" % (
            gnorm, solve.epsilon)
    return gnorm, None


def model_logistic(m, p, seed, feature_scale=1.0):
    """Labelled data drawn from a logistic model with an intercept.

    The draw order is that of the test suite's ``make_logistic``: features,
    then weights, then the uniform label draws.  ``feature_scale`` multiplies
    the standard-normal features (1 reproduces ``make_logistic`` exactly).
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, p)) * feature_scale
    features = np.hstack([np.ones((m, 1)), raw])
    w = rng.standard_normal(p + 1)
    prob = 1.0 / (1.0 + np.exp(-(features @ w)))
    labels = (rng.random(m) < prob).astype(float)
    return features, labels


def _paper_solves(tm, name, epsilons):
    """The paper's protocol on the bundled set; it has no random input."""
    harness = tm.harness
    path = harness.bundled_dataset_path()
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    features = np.hstack([np.ones((raw.shape[0], 1)), raw[:, :-1]])
    labels = raw[:, -1]
    # run_experiment builds its oracle from the file on every call; loading
    # once here is the set-up a user pays before the first solve.
    harness.load_dataset(path)

    # run_experiment returns reports only, so the solver names it looks up
    # are rebound, for the life of the process, to record the final iterate.
    # The real solver is looked up at call time so a traced pass sees its
    # span wrapper.
    iterates = []

    def recording(module, attr):
        def call(*args, **kwargs):
            result = getattr(module, attr)(*args, **kwargs)
            iterates.append(result[0])
            return result
        return call

    harness.run_basic = recording(tm.basic, "run_basic")
    harness.run_accel = recording(tm.accel, "run_accel")

    def solve(solver, eps):
        cfg = harness.RunConfig(problem="logistic", solver=solver,
                                epsilons=[eps], x0="ones", m0=1.0)
        (report,) = harness.run_experiment(cfg)
        return iterates.pop(), report

    return [
        Solve({"workload": name, "solver": solver, "epsilon": eps,
               "instance": "bundled"}, eps,
              lambda s=solver, e=eps: solve(s, e), features, labels)
        for solver in ("basic", "accel") for eps in epsilons
    ]


def _logistic_solves(tm, name, seed, m, p, feature_scale):
    """INSTANCES fixed base problems, each seen through a seeded symmetry.

    The base problems are drawn with instance seeds 0, 1, 2.  The workload
    seed draws, per instance, a random order P of the samples and a random
    Householder reflection R = I - 2 v v^T of the feature space (it changes
    every entry): A -> P A diag(1, R), b -> P b.  The loss is invariant
    under both, and with x0 = 0 the method (built on norms, inner products
    and an eigendecomposition) follows the same path in exact arithmetic, so
    every seed gives different arrays but the same work.
    Drawing new base problems per seed would not: outer iterations per
    3-instance pass ranged from 87 to 134 over five seeds at 3000 x 501.
    """
    composite = tm.ZeroComposite()
    rng = np.random.default_rng(seed)
    solves = []
    for k in range(INSTANCES):
        base, labels = model_logistic(m, p, k, feature_scale)
        order = rng.permutation(m)
        features = base[order]
        labels = labels[order]
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        features[:, 1:] -= 2.0 * np.outer(features[:, 1:] @ v, v)
        oracle = tm.logistic_oracle(tm.Dataset(features=features, labels=labels))
        x0 = np.zeros(p + 1)

        def run(oracle=oracle, x0=x0):
            # Looked up at call time so a traced pass sees the rebound name.
            x, report, _ = tm.basic.run_basic(oracle, composite, x0, 1.0,
                                              LOGISTIC_EPSILON)
            return x, report

        solves.append(Solve({"workload": name, "solver": "basic",
                             "epsilon": LOGISTIC_EPSILON, "instance": k},
                            LOGISTIC_EPSILON, run, features, labels))
    return solves


def build(name, tm, seed):
    """Generate the inputs of workload ``name``; return its solves in order."""
    if name == "paper-sweep":
        return _paper_solves(tm, name, PAPER_EPSILONS)
    if name == "logistic-tall":
        return _logistic_solves(tm, name, seed, 5000, 199, 1.0)
    if name == "logistic-wide":
        # N(0, 1/p) features: unscaled draws at this shape are linearly
        # separable, so the loss has no minimizer to converge to.  The short
        # paper-protocol leg keeps the accel and harness layers measured
        # (see README.md for why paper-sweep is not in BENCHMARK.json).
        return (_logistic_solves(tm, name, seed, 3000, 500, 1.0 / np.sqrt(500.0))
                + _paper_solves(tm, name, PAPER_LEG_EPSILONS))
    raise ValueError("unknown workload %r" % name)


NAMES = ("paper-sweep", "logistic-tall", "logistic-wide")
