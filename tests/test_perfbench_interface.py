"""The benchmark's tracer still finds every name it rebinds.

``perfbench/spans.py`` times layers by rebinding the names tensormin's
callers look up (``secular_solve``, the ``from_oracle`` classmethod, ...).
A refactor that inlines such a call or changes how a name is bound would
make a traced benchmark run under-report a layer or fail.  These tests load
``perfbench/`` as it is, trace one small solve through each outer loop and
one harness sweep, and require the span counts to reconcile with the
program's own counters.  The benchmark's copy of the logistic draw must also
equal the package's ``make_logistic`` bit for bit.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import tensormin as tm
from tensormin.oracles import make_logistic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_benchmark_draw_is_the_shipped_draw(workloads):
    # perfbench keeps its own copy of the logistic draw; at the gated
    # shapes and instances it must equal the package's bit for bit.
    for (m, p), k in itertools.product([(5000, 199), (3000, 500)], range(3)):
        features, labels = workloads.model_logistic(m, p, k)
        data, _ = make_logistic(m, p, k)
        for ours, theirs in ((data.features, features), (data.labels, labels)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes(), (m, p, k)


def test_every_rebind_target_resolves(spans):
    for owner, attr, name in spans.rebind_targets(tm):
        assert attr in owner.__dict__, (owner, attr, name)
    raw = tm.model.ModelAnchor.__dict__["from_oracle"]
    assert isinstance(raw, classmethod)


@pytest.mark.parametrize("module, loop", [("basic", "run_basic"),
                                          ("accel", "run_accel")])
def test_traced_solve_reconciles(spans, module, loop):
    _, oracle = make_logistic(300, 6, seed=41)
    targets = spans.rebind_targets(tm)
    shipped = [owner.__dict__[attr] for owner, attr, _ in targets]
    tracer = spans.Tracer()
    lines = []
    with tracer.installed(tm):
        # Looked up inside the block, as the benchmark does, so the span
        # wrapper is what runs.
        solve = getattr(getattr(tm, module), loop)
        _, report, _ = solve(oracle, tm.ZeroComposite(), np.zeros(oracle.n),
                             1.0, 1e-6, max_outer=40, trace_sink=lines.append)
    totals = {"CO": report.CO, "BGM_E": report.BGM_E,
              "BGM_IT": report.BGM_IT}
    assert spans.reconcile(tracer, totals) == []
    assert report.BGM_IT > 0
    # A refused try of the adaptive Bregman step is one inner iteration:
    # one bregman_step and one secular_solve span, as BGM_IT counts it.
    assert any(line["kind"] == "inner" and not line["kept"] for line in lines)
    # Every layer the benchmark reports records calls, so a refactor cannot
    # silently zero one; the trace entry point is no longer used.
    for span in ("model.anchor", "model.omega_grad", "model.rho_grad",
                 "inner.secular_solve", "model.third_at", "oracles.hessian"):
        assert tracer.calls(span) > 0, span
    assert tracer.calls("oracles.trace") == 0
    # Every name is restored once the block exits.
    for (owner, attr, _), raw in zip(targets, shipped):
        assert owner.__dict__[attr] is raw


def test_traced_experiment_reconciles(spans):
    # The harness looks up load_dataset by name when it sets up its oracle,
    # so a traced sweep records one load for the whole call.
    tracer = spans.Tracer()
    with tracer.installed(tm):
        reports = tm.harness.run_experiment(tm.harness.RunConfig(
            problem="logistic", solver="accel", epsilons=[1e-2, 1e-6]))
    totals = {key: sum(getattr(r, key) for r in reports)
              for key in ("CO", "BGM_E", "BGM_IT")}
    assert spans.reconcile(tracer, totals) == []
    assert tracer.calls("harness.load_dataset") == 1
    assert tracer.calls("harness.run_experiment") == 1
