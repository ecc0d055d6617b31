"""Per-layer spans recorded from outside the program.

The tracer rebinds the names that ``tensormin``'s callers look up (module
globals, class attributes) to wrappers that time each call.  A span's self
time is its duration minus the time of the spans it encloses.  Nothing
inside ``tensormin`` is edited; ``Tracer.installed`` restores every name on
exit, so untraced passes run the program exactly as shipped.

A call site that bypasses a rebound name (say a new ``from ... import``)
would silently under-report its layer, so ``reconcile`` compares span counts
with the program's own counters after every traced pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ORACLE_ENTRIES = {
    "value": "oracles.value",
    "grad": "oracles.grad",
    "hessian": "oracles.hessian",
    "third_directional": "oracles.third",
    "hessian_trace": "oracles.trace",
}
STOP_REASONS = ("EpsilonSmall", "ModelStationarity", "SlowConvergence",
                "IterationCap")


def rebind_targets(tm):
    """(owner, attribute, span name) for every name the tracer rebinds.

    ``run_inner`` is imported by name into both outer loops, and
    ``omega_grad``/``rho_grad`` into ``inner``, so those are rebound where
    they are looked up, not where they are defined.
    """
    return [(tm.oracles.SmoothOracle, attr, span)
            for attr, span in ORACLE_ENTRIES.items()] + [
        (tm.model.ModelAnchor, "from_oracle", "model.anchor"),
        (tm.model.ModelAnchor, "third_at", "model.third_at"),
        (tm.inner, "omega_grad", "model.omega_grad"),
        (tm.inner, "rho_grad", "model.rho_grad"),
        (tm.inner, "secular_solve", "inner.secular_solve"),
        (tm.inner, "bregman_step", "inner.bregman_step"),
        (tm.basic, "run_inner", "inner.run_inner"),
        (tm.accel, "run_inner", "inner.run_inner"),
        (tm.basic, "run_basic", "basic.run_basic"),
        (tm.accel, "run_accel", "accel.run_accel"),
        (tm.accel, "solve_a", "accel.solve_a"),
        (tm.harness, "load_dataset", "harness.load_dataset"),
        (tm.harness, "run_experiment", "harness.run_experiment"),
    ]


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span statistics by name, plus the counts taken at the same boundaries."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = {}
        self.stops = dict.fromkeys(STOP_REASONS, 0)
        self.zero_displacements = 0
        self.hessian_flops = 0.0
        self._stack = [0.0]  # child time accumulated by each open span

    def wrap(self, name, fn, after=None):
        stack = self._stack
        stat = self.spans.setdefault(name, Span())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.self_s += dt - child
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, span_name):
        if span_name == "inner.run_inner":
            def count_stop(args, result):
                self.stops[result.stop_reason.value] += 1
            return count_stop
        if span_name == "oracles.hessian":
            def count_flops(args, result):
                # A^T diag(w) A costs 2 m n^2 for the logistic oracle's
                # (m, n) data matrix, the only oracle the workloads use.
                m, n = args[0].dataset.features.shape
                self.hessian_flops += 2.0 * m * n * n
            return count_flops
        if span_name == "model.third_at":
            def count_zero(args, result):
                if not args[2].any():
                    self.zero_displacements += 1
            return count_zero
        return None

    @contextmanager
    def installed(self, tm):
        """Rebind every target for the duration of the block."""
        self.reset()
        saved = []
        try:
            for owner, attr, name in rebind_targets(tm):
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                after = self._after(name)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, after))
                else:
                    new = self.wrap(name, raw, after)
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def calls(self, name):
        span = self.spans.get(name)
        return span.calls if span is not None else 0

    def self_s(self, name):
        span = self.spans.get(name)
        return span.self_s if span is not None else 0.0


def reconcile(tracer, totals):
    """Mismatches between span counts and the pass's summed counters."""
    problems = []
    oracle_spans = sum(tracer.calls(s) for s in ORACLE_ENTRIES.values())
    expect = [
        ("oracle spans", oracle_spans, "CO", totals["CO"]),
        ("run_inner spans", tracer.calls("inner.run_inner"), "BGM_E",
         totals["BGM_E"]),
        ("bregman_step spans", tracer.calls("inner.bregman_step"), "BGM_IT",
         totals["BGM_IT"]),
        ("secular_solve spans", tracer.calls("inner.secular_solve"), "BGM_IT",
         totals["BGM_IT"]),
    ]
    for what, got, counter, want in expect:
        if got != want:
            problems.append("%s = %d but %s = %d" % (what, got, counter, want))
    return problems
