"""Adaptive outer loop: level escalation, sufficient-decrease acceptance,
counters, and trace consistency."""

import re
import threading
import warnings

import numpy as np
import pytest

from conftest import make_logistic
import tensormin
from tensormin.accel import run_accel
from tensormin.basic import LevelSearchError, accept_test_basic, run_basic
from tensormin.inner import StopReason
from tensormin.model import SecularSolveError
from tensormin.oracles import (FdThirdOracle, OracleError, SmoothOracle,
                               ZeroComposite, logistic_oracle, quartic_oracle)


def run_quartic(n, x0, m0, epsilon, **kw):
    oracle = quartic_oracle(n)
    x, report, rows = run_basic(
        oracle, ZeroComposite(), np.asarray(x0, dtype=float), m0, epsilon, **kw
    )
    return oracle, x, report, rows


# -- level selection and acceptance test ------------------------------------------


class AbsComposite:
    """Stands for an ell-1 term psi = ||x||_1, which no solver supports."""


BAD_ENTRY_ARGUMENTS = [
    *[pytest.param({name: bad}, ValueError,
                   "%s must be finite and positive" % name, id="%s-%s" % (name, bad))
      for name in ("m0", "epsilon") for bad in (np.nan, np.inf, 0.0, -1.0)],
    pytest.param({"x0": np.array([np.nan, 1.0])}, ValueError,
                 r"x0 must be finite, got x0\[0\] = nan", id="x0-nan"),
    pytest.param({"x0": np.array([1.0, -np.inf])}, ValueError,
                 r"x0 must be finite, got x0\[1\] = -inf", id="x0-inf"),
    pytest.param({"composite": AbsComposite()}, TypeError,
                 "composite must be ZeroComposite .*, got AbsComposite",
                 id="composite-l1"),
    pytest.param({"composite": None}, TypeError,
                 "composite must be ZeroComposite .*, got NoneType",
                 id="composite-none"),
    *[pytest.param({name: bad}, ValueError,
                   r"%s must be at least 1 and an integer, got %s"
                   % (name, re.escape(repr(bad))), id="%s-%r" % (name, bad))
      for name in ("max_outer", "max_inner") for bad in (0, -1, 2.5, 3.0)],
]


@pytest.mark.parametrize("solve", [run_basic, run_accel])
@pytest.mark.parametrize("bad, error, match", BAD_ENTRY_ARGUMENTS)
def test_nonfinite_or_nonpositive_m0_and_epsilon_fail_before_any_call(
        solve, bad, error, match):
    # Also a non-finite x0, any composite other than ZeroComposite and an
    # iteration cap that is not an integer >= 1.
    oracle = quartic_oracle(2)
    args = {"composite": ZeroComposite(), "x0": np.ones(2), "m0": 1.0,
            "epsilon": 1e-6, **bad}
    with pytest.raises(error, match=match):
        solve(oracle, **args)
    assert oracle.calls.total() == 0


def test_accept_test_points_and_boundary():
    assert accept_test_basic(5.0, 5.0, 0.0, 1.0) is True
    assert accept_test_basic(5.0, 5.0, 0.5, 1.0) is False
    # Unit decrease against unit gradient at level 1/216: the threshold is
    # exactly 1, so the test passes at equality.
    assert accept_test_basic(1.0, 0.0, 1.0, 1.0 / 216.0) is True
    assert accept_test_basic(1.0, 1e-9, 1.0, 1.0 / 216.0) is False


# -- terminal behavior --------------------------------------------------------------


def test_run_basic_already_stationary_start():
    oracle, x, report, rows = run_quartic(3, np.zeros(3), 1.0, 1e-8)
    assert report.converged is True
    assert report.IT == 1
    assert report.BGM_E == 1
    assert len(rows) == 1
    assert rows[0]["accepted"] is True
    assert np.array_equal(x, np.zeros(3))


def test_run_basic_quartic_converges_within_level_bounds():
    oracle, x, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-8)
    assert report.converged is True
    assert float(np.linalg.norm(oracle.grad(x))) <= 1e-8
    assert 1 <= report.IT <= 20

    # Every trial level sits at or above 2 M_0, and the running estimate
    # (half the accepted level) never exceeds max(2 M_0, 4 * 24) = 96.
    for row in rows:
        assert row["M_level"] >= 2.0 * (1.0 - 1e-12)
        assert row["M_level"] <= 192.0
        if row["accepted"]:
            assert row["M_level"] / 2.0 <= 96.0

    # Executions stay within the escalation-accounting budget.
    assert report.BGM_E <= 2 * (report.IT + 1) + np.log2(96.0)


def test_run_basic_acceptance_inequality_recomputed():
    rng = np.random.default_rng(30)
    x0 = rng.uniform(0.5, 1.5, size=3)
    oracle, _, report, rows = run_quartic(3, x0, 1.0, 1e-6)
    assert report.converged is True
    x_prev = x0
    checked = 0
    for row in rows:
        if not row["accepted"]:
            continue
        x_trial = row["x_trial"]
        f_trial = oracle.value(x_trial)
        g_trial = float(np.linalg.norm(oracle.grad(x_trial)))
        assert abs(f_trial - row["f_trial"]) <= 1e-12 * (1.0 + abs(f_trial))
        assert abs(g_trial - row["grad_norm_trial"]) <= 1e-12 * (1.0 + g_trial)
        if g_trial > 1e-6:
            f_at_prev = oracle.value(x_prev)
            rhs = g_trial ** (4.0 / 3.0) / (6.0 * row["M_level"] ** (1.0 / 3.0))
            assert f_at_prev - f_trial >= rhs - 1e-12 * (1.0 + abs(f_at_prev))
            # Monotone objective along accepted steps.
            assert f_trial <= f_at_prev + 1e-12 * (1.0 + abs(f_at_prev))
        x_prev = x_trial
        checked += 1
    assert checked >= 4


def test_run_basic_trace_levels_are_contiguous_doublings():
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-6)
    assert report.BGM_E == len(rows)
    assert report.BGM_IT == sum(r["inner_iters"] for r in rows)

    m_t = 1.0
    by_t = {}
    for row in rows:
        by_t.setdefault(row["t"], []).append(row)
    for t in sorted(by_t):
        group = by_t[t]
        # The first level is the smallest m_t 2^i that is >= 2 m0 = 2.
        start = group[0]["i"]
        assert m_t * 2.0**start >= 2.0
        assert start == 0 or m_t * 2.0 ** (start - 1) < 2.0
        assert [r["i"] for r in group] == list(range(start, start + len(group)))
        for r in group:
            assert r["M_level"] == pytest.approx(m_t * 2.0 ** r["i"], rel=1e-12)
        # only the last row of a group may be accepted
        assert all(not r["accepted"] for r in group[:-1])
        if group[-1]["accepted"]:
            m_t = group[-1]["M_level"] / 2.0
        for r in group:
            if r["stop_reason"] == "SlowConvergence":
                assert r["f_trial"] is None
                assert r["grad_norm_trial"] is None
                assert "x_trial" not in r


def test_run_basic_oracle_call_conservation():
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-6)
    snap = oracle.calls.snapshot()
    assert report.CO == oracle.calls.total() == sum(snap.values())
    evaluated = sum(1 for r in rows if r["f_trial"] is not None)
    anchors = len({r["t"] for r in rows})
    # one objective value at x_0 plus one per evaluated trial
    assert snap["value"] == 1 + evaluated
    # gradients likewise; all other gradient uses reuse anchor data
    assert snap["grad"] == 1 + evaluated
    # one Hessian per outer anchor, levels share it; the factor holds the
    # trace
    assert snap["hessian"] == anchors
    assert snap["trace"] == 0


def test_run_basic_queries_third_once_per_inner_iteration():
    # Each inner step needs D3f[h]^2 at one new displacement; the first
    # step of an inner run starts at the anchor, where h = 0 costs nothing.
    _, oracle = make_logistic(300, 5, seed=3)
    _, report, _ = run_basic(oracle, ZeroComposite(), np.zeros(oracle.n), 1.0, 1e-8)
    assert report.converged is True
    assert report.BGM_IT > report.BGM_E
    assert oracle.calls.third == report.BGM_IT


@pytest.mark.parametrize("solve", [run_basic, run_accel])
def test_logistic_solves_make_no_trace_and_no_anchor_value_calls(solve):
    # The anchor's factor holds the trace, and no anchor queries f: basic
    # evaluates f at x_0 and at each evaluated trial, accel at accepted
    # trials and at evaluated companions, to compare the two.
    _, oracle = make_logistic(300, 6, seed=41)
    _, report, rows = solve(oracle, ZeroComposite(), np.zeros(oracle.n), 1.0,
                            1e-6, max_outer=40)
    snap = oracle.calls.snapshot()
    assert report.BGM_E > 0
    assert snap["trace"] == 0
    companions = [r for r in rows if r.get("companion")]
    trials = [r for r in rows if not r.get("companion")]
    evaluated = sum(1 for r in trials if r["grad_norm_trial"] is not None)
    accepted = sum(1 for r in trials if r["accepted"])
    evaluated_companions = sum(1 for r in companions
                               if r["f_trial"] is not None)
    if solve is run_basic:
        assert not companions
        assert snap["value"] == 1 + evaluated
    else:
        assert evaluated_companions >= 1
        assert snap["value"] == accepted + evaluated_companions


@pytest.mark.parametrize("solve, counters, calls", [
    (run_basic, (7, 280, 11, 249), (12, 12, 7, 249)),
    (run_accel, (7, 404, 17, 346), (13, 28, 17, 346)),
], ids=["basic", "accel"])
def test_logistic_counters_and_oracle_calls_are_pinned(solve, counters, calls):
    # IT/CO/BGM_E/BGM_IT and value/grad/hessian/third calls of one fixed
    # solve, so that a change in how oracle data travels through the loops
    # cannot move a counter unnoticed.
    _, oracle = make_logistic(2000, 49, seed=0)
    _, report, _ = solve(oracle, ZeroComposite(), np.zeros(oracle.n), 1.0,
                         1e-6)
    assert report.converged
    assert (report.IT, report.CO, report.BGM_E, report.BGM_IT) == counters
    snap = oracle.calls.snapshot()
    assert (snap["value"], snap["grad"], snap["hessian"], snap["third"]) == calls


@pytest.mark.parametrize("solve, grad, co, counters", [
    (run_basic, 1081, 1100, (6, 12, 534)),
    (run_accel, 1356, 1383, (6, 17, 664)),
], ids=["basic", "accel"])
def test_fd_run_evaluates_each_anchor_gradient_once(solve, grad, co, counters):
    # A8's run.  The first T_tau query at an anchor reuses the gradient the
    # anchor's point holds, so each anchor costs one gradient call fewer
    # than a fresh evaluation there (basic 6 anchors, accel 16).
    oracle = FdThirdOracle(quartic_oracle(2), 1e-4)
    _, report, _ = solve(oracle, ZeroComposite(), np.ones(2), 1.0, 1e-6)
    assert report.converged
    assert (report.IT, report.BGM_E, report.BGM_IT) == counters
    assert (oracle.calls.grad, report.CO) == (grad, co)


def test_run_basic_is_deterministic_except_wall_time():
    x0 = [0.8, -1.2, 0.4]
    _, x_a, rep_a, rows_a = run_quartic(3, x0, 1.0, 1e-7)
    _, x_b, rep_b, rows_b = run_quartic(3, x0, 1.0, 1e-7)
    assert np.array_equal(x_a, x_b)
    assert (rep_a.IT, rep_a.CO, rep_a.BGM_E, rep_a.BGM_IT) == (
        rep_b.IT, rep_b.CO, rep_b.BGM_E, rep_b.BGM_IT
    )
    assert rep_a.final_grad_norm == rep_b.final_grad_norm
    assert rep_a.final_f == rep_b.final_f
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra["t"] == rb["t"] and ra["i"] == rb["i"]
        assert ra["M_level"] == rb["M_level"]
        assert ra["accepted"] == rb["accepted"]


def test_run_basic_epsilon_sweep_marginal_cost_grows():
    its = []
    inner_totals = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        _, _, report, _ = run_quartic(2, [1.0, 1.0], 1.0, eps)
        assert report.converged is True
        its.append(report.IT)
        inner_totals.append(report.BGM_IT)
    assert its == sorted(its)
    assert inner_totals == sorted(inner_totals)


def test_run_basic_no_slow_certificates_above_curvature():
    # Starting the level estimate above 4 L_f means every trial level exceeds
    # the certificate threshold, so alpha can never fire.
    oracle, _, report, rows = run_quartic(2, [1.0, 1.0], 64.0, 1e-6)
    assert report.converged is True
    for row in rows:
        assert row["M_level"] >= 96.0
        assert row["stop_reason"] != "SlowConvergence"


def test_run_basic_outer_cap_reports_honestly():
    _, _, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-12, max_outer=2)
    assert report.converged is False
    assert report.IT == 2
    assert report.final_grad_norm > 1e-12


def test_run_basic_inner_cap_aborts_run():
    oracle, x, report, rows = run_quartic(2, [1.0, 1.0], 1.0, 1e-10, max_inner=1)
    assert report.converged is False
    assert report.IT == 0
    assert rows[-1]["stop_reason"] == StopReason.ITERATION_CAP.value
    assert rows[-1]["accepted"] is False
    assert rows[-1]["f_trial"] is None
    assert np.array_equal(x, np.array([1.0, 1.0]))


def test_run_basic_trace_sink_sees_both_levels_of_detail():
    sink = []
    oracle = quartic_oracle(2)
    _, report, rows = run_basic(
        oracle, ZeroComposite(), np.array([1.0, 1.0]), 1.0, 1e-6,
        trace_sink=sink.append,
    )
    outer = [r for r in sink if r["kind"] == "outer"]
    inner = [r for r in sink if r["kind"] == "inner"]
    assert len(outer) == len(rows)
    assert len(inner) == report.BGM_IT
    outer_keys = {(r["t"], r["i"]) for r in outer}
    for r in inner:
        assert (r["t"], r["i"]) in outer_keys
        assert {"k", "model_grad_norm", "step_norm", "slow_rhs"} <= set(r)


def test_run_basic_rejects_bad_parameters():
    oracle = quartic_oracle(2)
    with pytest.raises(ValueError):
        run_basic(oracle, ZeroComposite(), np.ones(2), 1.0, 0.0)
    with pytest.raises(ValueError):
        run_basic(oracle, ZeroComposite(), np.ones(2), -1.0, 1e-6)


class _NoDecreaseOracle(SmoothOracle):
    """Constant value, unit gradient, Hessian 1e6 I: no trial ever decreases
    f, and every trial's gradient norm stays 1, so every level is rejected."""

    def _value(self, p):
        return 0.0

    def _grad(self, p):
        return np.full(self.n, 1.0 / np.sqrt(self.n))

    def _hessian(self, p):
        return 1e6 * np.eye(self.n)

    def _third_directional(self, p, h):
        return np.zeros(self.n)


def test_run_basic_level_doubling_failure_is_typed_and_named():
    oracle = _NoDecreaseOracle(3)
    with pytest.raises(LevelSearchError) as info:
        run_basic(oracle, ZeroComposite(), np.zeros(3), 1.0, 1e-6)
    assert tensormin.LevelSearchError is LevelSearchError
    assert isinstance(info.value, RuntimeError)
    msg = str(info.value)
    # The trial at level 2^2 repeats the one at 2^1 (the first is the
    # smallest 2^i >= 2 m0) bit for bit, with zero decrease: the search
    # stops there instead of doubling on to 2^201.
    assert msg.startswith("level doubling did not terminate at outer step t=0")
    assert "M = 2.000e+00 .. 4.000e+00" in msg
    assert "last stop reason %s" % StopReason.EPSILON_SMALL.value in msg
    assert oracle.calls.total() < 100
    assert "gradient norm 1.000e+00 > epsilon 1.000e-06" in msg
    assert "decrease f_x - f_trial = 0.000e+00" in msg


@pytest.mark.parametrize("solve", [run_basic, run_accel])
@pytest.mark.parametrize("m0, error", [(1e-300, LevelSearchError),
                                       (1e-200, SecularSolveError),
                                       (1e300, LevelSearchError)])
def test_extreme_levels_fail_typed_and_name_the_level(solve, m0, error):
    # Near the ends of float range the inner solver's arithmetic overflows
    # or divides by zero (then the level search names t, i and M), or a
    # secular solve fails (and names M), soon after the start.
    oracle = quartic_oracle(2)
    with pytest.raises(error, match="M = "):
        solve(oracle, ZeroComposite(), np.ones(2), m0, 1e-6)
    assert oracle.calls.total() <= 40


def test_overflowing_oracle_fails_typed_without_numpy_warnings():
    oracle = quartic_oracle(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleError, match="returned a non-finite result"):
            run_basic(oracle, ZeroComposite(), 1e150 * np.ones(2), 1.0, 1e-6)


def test_runs_sharing_an_oracle_count_their_own_calls():
    data, _ = make_logistic(2000, 49, seed=0)
    args = (ZeroComposite(), np.zeros(50), 1.0, 1e-6)
    solo = run_basic(logistic_oracle(data), *args)[1].CO
    shared = logistic_oracle(data)
    cos = []

    def solve():
        cos.append(run_basic(shared, *args)[1].CO)

    threads = [threading.Thread(target=solve) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    assert solo == 280
    assert cos == [solo, solo]
    assert sum(cos) == shared.calls.total()
