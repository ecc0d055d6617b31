"""Oracle layer: derivative formulas, call counting, datasets, fd surrogate."""

import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from conftest import QuadraticOracle
from tensormin.accel import solve_a
from tensormin.basic import run_basic
from tensormin.harness import RunConfig
from tensormin.inner import run_inner, secular_solve
from tensormin.model import ModelAnchor
from tensormin.oracles import (
    CallCounter,
    Dataset,
    DerivativeReport,
    FdThirdOracle,
    LowerBoundQuartic,
    OracleError,
    Point,
    QuarticOracle,
    SmoothOracle,
    ZeroComposite,
    as_point,
    check_derivatives,
    check_positive,
    fd_third_directional,
    grad_at,
    grad_norm_at,
    logistic_oracle,
    make_logistic,
    norm,
    quartic_oracle,
    value_at,
)


# -- logistic oracle -----------------------------------------------------------


def test_logistic_at_origin_value_is_m_log2():
    for m, d, seed in [(1, 0, 0), (7, 2, 1), (100, 3, 2)]:
        features = np.hstack(
            [np.ones((m, 1)), np.random.default_rng(seed).standard_normal((m, d))]
        )
        labels = (np.arange(m) % 2).astype(float)
        oracle = logistic_oracle(Dataset(features, labels))
        assert abs(oracle.value(np.zeros(d + 1)) - m * np.log(2.0)) <= 1e-12 * m


def test_logistic_third_derivative_vanishes_at_origin():
    _, oracle = make_logistic(12, 3, seed=3)
    rng = np.random.default_rng(0)
    x0 = np.zeros(oracle.n)
    for _ in range(5):
        h = rng.standard_normal(oracle.n)
        assert np.all(oracle.third_directional(x0, h) == 0.0)


def test_logistic_single_sample_closed_forms():
    # One sample, intercept-only feature a = (1), label b = 1, query x = 0:
    # sigmoid(0) = 1/2, so grad = (1/2 - 1) * a = -1/2, hessian = 1/4 * a a^T,
    # and the third-derivative weight (1 - 2s) vanishes.
    oracle = logistic_oracle(Dataset(np.ones((1, 1)), np.ones(1)))
    x = np.zeros(1)
    assert oracle.grad(x) == pytest.approx([-0.5], abs=1e-15)
    assert float(oracle.hessian(x)[0, 0]) == pytest.approx(0.25, abs=1e-15)
    assert oracle.third_directional(x, np.ones(1)) == pytest.approx([0.0], abs=1e-15)
    assert oracle.value(x) == pytest.approx(np.log(2.0), abs=1e-15)


def test_logistic_entry_points_through_one_point_match_fresh_arrays():
    # Whichever entry point fills a point's intermediates first, every entry
    # point queried through that point returns exactly what it returns on a
    # fresh array, and two directions share the point.
    _, oracle = make_logistic(40, 3, seed=11)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(oracle.n)
    h1, h2 = rng.standard_normal((2, oracle.n))
    queries = {
        "value": oracle.value,
        "grad": oracle.grad,
        "hessian": oracle.hessian,
        "trace": oracle.hessian_trace,
        "third_h1": lambda q: oracle.third_directional(q, h1),
        "third_h2": lambda q: oracle.third_directional(q, h2),
    }
    fresh = {name: query(x.copy()) for name, query in queries.items()}
    for order in itertools.permutations(queries):
        p = as_point(x)
        for name in order:
            assert np.array_equal(queries[name](p), fresh[name]), (order, name)
    assert as_point(p) is p


def test_logistic_value_stable_for_extreme_margins():
    _, oracle = make_logistic(10, 2, seed=4)
    for scale in (1e2, 1e3, 1e4):
        x = np.array([0.0, scale, -scale])
        v = oracle.value(x)
        assert np.isfinite(v) and v >= 0.0
        assert np.all(np.isfinite(oracle.grad(x)))
        assert np.all(np.isfinite(oracle.hessian(x)))


# -- quartic oracle ------------------------------------------------------------


def test_quartic_origin_is_the_minimizer():
    oracle = quartic_oracle(4)
    x0 = np.zeros(4)
    assert oracle.value(x0) == 0.0
    assert np.all(oracle.grad(x0) == 0.0)
    assert np.all(oracle.minimizer == 0.0)


def test_quartic_third_directional_frozen_value():
    # d^3/dx^3 of x^4 is 24 x; at x = 1 with h = 1 the directional vector is 24.
    oracle = quartic_oracle(1)
    t = oracle.third_directional(np.array([1.0]), np.array([1.0]))
    assert t == pytest.approx([24.0], abs=0.0)


def test_quartic_third_derivative_is_24_lipschitz():
    oracle = quartic_oracle(6)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(6) * 3
        y = rng.standard_normal(6) * 3
        h = rng.standard_normal(6)
        h /= np.linalg.norm(h)
        diff = oracle.third_directional(x, h) - oracle.third_directional(y, h)
        assert np.linalg.norm(diff) <= 24.0 * np.linalg.norm(x - y) + 1e-12


def test_quartic_reports_its_lipschitz_constant():
    assert quartic_oracle(3).lipschitz_third == 24.0


# -- shared oracle contract ----------------------------------------------------


def _shipped_oracles():
    _, lo = make_logistic(15, 3, seed=5)
    return [lo, quartic_oracle(4)]


def test_third_directional_is_degree_two_homogeneous():
    rng = np.random.default_rng(8)
    for oracle in _shipped_oracles():
        for _ in range(10):
            x = rng.standard_normal(oracle.n)
            h = rng.standard_normal(oracle.n)
            t1 = oracle.third_directional(x, h)
            t2 = oracle.third_directional(x, 2.0 * h)
            assert np.linalg.norm(t2 - 4.0 * t1) <= 1e-12 * (1 + np.linalg.norm(t1))


def test_hessian_is_symmetric_and_psd_and_trace_matches():
    rng = np.random.default_rng(9)
    for oracle in _shipped_oracles():
        for _ in range(10):
            x = rng.standard_normal(oracle.n)
            H = oracle.hessian(x)
            assert np.array_equal(H, H.T)
            assert np.linalg.eigvalsh(H).min() >= -1e-10
            assert abs(oracle.hessian_trace(x) - np.trace(H)) <= 1e-12 * (
                1 + abs(np.trace(H))
            )


def test_logistic_hessian_matches_the_general_product():
    # The Hessian is formed as B^T B with B = diag(sqrt(w)) A by a symmetric
    # rank-m update; the general product A^T diag(w) A is the reference.
    rng = np.random.default_rng(31)
    tall, _ = make_logistic(2000, 30, seed=32)
    wide, _ = make_logistic(40, 120, seed=33)  # rank at most 40 of 121
    sat, _ = make_logistic(200, 10, seed=34)
    sat_features = sat.features.copy()
    sat_features[:60, 1:] *= 1e3  # margins of order 1e3 saturate the sigmoid
    sat = Dataset(sat_features, sat.labels)
    for data in (tall, wide, sat):
        oracle = logistic_oracle(data)
        a = data.features
        for _ in range(3):
            x = rng.standard_normal(oracle.n)
            s = expit(a @ x)
            w = s * (1.0 - s)
            if data is sat:
                assert np.count_nonzero(w == 0.0) >= 30
            ref = a.T @ (w[:, None] * a)
            H = oracle.hessian(x)
            assert np.array_equal(H, H.T)
            assert np.linalg.norm(H - ref) <= 1e-13 * np.linalg.norm(ref)


# Each entry point: its counter, the hook whose output it checks, its
# arguments after x and the shape it checks that output has at n = 3 (the
# trace's hook is the Hessian's).
ENTRY_POINTS = [("value", "value", "_value", (), ()),
                ("grad", "grad", "_grad", (), (3,)),
                ("hessian", "hessian", "_hessian", (), (3, 3)),
                ("third_directional", "third", "_third_directional",
                 (np.ones(3),), (3,)),
                ("hessian_trace", "trace", "_hessian", (), (3, 3))]


def test_query_dimension_is_validated():
    # Every entry point of both oracles takes the one call path: a wrong
    # shape fails before anything is counted, a non-finite or wrong-shape
    # hook output is an OracleError naming the entry point, and the
    # finite-difference third derivative is counted as its gradient calls,
    # never as a third call.
    for fd in (False, True):
        for entry, kind, hook, args, shape in ENTRY_POINTS:
            oracle = quartic_oracle(3)
            name = entry
            if fd:
                oracle = FdThirdOracle(oracle, 1e-3)
                if kind == "third":
                    kind, name = None, "third_directional (tau=0.001)"
            call = getattr(oracle, entry)
            call(np.ones(3), *args)
            before = oracle.calls.snapshot()
            with pytest.raises(ValueError, match="^x has shape"):
                call(np.zeros(2), *args)
            with pytest.raises(ValueError, match="^x has shape"):
                call(as_point(np.zeros(4)), *args)
            if args:
                with pytest.raises(ValueError, match="^h has shape"):
                    call(np.zeros(3), np.zeros(2))
            assert oracle.calls.snapshot() == before

            setattr(oracle, hook, lambda p, *_: np.full((3, 3), np.nan))
            with pytest.raises(OracleError, match="^%s returned a non-finite "
                               "result$" % re.escape(name)):
                call(np.ones(3), *args)
            # np.trace takes a (3, 2) array too, so hessian_trace must check
            # the matrix's shape, not only its trace's.
            for got in ((3, 3, 3), (3, 2)):
                setattr(oracle, hook, lambda p, *_, got=got: np.ones(got))
                with pytest.raises(OracleError, match="^%s$" % re.escape(
                        "%s returned an array of shape %s, expected an array "
                        "of shape %s" % (name, got, shape))):
                    call(np.ones(3), *args)
            if kind is not None:
                before[kind] += 3
            if entry == "hessian_trace":
                # A finite Hessian whose trace overflows.
                setattr(oracle, hook, lambda p: np.diag(np.full(3, 1e308)))
                with pytest.raises(OracleError, match="^hessian_trace "
                                   "returned a non-finite result$"):
                    call(np.ones(3))
                before[kind] += 1
            assert oracle.calls.snapshot() == before
            assert not fd or before["third"] == 0


@pytest.mark.parametrize("bad", [0, -1, 3.5, 3.0, True, "3", None])
def test_oracle_dimension_must_be_an_integer_at_least_one(bad):
    # int(n) used to turn 3.5 into 3 and True into 1 without a word.
    with pytest.raises(ValueError, match=r"n must be at least 1 and an "
                       r"integer, got %s" % re.escape(repr(bad))):
        quartic_oracle(bad)
    assert quartic_oracle(np.int64(3)).n == 3


# -- call counting -------------------------------------------------------------


def test_every_entry_point_bumps_its_counter_once():
    oracle = quartic_oracle(2)
    x = np.ones(2)
    oracle.value(x)
    oracle.grad(x)
    oracle.grad(x)
    oracle.hessian(x)
    oracle.third_directional(x, x)
    oracle.hessian_trace(x)
    snap = oracle.calls.snapshot()
    assert snap == {"value": 1, "grad": 2, "hessian": 1, "third": 1, "trace": 1}
    assert oracle.calls.total() == 6
    oracle.calls.reset()
    assert oracle.calls.total() == 0
    oracle.calls.bump("grad")
    assert repr(oracle.calls) == (
        "CallCounter(value=0, grad=1, hessian=0, third=0, trace=0)")


def test_counter_totals_match_an_independent_recorder():
    class Recorder:
        """Pass-through oracle facade keeping its own invocation tally."""

        def __init__(self, base):
            self.base = base
            self.n = base.n
            self.calls = base.calls
            self.tally = dict.fromkeys(("value", "grad", "hessian", "third", "trace"), 0)

        def value(self, x):
            self.tally["value"] += 1
            return self.base.value(x)

        def grad(self, x):
            self.tally["grad"] += 1
            return self.base.grad(x)

        def hessian(self, x):
            self.tally["hessian"] += 1
            return self.base.hessian(x)

        def third_directional(self, x, h):
            self.tally["third"] += 1
            return self.base.third_directional(x, h)

        def hessian_trace(self, x):
            self.tally["trace"] += 1
            return self.base.hessian_trace(x)

    from tensormin.basic import run_basic

    base = quartic_oracle(2)
    wrapped = Recorder(base)
    _, report, _ = run_basic(wrapped, ZeroComposite(), np.ones(2), 1.0, 1e-2)
    snap = base.calls.snapshot()
    assert snap == wrapped.tally
    assert report.CO == sum(wrapped.tally.values())


def test_call_counter_is_thread_safe():
    counter = CallCounter()
    per_thread = 2000

    def bump_many():
        for _ in range(per_thread):
            counter.bump("grad")

    threads = [threading.Thread(target=bump_many) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert counter.grad == 8 * per_thread


def test_call_counter_keeps_a_total_per_thread():
    counter = CallCounter()
    counts = {}

    def bump(k):
        for _ in range(k):
            counter.bump("value")
        counts[k] = counter.thread_total()

    threads = [threading.Thread(target=bump, args=(k,)) for k in (3, 5)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert counts == {3: 3, 5: 5}
    assert counter.thread_total() == 0  # this thread made none
    assert counter.total() == 8


# -- dataset validation --------------------------------------------------------


def test_dataset_accepts_valid_data_and_exposes_shapes():
    data = Dataset(np.array([[1.0, 2.0], [1.0, -1.0]]), np.array([0.0, 1.0]))
    assert data.n_samples == 2
    assert data.dim == 2


def test_dataset_rejects_bad_inputs():
    ones2 = np.ones((2, 1))
    with pytest.raises(ValueError):
        Dataset(np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([0.0, 1.0]))  # intercept
    with pytest.raises(ValueError):
        Dataset(np.hstack([ones2, ones2]), np.array([0.0, 2.0]))  # label not 0/1
    with pytest.raises(ValueError):
        Dataset(np.hstack([ones2, ones2]), np.array([0.0]))  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.ones((0, 2)), np.zeros(0))  # empty
    with pytest.raises(ValueError):
        Dataset(np.ones(4), np.zeros(4))  # not 2-d
    with pytest.raises(ValueError, match="no intercept column"):
        Dataset(np.zeros((3, 0)), np.zeros(3))  # no columns
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="features must be finite"):
            Dataset(np.array([[1.0, bad], [1.0, 0.0]]), np.array([0.0, 1.0]))


# -- finite-difference third derivative ----------------------------------------


def test_fd_third_vanishes_on_quadratics():
    rng = np.random.default_rng(10)
    B = rng.standard_normal((3, 3))
    oracle = QuadraticOracle(B.T @ B, rng.standard_normal(3))
    for tau in (1e-1, 1e-2):
        x = rng.standard_normal(3)
        h = rng.standard_normal(3)
        t = fd_third_directional(oracle, x, h, tau)
        assert np.linalg.norm(t) <= 1e-10


def test_fd_third_error_bound_on_quartic():
    # With a 24-Lipschitz third derivative the second gradient difference is
    # within (24/3) * tau * ||h||^3 of the true directional vector.
    oracle = quartic_oracle(1)
    t = fd_third_directional(oracle, np.array([1.0]), np.array([1.0]), 0.1)
    assert abs(float(t[0]) - 24.0) <= (24.0 / 3.0) * 0.1


def test_fd_third_error_decreases_at_least_linearly_in_tau():
    _, oracle = make_logistic(12, 2, seed=2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(oracle.n)
    h = rng.standard_normal(oracle.n)
    exact = oracle.third_directional(x, h)
    errors = [
        float(np.linalg.norm(fd_third_directional(oracle, x, h, tau) - exact))
        for tau in (1e-1, 1e-2, 1e-3)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= errors[0] / 5.0
    assert errors[2] <= errors[1] / 5.0


_ANCHOR = ModelAnchor.from_oracle(quartic_oracle(2), np.ones(2), 1.0)

# Each site that takes a positive real: (the name its error gives, a call
# that passes the value there).
POSITIVE_SITES = {
    "level_search-epsilon": ("epsilon", lambda v: run_basic(
        quartic_oracle(2), ZeroComposite(), np.ones(2), 1.0, v)),
    "level_search-m0": ("m0", lambda v: run_basic(
        quartic_oracle(2), ZeroComposite(), np.ones(2), v, 1e-6)),
    "RunConfig-epsilons": (r"epsilons\[1\]", lambda v: RunConfig(
        problem="quartic", n=2, epsilons=[1e-2, v])),
    "RunConfig-m0": ("m0", lambda v: RunConfig(problem="quartic", n=2, m0=v)),
    "RunConfig-fd_tau": ("fd_tau", lambda v: RunConfig(
        problem="quartic", n=2, fd_tau=v)),
    "fd_third_directional": ("tau", lambda v: fd_third_directional(
        quartic_oracle(2), np.ones(2), np.ones(2), v)),
    "FdThirdOracle": ("tau", lambda v: FdThirdOracle(quartic_oracle(2), v)),
    "from_oracle": ("M", lambda v: ModelAnchor.from_oracle(
        quartic_oracle(2), np.ones(2), v)),
    # At a Point that holds anchor data: the new level is still checked.
    "from_oracle-anchored": ("M", lambda v: ModelAnchor.from_oracle(
        quartic_oracle(2), _ANCHOR.point, v)),
    "secular_solve": ("M", lambda v: secular_solve(_ANCHOR.factor, v,
                                                   np.ones(2))),
    "run_inner": ("epsilon", lambda v: run_inner(_ANCHOR, quartic_oracle(2),
                                                 v)),
    "solve_a": ("M", lambda v: solve_a(1.0, v)),
}


_NOT_POSITIVE_REALS = {"nan": np.nan, "inf": np.inf, "0": 0.0, "-1": -1.0,
                       "True": True, "None": None, "str": "1", "list": [1.0],
                       "complex": 1j, "array": np.ones(2)}


@pytest.mark.parametrize("site, bad", [
    pytest.param(site, bad, id="%s-%s" % (site, key))
    for site in sorted(POSITIVE_SITES)
    for key, bad in _NOT_POSITIVE_REALS.items()
    # fd_tau=None means "no finite differences".
    if not (site == "RunConfig-fd_tau" and bad is None)])
def test_every_positive_real_is_checked_alike(site, bad):
    # Sites that only refused <= 0 let NaN and inf through (an anchor was
    # re-levelled to M = inf, solve_a(1, nan) ran 200 Newton steps), and none
    # refused a bool; a value that is not a real number raised a TypeError
    # naming no argument, or a string such as "1" was read as a number.
    name, call = POSITIVE_SITES[site]
    with pytest.raises(ValueError, match="^%s must be finite and positive, got "
                       "%s$" % (name, re.escape(repr(bad)))):
        call(bad)


def test_check_positive_returns_a_float():
    assert check_positive("M", np.float64(2.0)) == 2.0
    assert type(check_positive("M", 3)) is float


def test_fd_oracle_costs_three_gradients_then_two_on_same_point():
    base = quartic_oracle(2)
    oracle = FdThirdOracle(base, 1e-3)
    p = Point(np.ones(2))
    oracle.third_directional(p, np.array([1.0, 0.0]))
    assert base.calls.grad == 3
    oracle.third_directional(p, np.array([0.0, 1.0]))  # same expansion point
    assert base.calls.grad == 5
    oracle.third_directional(2 * p.x, np.array([1.0, 0.0]))  # new point
    assert base.calls.grad == 8
    q = Point(3 * p.x)
    grad_at(oracle, q)  # a point that holds its gradient, as an anchor's does
    assert base.calls.grad == 9
    oracle.third_directional(q, np.array([1.0, 0.0]))
    assert base.calls.grad == 11
    assert base.calls.third == 0


def test_value_at_and_grad_at_evaluate_once_per_point():
    oracle = quartic_oracle(2)
    x = np.array([1.0, -2.0])
    p = Point(x)
    h = np.array([0.5, 1.0])
    for _ in range(2):
        f = value_at(oracle, p)
        g = grad_at(oracle, p)
        g_norm = grad_norm_at(oracle, p)
        oracle.hessian(p)
        oracle.third_directional(p, h)
    # The value and the gradient are evaluated and counted once, and the
    # gradient's norm is taken once from it; the entry points keep nothing,
    # so each Hessian and third-derivative query is a call.
    assert oracle.calls.snapshot() == {"value": 1, "grad": 1, "hessian": 2,
                                       "third": 2, "trace": 0}
    assert f == quartic_oracle(2).value(x)
    assert np.array_equal(g, quartic_oracle(2).grad(x))
    assert g_norm == norm(g) and p.data["grad_norm"] is g_norm
    q = Point(x)
    assert grad_norm_at(oracle, q) == g_norm  # reads the gradient first
    assert oracle.calls.grad == 2
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0] = 0.0
    assert grad_at(oracle, p) is g


def test_fd_oracle_shared_across_threads_matches_the_uncached_formula():
    # Each thread has its own expansion point; a result built from another
    # thread's gradient would differ from the uncached formula.
    base = quartic_oracle(3)
    fd = FdThirdOracle(base, 1e-3)
    rng = np.random.default_rng(12)
    points = rng.standard_normal((8, 3))
    dirs = rng.standard_normal((40, 3))
    expected = [[fd_third_directional(base, x, h, 1e-3) for h in dirs]
                for x in points]
    mismatches = []

    def work(k):
        for _ in range(5):
            for j, h in enumerate(dirs):
                if not np.array_equal(fd.third_directional(points[k], h),
                                      expected[k][j]):
                    mismatches.append((k, j))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_fd_oracle_delegates_everything_else_to_the_base():
    base = quartic_oracle(2)
    oracle = FdThirdOracle(base, 1e-4)
    x = np.array([1.0, -2.0])
    assert isinstance(oracle, SmoothOracle)
    assert oracle.n == 2
    assert oracle.lipschitz_third == 24.0
    assert oracle.calls is base.calls
    assert oracle.value(x) == base.value(x)
    assert np.array_equal(oracle.grad(x), base.grad(x))
    assert np.array_equal(oracle.hessian(x), base.hessian(x))
    assert oracle.hessian_trace(x) == base.hessian_trace(x)
    with pytest.raises(ValueError, match="h has shape"):
        oracle.third_directional(x, np.ones(3))


@pytest.mark.filterwarnings("error")  # the typed error, not NumPy warnings
def test_fd_oracle_non_finite_difference_fails_typed_naming_tau():
    # At x = 0 the step tau h is not lost to rounding, but tau^2 underflows
    # to zero, so T_tau is 0/0.
    oracle = FdThirdOracle(quartic_oracle(2), 1e-200)
    with pytest.raises(OracleError, match=r"third_directional \(tau=1e-200\)"
                       " returned a non-finite result"):
        oracle.third_directional(np.zeros(2), np.ones(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e-160, 1e-200])
def test_fd_oracle_vanishing_difference_fails_typed_naming_tau(tau):
    # At x = (1, 1), x +- tau h round to x, so T_tau is exactly 0 (and 0/0
    # at 1e-200).  Unchecked, tau = 1e-160 makes the run a second-order
    # method that still converges (IT 14, CO 398); it must stop on the
    # oracle error instead, naming tau.
    from tensormin.basic import run_basic

    oracle = FdThirdOracle(quartic_oracle(2), tau)
    with pytest.raises(OracleError, match=r"third_directional \(tau=%r\): "
                       r".* so x \+- tau h round to x" % tau):
        run_basic(oracle, ZeroComposite(), np.ones(2), 1.0, 1e-6)


def test_fd_oracle_approximates_the_true_third_directional():
    _, oracle = make_logistic(10, 2, seed=6)
    fd = FdThirdOracle(oracle, 1e-4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(oracle.n)
    h = rng.standard_normal(oracle.n)
    exact = oracle.third_directional(x, h)
    assert np.linalg.norm(fd.third_directional(x, h) - exact) <= 1e-5 * (
        1 + np.linalg.norm(exact)
    )


# -- derivative checker --------------------------------------------------------


def test_check_derivatives_passes_on_quartic():
    rng = np.random.default_rng(13)
    report = check_derivatives(quartic_oracle(5), rng.standard_normal(5), tol=1e-5)
    assert isinstance(report, DerivativeReport)
    assert report.passed
    assert report.failed_orders == []
    assert set(report.max_rel_err) == {1, 2, 3}


def test_check_derivatives_passes_on_logistic():
    _, oracle = make_logistic(5, 2, seed=14)
    x = np.random.default_rng(14).standard_normal(oracle.n)
    report = check_derivatives(oracle, x, tol=1e-5)
    assert report.passed


@pytest.mark.parametrize("n", [1, 2, 10, 30])
def test_lower_bound_quartic_derivatives_and_minimizer(n):
    oracle = LowerBoundQuartic(n)
    x = np.random.default_rng(n).standard_normal(n)
    report = check_derivatives(oracle, x, tol=1e-5)
    assert report.passed, report.max_rel_err
    # D x* = ones, so f and grad f at x* are exact in floating point.
    assert oracle.value(oracle.minimizer) == oracle.f_min
    assert np.all(oracle.grad(oracle.minimizer) == 0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"n_directions": 0}, "n_directions must be at least 1"),
    ({"n_directions": -1}, "n_directions must be at least 1"),
    ({"tol": 0.0}, "tol must be finite and positive"),
    ({"tol": -1e-5}, "tol must be finite and positive"),
    ({"x": np.array([math.nan, 1.0])}, r"x must be finite, got x\[0\] = nan"),
    ({"x": np.array([1.0, -math.inf])}, r"x must be finite, got x\[1\] = -inf"),
    ({"x": np.ones((1, 2))}, r"x has shape \(1, 2\), expected \(2,\)"),
    ({"x": np.ones(3)}, r"x has shape \(3,\), expected \(2,\)"),
])
def test_check_derivatives_refuses_an_audit_that_checks_nothing(kwargs, match):
    # With no direction every error stayed 0 and the audit passed; no error
    # can be at most a tolerance <= 0.  A non-finite or wrong-shape x is
    # named before any oracle call, not blamed on the gradient or the norm.
    oracle = quartic_oracle(2)
    with pytest.raises(ValueError, match=match):
        check_derivatives(oracle, **{"x": np.ones(2), **kwargs})
    assert oracle.calls.total() == 0


def test_norm_survives_squares_that_overflow():
    assert norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert norm(np.array([3.0, 4.0])) == 5.0
    assert norm(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(norm(np.array([math.nan, 1.0])))


def test_check_derivatives_flags_a_corrupted_gradient():
    class BrokenGradient(QuarticOracle):
        def _grad(self, x):
            return super()._grad(x) + 1e-3  # constant bias: only order 1 sees it

    report = check_derivatives(BrokenGradient(3), np.ones(3), tol=1e-5)
    assert not report.passed
    assert report.failed_orders == [1]
