"""run_point is the one place that turns what a check measured into a record.

A check returns its residuals or raises CheckFailure; these tests pin how
run_point reduces either to (residual, status, note), including residuals that
are NaN or infinite, and that every check keeps that contract.
"""
import math

import numpy as np
import pytest

from pgquant import verify as verify_mod
from pgquant.forms import WeightSeq
from pgquant.verify import EXPECTED_FAIL, CheckFailure


def point(l=2, w=None, checks=None):
    w = w or verify_mod.grid_weights("ones", l)
    return verify_mod.run_point(l, "1", 1.0, "custom", w, checks=checks)


def with_check(monkeypatch, name, fn):
    """Swap the function of one CHECKS entry, keeping its name and place."""
    monkeypatch.setattr(verify_mod, "CHECKS", tuple(
        (n, fn if n == name else f) for n, f in verify_mod.CHECKS))


@pytest.mark.parametrize("measured", [[0.0, math.nan], [math.nan, 0.0], [math.inf],
                                      [1e-12, -math.inf]])
def test_a_non_finite_residual_fails_as_inf(monkeypatch, measured):
    with_check(monkeypatch, "defining_relation", lambda ctx, w, rng, tol: measured)
    [r] = point(checks=("defining_relation",))
    assert (r.residual, r.status, r.note) == (math.inf, "fail", "")


@pytest.mark.parametrize("measured,residual,status", [
    ([], 0.0, "pass"), ([3e-10, 1e-12], 3e-10, "pass"), ([1e-12, 2e-9], 2e-9, "fail")])
def test_the_residual_is_the_largest_measured(monkeypatch, measured, residual, status):
    with_check(monkeypatch, "defining_relation", lambda ctx, w, rng, tol: measured)
    [r] = point(checks=("defining_relation",))
    assert (r.residual, r.status) == (residual, status)


def test_raised_failures_keep_residual_one_and_their_note(monkeypatch):
    def structural(ctx, w, rng, tol):
        raise CheckFailure("kernel not one-dimensional")

    def expected(ctx, w, rng, tol):
        raise CheckFailure(expected=True)

    with_check(monkeypatch, "defining_relation", structural)
    with_check(monkeypatch, "norm_bound", expected)
    failed, witnessed = point(checks=("defining_relation", "norm_bound"))
    assert (failed.residual, failed.status, failed.note) == (
        1.0, "fail", "kernel not one-dimensional")
    assert (witnessed.residual, witnessed.status, witnessed.note) == (0.0, EXPECTED_FAIL, "")


@pytest.mark.parametrize("l", [2, 4])
@pytest.mark.parametrize("name", ["toeplitz_dual_path", "multiplicativity",
                                  "adjoint_symbol_rule"])
def test_overflowing_weights_fail_without_warnings(name, l):
    # w_1 = 1e308 overflows the weight ratios to inf and their differences to
    # NaN; numpy warnings are errors under this suite's configuration
    w = WeightSeq(l, (1.0, 1e308) + (1.0,) * (l - 2))
    [r] = point(l, w=w, checks=(name,))
    assert (r.residual, r.status) == (math.inf, "fail")


@pytest.mark.parametrize("name,fn", verify_mod.CHECKS, ids=verify_mod.CHECK_NAMES)
def test_every_check_returns_a_list_of_residuals(name, fn):
    # a list, not a generator: a check does all its work when called, so a
    # timer around the call measures the check
    ctx = verify_mod.AlgebraCtx(2, 1.0)
    w = verify_mod.grid_weights("rand1", 2)
    measured = fn(ctx, w, np.random.default_rng(0), verify_mod.DEFAULT_TOL)
    assert isinstance(measured, list)
    assert all(0 <= x < verify_mod.DEFAULT_TOL for x in measured)


@pytest.mark.parametrize("checks", [("toeplitz_dual_pat",), "toeplitz_dual_path",
                                    ("associativity", "no_such_check")])
def test_unknown_check_names_are_rejected(checks):
    with pytest.raises(ValueError, match="CHECK_NAMES"):
        point(checks=checks)
