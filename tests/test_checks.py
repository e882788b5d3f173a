"""Verification records: a numeric check is decided by, and prints, its metric."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from rosenmorse import checks, numerics

# the exact yes/no checks carry no metric
EXACT = ("ode-residual", "degree", "exact level shift")


def assert_consistent(result):
    if result.name.startswith(EXACT):
        assert result.metric is None and result.bound is None, result
        return
    assert result.passed == (result.metric < result.bound), result
    if result.name == "fdm convergence order":
        # the line prints the orders; the metric is the largest |order - 2|
        orders = json.loads(result.detail.removeprefix("orders = "))
        assert max(abs(o - 2) for o in orders) == pytest.approx(result.metric, abs=5e-4)
    else:
        assert result.detail.endswith(f" = {result.metric:.3e}"), result


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_every_suite_at_defaults(suite):
    for result in checks.SUITES[suite]():
        assert_consistent(result)


def test_failing_figures_fail():
    # at non-integer a the ladder stencil converges slowly, so two figures
    # exceed their 1e-7 bound on correct closed forms
    results = checks.suite_susy(a=F(1, 4), b=F(1))
    assert [r.passed for r in results] == [False, False, True, True]
    for result in results:
        assert_consistent(result)


def test_classical_gram_matrices_converge(monkeypatch):
    # every entry, off-diagonal ones at the round-off floor included, meets its target
    seen, integrate = [], numerics.integrate

    def recorded(*args, **kwargs):
        est = integrate(*args, **kwargs)
        seen.append(est)
        return est

    monkeypatch.setattr(numerics, "integrate", recorded)
    assert all(r.passed for r in checks.suite_classical())
    assert [est.level for est in seen] == [8, 8, 5, 5, 5, 5, 5]
    assert all(np.all(est.converged) for est in seen)
