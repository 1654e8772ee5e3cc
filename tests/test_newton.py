"""Newton solver, continuation and initializer tests."""

import numpy as np
import pytest

from hessobs.errors import NoAdmissibleStart
from hessobs.geometry import ChartGrid, flat_metric
from hessobs.newton import (
    NewtonConfig,
    PenaltySchedule,
    continuation_solve,
    default_initializer,
    newton_solve,
)
from hessobs.operator import (
    Problem,
    coefficients_from_expressions,
    evaluate_state,
    linearize,
    residual,
)
from hessobs.symfunc import SymmetricFunctionSpec


def linear_problem(m=17):
    grid = ChartGrid.box((-1, -1), (1, 1), m)
    coeff = coefficients_from_expressions(2, "1 + 0.2*sin(x1)*cos(x2)")
    return Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 1), coeff=coeff,
                   h=np.full((m, m), 1e6), phi=np.zeros((m, m)))


def ma_manufactured(m=17):
    grid = ChartGrid.box((-1, -1), (1, 1), m)
    coeff = coefficients_from_expressions(2, "exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)")
    ustar = grid.sample(lambda x: np.exp((x[..., 0] ** 2 + x[..., 1] ** 2) / 2))
    return Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 2), coeff=coeff,
                   h=ustar + 1.0, phi=ustar, subsolution=ustar), ustar


# -------------------------------------------------- schedule

def test_schedule_values():
    s = PenaltySchedule(1e-1, 0.1, 1e-6)
    assert s.values() == pytest.approx([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])


def test_schedule_eps_min_override_two_entries():
    s = PenaltySchedule(1e-1, 0.1, 1e-2)
    assert s.values() == pytest.approx([1e-1, 1e-2])


def test_schedule_single_entry():
    s = PenaltySchedule(1e-3, 0.1, 1e-3)
    assert s.values() == pytest.approx([1e-3])


def test_schedule_validation():
    with pytest.raises(ValueError):
        PenaltySchedule(eps0=1.5)
    with pytest.raises(ValueError):
        PenaltySchedule(ratio=1.0)
    with pytest.raises(ValueError):
        PenaltySchedule(eps0=1e-3, eps_min=1e-2)


# -------------------------------------------------- newton on linear problem

def test_sigma1_converges_in_one_iteration():
    prob = linear_problem()
    u0 = default_initializer(prob)
    u, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-9))
    assert rep.converged
    assert rep.iterations == 1  # residual is affine in u
    assert rep.step_history == [1.0]
    # Dirichlet data preserved exactly
    assert np.all(u[prob.grid.boundary_mask()] == 0.0)


def test_first_step_decreases_l2_from_subsolution():
    prob = linear_problem()
    u0 = default_initializer(prob)
    r0 = residual(u0, prob, 1e-2)
    assert r0.values.min() >= -1e-12  # start is a subsolution
    _, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-9))
    assert rep.residual_l2_history[1] < rep.residual_l2_history[0]


# -------------------------------------------------- manufactured MA

def test_ma_manufactured_solution_error_small():
    prob, ustar = ma_manufactured(m=17)
    u0 = default_initializer(prob)
    u, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))
    assert rep.converged
    assert np.abs(u - ustar).max() < 5e-3  # discretization error only


def test_ma_admissibility_margin_positive_every_iteration():
    prob, _ = ma_manufactured(m=17)
    bump = prob.grid.sample(
        lambda x: 0.05 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
    )
    u0 = prob.subsolution + bump
    u, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))
    assert rep.converged
    assert all(m > 0 for m in rep.margin_history)
    assert np.linalg.eigvalsh(linearize(evaluate_state(u, prob, 1e-2), prob).Fij).min() > 0


def test_ma_quadratic_tail():
    prob, _ = ma_manufactured(m=33)
    bump = prob.grid.sample(
        lambda x: 0.08 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
    )
    u0 = prob.subsolution + bump
    _, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-9))
    r = rep.residual_history
    assert len(r) >= 4
    # superlinear tail: drop ratios shrink and the last one is tiny
    ratios = [r[i + 1] / r[i] for i in range(len(r) - 1)]
    assert ratios[-1] < 1e-2
    assert ratios[-1] < 0.3 * ratios[-2]
    # quadratic-rate signature r_{k+1} <= C r_k^2 on the final two drops
    assert r[-1] <= 10.0 * r[-2] ** 2
    assert r[-2] <= 10.0 * r[-3] ** 2


def test_each_iterate_evaluated_once(monkeypatch):
    # one state evaluation for the start and one per line-search trial; the
    # Jacobian reuses the accepted trial's state instead of evaluating again
    import hessobs.newton as newton
    import hessobs.operator as operator

    prob, _ = ma_manufactured(m=17)
    u0 = prob.subsolution + prob.grid.sample(
        lambda x: 0.05 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
    )
    calls = {"state": 0, "residual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operator, "evaluate_state", counting("state", operator.evaluate_state))
    monkeypatch.setattr(newton, "residual", counting("residual", newton.residual))
    _, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))
    assert rep.iterations >= 2
    assert calls["residual"] >= 1 + rep.iterations  # start + every trial
    assert calls["state"] == calls["residual"]


# -------------------------------------------------- continuation

def test_continuation_single_entry_equals_newton():
    prob = linear_problem()
    sched = PenaltySchedule(1e-2, 0.1, 1e-2)
    result = continuation_solve(prob, sched, NewtonConfig(tol_residual=1e-9))
    u0 = default_initializer(prob)
    u_direct, _ = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-9))
    assert np.abs(result.final - u_direct).max() < 1e-12
    assert result.epsilons == [1e-2]


def test_continuation_warm_start_iterations():
    prob, _ = ma_manufactured(m=17)
    sched = PenaltySchedule(1e-2, 0.1, 1e-4)
    result = continuation_solve(prob, sched, NewtonConfig(tol_residual=1e-10))
    assert all(r.converged for r in result.reports)
    first = result.reports[0].iterations
    assert all(r.iterations <= first for r in result.reports[1:])


def test_continuation_propagates_epsilon_on_failure():
    prob, _ = ma_manufactured(m=9)
    sched = PenaltySchedule(1e-2, 0.1, 1e-3)
    with pytest.raises(Exception) as ei:
        continuation_solve(prob, sched, NewtonConfig(tol_residual=1e-30, max_iters=2))
    assert hasattr(ei.value, "epsilon")


# -------------------------------------------------- initializer

def test_initializer_builtin_spec_example():
    # psi = 1, phi = 0, flat unit square: paraboloid qualifies
    grid = ChartGrid.box((0, 0), (1, 1), 11)
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 1), coeff=coeff,
                   h=np.full((11, 11), 1e6), phi=np.zeros((11, 11)))
    u0 = default_initializer(prob)
    r = residual(u0, prob, 1e-1)
    assert r.admissible
    assert np.all(u0[grid.boundary_mask()] == 0.0)


def test_initializer_supplied_subsolution_passthrough():
    prob, ustar = ma_manufactured(m=9)
    u0 = default_initializer(prob)
    assert np.abs(u0 - ustar).max() < 1e-14


def test_initializer_rejects_inadmissible_subsolution():
    prob, _ = ma_manufactured(m=9)
    bad = prob.grid.sample(lambda x: -(x[..., 0] ** 2 + x[..., 1] ** 2))
    prob.subsolution = bad
    with pytest.raises(NoAdmissibleStart):
        default_initializer(prob)


# -------------------------------------------------- 3d smoke test

def test_sigma1_3d_solve():
    grid = ChartGrid.box((-1, -1, -1), (1, 1, 1), 9)
    coeff = coefficients_from_expressions(3, "3")
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(3, 1), coeff=coeff,
                   h=np.full((9, 9, 9), 1e6),
                   phi=grid.sample(lambda x: 0.5 * (x**2).sum(axis=-1)))
    u0 = default_initializer(prob)
    u, rep = newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))
    assert rep.converged
    exact = grid.sample(lambda x: 0.5 * (x**2).sum(axis=-1))
    assert np.abs(u - exact).max() < 1e-9  # quadratics are reproduced exactly
