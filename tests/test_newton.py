"""Newton solver, continuation and initializer tests."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hessobs.cli import main
from hessobs.config import build_runsetup, parse_config
from hessobs.errors import NoAdmissibleStart, SingularJacobian
from hessobs.geometry import ChartGrid, flat_metric, metric_from_callable
from hessobs.newton import (
    NewtonConfig,
    PenaltySchedule,
    _linear_solve,
    _nested_dissection,
    _path_point,
    _predict,
    continuation_solve,
    default_initializer,
    newton_solve,
)
from hessobs.problems import bundled_config_path, bundled_config_text
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
    assert np.linalg.eigvalsh(evaluate_state(u, prob, 1e-2).Fij).min() > 0


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


def test_line_search_rejections_are_counted(monkeypatch):
    # every trial is accepted or rejected for exactly one reason; the first
    # trial is made to fail the cone margin, ma_obstacle's first epsilon
    # then rejects full steps by the Armijo rule on its own
    import hessobs.newton as newton

    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=17))
    u0 = default_initializer(rs.problem)
    calls = []

    def first_trial_outside(u, prob, epsilon):
        res = residual(u, prob, epsilon)
        calls.append(res)
        return dataclasses.replace(res, margin=-1.0) if len(calls) == 2 else res

    monkeypatch.setattr(newton, "residual", first_trial_outside)
    _, rep = newton_solve(u0, rs.problem, 1e-2, rs.config.newton)
    assert rep.rejected_margin == 1
    assert rep.rejected_armijo >= 1
    assert len(calls) - 1 == rep.iterations + rep.rejected_margin + rep.rejected_armijo


# -------------------------------------------------- linear solve

@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (95, 95), (1, 1, 1), (13, 13, 13),
                                   (7, 12, 5)], ids=str)
def test_nested_dissection_is_cached_permutation(shape):
    order = _nested_dissection(shape)
    assert np.array_equal(np.sort(order), np.arange(int(np.prod(shape))))
    assert _nested_dissection(shape) is order
    assert not order.flags.writeable
    # the last separator is the middle plane of the longest axis
    axis = int(np.argmax(shape))
    if shape[axis] >= 3:
        index = np.arange(order.size).reshape(shape)
        plane = np.take(index, shape[axis] // 2, axis=axis).ravel()
        assert np.array_equal(order[-plane.size:], plane)


def _conformal_kappa_2d():
    grid = ChartGrid.box((-1, -1), (1, 1), (23, 19))
    metric = metric_from_callable(grid, lambda x: np.exp(0.4 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1", "kappa_zg", 0.5)
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 2),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.2 * np.sin(x[..., 0]) + 3.0)
    return prob, u


def _flat_3d():
    grid = ChartGrid.box((-1, -1, -1), (1, 1, 1), 11)
    coeff = coefficients_from_expressions(3, "1 + 0.1*p1 + 0.05*z")
    prob = Problem(grid=grid, metric=flat_metric(grid), fspec=SymmetricFunctionSpec(3, 2),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: (x**2).sum(axis=-1) + 0.3 * x[..., 0] * x[..., 1] ** 2)
    return prob, u


@pytest.mark.parametrize("make", [_conformal_kappa_2d, _flat_3d],
                         ids=["2d-conformal-kappa_zg", "3d-flat"])
def test_ordered_solve_matches_plain_spsolve(make):
    prob, u = make()
    J = linearize(evaluate_state(u, prob, 1e-2), prob)
    assert abs(J - J.T).max() > 1e-6 * abs(J).max()  # not symmetric
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    x = _linear_solve(J, b, prob.grid.interior_shape)
    ref = spla.spsolve(J.tocsc(), b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("make", [_conformal_kappa_2d, _flat_3d],
                         ids=["2d-conformal-kappa_zg", "3d-flat"])
def test_two_column_solve_matches_two_solves(make):
    # the Newton step and the tangent share one factorization
    prob, u = make()
    J = linearize(evaluate_state(u, prob, 1e-2), prob)
    b = np.random.default_rng(6).standard_normal((J.shape[0], 2))
    shape = prob.grid.interior_shape
    x = _linear_solve(J, b, shape)
    assert x.shape == b.shape
    for j in range(2):
        ref = _linear_solve(J, b[:, j], shape)
        assert np.abs(x[:, j] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bundled_ma_obstacle_iteration_counts(tmp_path):
    # per-epsilon Newton counts of the Euler-predicted continuation, pinned
    cfg = bundled_config_path("ma_obstacle")
    assert main(["solve", str(cfg), "--grid-m", "33", "--audit", "off",
                 "--out", str(tmp_path), "--quiet"]) == 0
    solves = json.loads((tmp_path / "report.json").read_text())["solves"]
    assert [s["iterations"] for s in solves] == [6, 4, 2, 2, 3]


def singular_linearize(monkeypatch):
    """Make every Newton Jacobian exactly singular: its first row is empty."""
    import hessobs.newton as newton

    def emptied(state, prob):
        J = linearize(state, prob)
        keep = np.ones(J.shape[0])
        keep[0] = 0.0
        J = sp.diags(keep) @ J
        J.eliminate_zeros()
        return J.tocsr()

    monkeypatch.setattr(newton, "linearize", emptied)


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_singular_jacobian_raises(monkeypatch):
    prob, _ = ma_manufactured(m=9)
    u0 = prob.subsolution + prob.grid.sample(
        lambda x: 0.05 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
    )
    singular_linearize(monkeypatch)
    with pytest.raises(SingularJacobian):
        newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_singular_jacobian_cli_exit2(monkeypatch, tmp_path):
    singular_linearize(monkeypatch)
    cfg = bundled_config_path("ma_obstacle")
    assert main(["solve", str(cfg), "--grid-m", "9", "--audit", "off",
                 "--out", str(tmp_path), "--quiet"]) == 2
    failure = json.loads((tmp_path / "report.json").read_text())["solver_failure"]
    assert failure["error"] == "SingularJacobian"
    assert failure["epsilon"] == 1e-2


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


def continuation_and_warm_chain(name, m):
    """continuation_solve on a bundled problem, and the same schedule solved
    by a hand-written chain of warm-started newton_solve calls."""
    rs = build_runsetup(parse_config(bundled_config_text(name)).override(grid_m=m))
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    u = default_initializer(rs.problem)
    chain = []
    for eps in rs.config.schedule.values():
        u, rep = newton_solve(u, rs.problem, eps, rs.config.newton)
        chain.append((u, rep))
    return result, chain


def test_continuation_predictor_matches_warm_chain():
    # the predictor changes where each Newton solve starts, not where it ends
    result, chain = continuation_and_warm_chain("ma_obstacle", 33)
    for u, (u_warm, _) in zip(result.solutions, chain):
        assert np.abs(u - u_warm).max() <= 1e-9 * np.abs(u_warm).max()
    assert [r.start for r in result.reports] == ["initial"] + ["predictor"] * 4
    assert (sum(r.iterations for r in result.reports)
            < sum(rep.iterations for _, rep in chain))
    assert all(r.final_state is None for r in result.reports)


def test_continuation_evaluates_no_state_twice(monkeypatch):
    # a prediction's residual, evaluated to choose the start, is the Newton
    # solve's start residual: no (iterate, epsilon) is evaluated twice
    import hessobs.operator as operator

    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=33))
    seen = []
    evaluate = operator.evaluate_state

    def recording(u, prob, epsilon):
        seen.append((u.tobytes(), epsilon))
        return evaluate(u, prob, epsilon)

    monkeypatch.setattr(operator, "evaluate_state", recording)
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert [r.start for r in result.reports] == ["initial"] + ["predictor"] * 4
    assert len(set(seen)) == len(seen)


def test_continuation_needs_no_eigenvalues(monkeypatch):
    # sigma_j, f and F^{ij} come from Newton tensors: the solve itself never
    # diagonalises, on a flat and on a conformal metric
    import hessobs.operator as operator

    def refuse(*args, **kwargs):
        raise AssertionError("eigen decomposition in the Newton path")

    monkeypatch.setattr(operator, "eigen_wrt_metric_field", refuse)
    base = parse_config(bundled_config_text("ma_obstacle")).override(grid_m=17, eps_min=1e-4)
    conformal = parse_config(base.to_text().replace("kind = flat",
                                                    'kind = conformal\n  phi = "0.05*x1"'))
    for cfg in (base, conformal):
        rs = build_runsetup(cfg)
        assert rs.problem.metric.is_flat == (cfg is base)
        result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        assert all(r.converged for r in result.reports)


def test_continuation_factors_once_per_newton_step(monkeypatch):
    # the tangent of each epsilon comes out of its Newton solves' factorizations
    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=33))
    calls = []
    spsolve = spla.spsolve

    def counting(*args, **kwargs):
        calls.append(1)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", counting)
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert [r.start for r in result.reports] == ["initial"] + ["predictor"] * 4
    assert len(calls) == sum(r.iterations for r in result.reports)
    assert all(r.tangent is None for r in result.reports)


def _cubic_path(s):
    grid = np.linspace(-1.0, 1.0, 7)
    a, b, c, d = (np.sin((k + 1) * grid) for k in range(4))
    return a + b * s + c * s**2 + d * s**3, b + 2.0 * c * s + 3.0 * d * s**2


def test_hermite_predictor_reproduces_a_cubic_path():
    s_prev, s, s_next = 1.0, 0.1 ** (1 / 3), 0.01 ** (1 / 3)
    previous = (s_prev, *_cubic_path(s_prev))
    point = (s, *_cubic_path(s))
    exact, _ = _cubic_path(s_next)
    assert np.abs(_predict(s_next, point, previous) - exact).max() <= 1e-13


def test_predictor_without_previous_point_is_the_euler_step():
    # u + du/deps * (deps/ds) * (s_next - s) in s = eps^(1/3)
    grid = ChartGrid.box((-1, -1), (1, 1), 7)
    eps, eps_next = 1e-2, 1e-3
    s, s_next = eps ** (1 / 3), eps_next ** (1 / 3)
    u = grid.sample(lambda x: np.cos(x[..., 0]) + x[..., 1] ** 2)
    du_deps = np.sin(np.arange(grid.n_interior) + 1.0)
    euler = u.copy()
    euler[grid.interior] += (3.0 * eps / s * (s_next - s)) * du_deps.reshape(grid.interior_shape)
    pred = _predict(s_next, _path_point(u, du_deps, eps, grid))
    assert np.abs(pred - euler).max() <= 1e-14 * np.abs(euler).max()


def test_continuation_inactive_obstacle_warm_starts():
    # h = u* + 1 is never reached: the penalty and with it the tangent vanish
    result, chain = continuation_and_warm_chain("ma_manufactured", 17)
    assert [r.start for r in result.reports] == ["initial"] + ["warm_start"] * 4
    assert ([r.iterations for r in result.reports]
            == [rep.iterations for _, rep in chain])


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
