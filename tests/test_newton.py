"""Newton solver, continuation and initializer tests."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hessobs.cli import main
from hessobs.config import build_runsetup, parse_config
from hessobs.errors import NotAdmissible, SingularJacobian
from hessobs.geometry import ChartGrid, flat_metric
from hessobs.newton import (
    COARSE_N,
    FORCING_MAX,
    FORCING_SAFEGUARD,
    GMRES_RESTART,
    TANGENT_RTOL,
    NewtonConfig,
    PenaltySchedule,
    _band_lu,
    _forcing,
    _gmres_cycle,
    _hierarchy,
    _injected_problem,
    _linear_solve,
    _nested_grid,
    _path_point,
    _predict,
    _prolong_cubic,
    _v_cycle,
    continuation_solve,
    default_initializer,
    newton_solve,
)
from hessobs.problems import bundled_config_path, bundled_config_text
from hessobs.operator import (
    Problem,
    evaluate_state,
    linearize,
    residual,
)
from hessobs.symfunc import SymmetricFunctionSpec
from oracles import coefficients_from_expressions, metric_from_callable, solve_3d_config_text


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
        return dataclasses.replace(res, sig=-np.ones_like(res.sig)) if len(calls) == 2 else res

    monkeypatch.setattr(newton, "residual", first_trial_outside)
    _, rep = newton_solve(u0, rs.problem, 1e-2, rs.config.newton)
    assert rep.rejected_margin == 1
    assert rep.rejected_armijo >= 1
    assert len(calls) - 1 == rep.iterations + rep.rejected_margin + rep.rejected_armijo


# -------------------------------------------------- linear solve

# grid shape -> the shapes of its multigrid levels, finest first
LEVEL_SHAPES = {
    (1, 1): [(1, 1)],
    (2, 2): [(2, 2)],
    (95, 95): [(95, 95), (47, 47), (23, 23)],
    (1, 1, 1): [(1, 1, 1)],
    (13, 13, 13): [(13, 13, 13), (6, 6, 6)],
    (7, 12, 5): [(7, 12, 5)],  # 420 unknowns: one direct solve
}


@pytest.mark.parametrize("shape", list(LEVEL_SHAPES), ids=str)
def test_hierarchy_is_cached_and_read_only(shape):
    shapes = LEVEL_SHAPES[shape]
    levels = _hierarchy(shape)
    assert _hierarchy(shape) is levels
    assert [shape] + [coarse for coarse, _, _ in levels] == shapes
    assert np.prod(shapes[-1]) <= COARSE_N[len(shape)]
    fine = shape
    for coarse, P, R in levels:
        assert P.shape == (np.prod(fine), np.prod(coarse))
        assert abs(R - P.T / 2 ** len(shape)).max() == 0.0
        for M in (P, R):
            assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))
        # coarse point j sits at fine point 2j + 1 of every axis
        first = np.ravel_multi_index((1,) * len(shape), fine)
        assert P[first, 0] == 1.0
        fine = coarse


def _conformal_kappa_2d(m=(23, 19)):
    grid = ChartGrid.box((-1, -1), (1, 1), m)
    metric = metric_from_callable(grid, lambda x: np.exp(0.4 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1", "kappa_zg", 0.5)
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 2),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.2 * np.sin(x[..., 0]) + 3.0)
    return prob, u


def _flat_3d(m=11):
    grid = ChartGrid.box((-1, -1, -1), (1, 1, 1), m)
    coeff = coefficients_from_expressions(3, "1 + 0.1*p1 + 0.05*z")
    prob = Problem(grid=grid, metric=flat_metric(grid), fspec=SymmetricFunctionSpec(3, 2),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: (x**2).sum(axis=-1) + 0.3 * x[..., 0] * x[..., 1] ** 2)
    return prob, u


# grids above COARSE_N[n] unknowns, so that the solve runs GMRES on a V-cycle
_MULTIGRID_CASES = pytest.mark.parametrize(
    "make", [lambda: _conformal_kappa_2d(41), lambda: _flat_3d(15)],
    ids=["2d-conformal-kappa_zg", "3d-flat"])


def _first_jacobian(prob, u):
    return linearize(evaluate_state(u, prob, 1e-2), prob)


@_MULTIGRID_CASES
def test_ordered_solve_matches_plain_spsolve(make):
    prob, u = make()
    J = _first_jacobian(prob, u)
    assert J.shape[0] > COARSE_N[prob.grid.n] and _hierarchy(prob.grid.interior_shape)
    assert abs(J - J.T).max() > 1e-6 * abs(J).max()  # not symmetric
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    ref = spla.spsolve(J.tocsc(), b)
    for rtol in (1e-3, 1e-10):
        x, _ = _linear_solve(J, _v_cycle(J, prob.grid.interior_shape), b, rtol)
        assert np.linalg.norm(J @ x - b) <= rtol * np.linalg.norm(b)
        assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


def _with_ceiling(make):
    """A multigrid case with u as its boundary data and a ceiling 0.05 above
    u, which the solution at eps = 1e-2 presses against."""
    prob, u = make()
    return dataclasses.replace(prob, phi=u, h=u + 0.05), u


@_MULTIGRID_CASES
def test_newton_tangent_solves_the_last_jacobian(make, monkeypatch):
    # newton_solve hands the continuation its last step's Jacobian J, the
    # penalty beta at the iterate before that step and its V-cycle; on a
    # two-epsilon schedule the continuation solves the first epsilon's
    # tangent J du/deps = -beta / eps with them, once, after convergence, to
    # TANGENT_RTOL, solves none for the last epsilon, whose tangent no
    # prediction reads, and lets go of both steps
    import hessobs.newton as newton

    prob, u = _with_ceiling(make)
    prob = dataclasses.replace(prob, subsolution=u)
    eps = 1e-2
    steps, tangents = [], []
    path_point = newton._path_point

    def recording(state, prob):
        J = linearize(state, prob)
        steps.append((J, state.beta))
        return J

    def recording_point(u, tangent, eps, grid):
        tangents.append(tangent)
        return path_point(u, tangent, eps, grid)

    monkeypatch.setattr(newton, "linearize", recording)
    _, rep = newton_solve(u, prob, eps)
    J, beta = steps[-1]
    assert len(steps) == rep.iterations >= 2 and beta.any()
    assert rep.last_step[0] is J and rep.last_step[1] is beta
    steps.clear()
    monkeypatch.setattr(newton, "_path_point", recording_point)
    reports = continuation_solve(prob, PenaltySchedule(eps, 0.1, 0.1 * eps)).reports
    assert [r.epsilon for r in reports] == [eps, 0.1 * eps]
    assert len(steps) == sum(r.iterations for r in reports) and reports[1].iterations >= 1
    assert all(r.last_step is None for r in reports)
    J, beta = steps[reports[0].iterations - 1]
    tangent, last = tangents
    assert last is None
    b = -beta / eps
    ref = spla.spsolve(J.tocsc(), b)
    assert np.linalg.norm(J @ tangent - b) <= TANGENT_RTOL * np.linalg.norm(b)
    assert np.linalg.norm(tangent - ref) <= TANGENT_RTOL * np.linalg.norm(ref)


def test_linear_solve_checks_its_true_residual():
    # a tolerance below roundoff cannot be met: the solve raises instead of
    # handing back a direction that misses it
    prob, u = _conformal_kappa_2d(41)
    J = _first_jacobian(prob, u)
    b = np.random.default_rng(7).standard_normal(J.shape[0])
    with pytest.raises(SingularJacobian, match="missed relative residual"):
        _linear_solve(J, _v_cycle(J, prob.grid.interior_shape), b, 1e-20)


def _counting(M):
    """M and a list whose length is the number of times M was applied."""
    calls = []

    def counted(b):
        calls.append(None)
        return M(b)

    return counted, calls


def test_gmres_restarts_until_the_true_residual_is_met(monkeypatch):
    # with restarts every 4 iterations, rtol 1e-10 takes several restart
    # cycles; each ends on the true residual and carries x into the next.
    # Flexible GMRES returns Z y from the Z = M(V) of its Arnoldi loop, so
    # no restart cycle ends with another V-cycle application: applications
    # equal iterations, with one restart cycle and with several
    import hessobs.newton as newton

    prob, u = _conformal_kappa_2d(41)
    J = _first_jacobian(prob, u)
    b = np.random.default_rng(8).standard_normal(J.shape[0])
    cycle, calls = _counting(_v_cycle(J, prob.grid.interior_shape))
    x_full, k_full = _linear_solve(J, cycle, b, 1e-10)
    assert 1 < k_full <= GMRES_RESTART and len(calls) == k_full
    monkeypatch.setattr(newton, "GMRES_RESTART", 4)
    calls.clear()
    x, k = _linear_solve(J, cycle, b, 1e-10)
    assert k > newton.GMRES_RESTART * 2 and len(calls) == k
    assert np.linalg.norm(J @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(x - x_full) <= 1e-9 * np.linalg.norm(x_full)


def test_gmres_cycle_tolerates_a_varying_preconditioner():
    # a preconditioner that is not one linear map (here the V-cycle and half
    # of it on alternate calls) still gives a correction whose true residual
    # is the rotated one: this is why Z = M(V) is kept.  A last application
    # M(V y) in place of Z y leaves half of the residual here, and
    # _linear_solve then raises SingularJacobian
    prob, u = _conformal_kappa_2d(41)
    J = _first_jacobian(prob, u)
    c = _v_cycle(J, prob.grid.interior_shape)
    r = np.random.default_rng(10).standard_normal(J.shape[0])
    rnorm = np.linalg.norm(r)
    calls = []

    def M(b):
        calls.append(None)
        return c(b) if len(calls) % 2 else 0.5 * c(b)

    dx, k = _gmres_cycle(J, M, r, rnorm, 1e-8 * rnorm)
    assert k < GMRES_RESTART
    assert np.linalg.norm(r - J @ dx) <= 1e-8 * rnorm
    calls.clear()
    x, k = _linear_solve(J, M, r, 1e-8)
    assert len(calls) == k
    assert np.linalg.norm(r - J @ x) <= 1e-8 * rnorm


def test_gmres_without_levels_solves_in_one_iteration():
    # at most COARSE_N[2] unknowns: the V-cycle is the exact solve
    prob, u = _conformal_kappa_2d()
    J = _first_jacobian(prob, u)
    assert J.shape[0] <= COARSE_N[2] and not _hierarchy(prob.grid.interior_shape)
    b = np.random.default_rng(9).standard_normal(J.shape[0])
    x, k = _linear_solve(J, _v_cycle(J, prob.grid.interior_shape), b, 1e-12)
    assert k == 1
    assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)


def _coarsest_level(J, shape):
    for _, P, R in _hierarchy(shape):
        J = R @ J @ P
    return J


@pytest.mark.parametrize("make,levels", [
    (lambda: _conformal_kappa_2d(97), 2),
    (lambda: _flat_3d(15), 1),
    (_conformal_kappa_2d, 0),
], ids=["2d-95x95", "3d-13^3", "2d-without-levels"])
def test_band_lu_matches_dense_solve(make, levels):
    # the banded LU of the V-cycle's coarsest Galerkin level, J itself on a
    # grid without levels, solves it to roundoff like the dense LU; the
    # column order within a CSR row does not change a bit of it
    prob, u = make()
    shape = prob.grid.interior_shape
    J = _first_jacobian(prob, u)
    assert len(_hierarchy(shape)) == levels
    A = _coarsest_level(J, shape)
    solve = _band_lu(A)
    b = np.random.default_rng(12).standard_normal((3, A.shape[0]))
    ref = np.linalg.solve(A.toarray(), b.T).T
    x = np.array([solve(bk) for bk in b])
    assert np.linalg.norm(x - ref, axis=1).max() <= 1e-13 * np.linalg.norm(ref, axis=1).min()
    assert np.linalg.norm(A @ x.T - b.T, axis=0).max() <= 1e-13 * np.linalg.norm(b, axis=1).min()
    reversed_rows = [np.arange(a, e)[::-1] for a, e in zip(A.indptr, A.indptr[1:])]
    order = np.concatenate(reversed_rows)
    R = sp.csr_matrix((A.data[order], A.indices[order], A.indptr), shape=A.shape)
    assert not R.has_sorted_indices
    assert all(np.array_equal(_band_lu(R)(bk), xk) for bk, xk in zip(b, x))
    if not levels:  # the V-cycle is the band solve
        assert all(np.array_equal(_v_cycle(J, shape)(bk), xk) for bk, xk in zip(b, x))


def test_zero_right_hand_side_applies_no_v_cycle():
    def refuse(b):
        raise AssertionError("V-cycle applied for a zero right-hand side")

    prob, u = _conformal_kappa_2d(41)
    J = _first_jacobian(prob, u)
    x, k = _linear_solve(J, refuse, np.zeros(J.shape[0]), 1e-3)
    assert k == 0 and x.shape == (J.shape[0],) and not x.any()


def test_at_most_one_v_cycle_alive_during_continuation(monkeypatch):
    # each epsilon's V-cycle (its coarse operators and coarse LU) lives
    # through that epsilon's Newton steps and tangent only: newton_solve's
    # report hands it to the continuation with the last step, which
    # releases it once the tangent is solved (or skipped, for the last
    # epsilon), before the next Newton solve starts; neither a SolveReport
    # nor the ContinuationResult keeps it
    import weakref

    import hessobs.newton as newton

    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=33))
    assert _hierarchy(rs.problem.grid.interior_shape)
    cycles, alive = [], []
    build, solve = newton._v_cycle, newton.newton_solve

    def live():
        return [ref for ref in cycles if ref() is not None]

    def recording_cycle(J, shape):
        cycle = build(J, shape)
        cycles.append(weakref.ref(cycle))
        alive.append(len(live()))
        return cycle

    def checking_residual(u, prob, epsilon):
        alive.append(len(live()))
        return residual(u, prob, epsilon)

    def checking_solve(*args, **kwargs):
        assert not live()
        u, rep = solve(*args, **kwargs)
        assert [ref() for ref in live()] == [rep.last_step[2]]
        return u, rep

    monkeypatch.setattr(newton, "_v_cycle", recording_cycle)
    monkeypatch.setattr(newton, "residual", checking_residual)
    monkeypatch.setattr(newton, "newton_solve", checking_solve)
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert len(cycles) == len(result.reports) == 5
    assert max(alive) == 1 and len(alive) > sum(r.iterations for r in result.reports)
    assert not live() and all(r.last_step is None for r in result.reports)


def test_bundled_ma_obstacle_iteration_counts(tmp_path):
    # per-epsilon Newton and GMRES counts of the Euler-predicted
    # continuation, pinned; the last epsilon solves no tangent (it took 10
    # GMRES iterations with it)
    cfg = bundled_config_path("ma_obstacle")
    assert main(["solve", str(cfg), "--grid-m", "33", "--audit", "off",
                 "--out", str(tmp_path), "--quiet"]) == 0
    solves = json.loads((tmp_path / "report.json").read_text())["solves"]
    assert [s["iterations"] for s in solves] == [6, 4, 2, 2, 3]
    assert [s["krylov_iterations"] for s in solves] == [29, 12, 9, 9, 8]


# Newton steps and start per epsilon of the four bundled configs at their
# default grids; the tangent's tolerance TANGENT_RTOL left all of them as
# they were with the tangent solved to the last Newton step's tolerance.
# The nested start cut the first epsilon's fine steps from 6 (5 on
# laplacian_obstacle) to 2 and left the later ones; ma_manufactured's
# interpolant is no closer than its start, which it keeps
BUNDLED_NEWTON_STEPS = {
    "ma_obstacle": ([2, 4, 2, 2, 2], ["nested"] + ["predictor"] * 4),
    "laplacian_obstacle": ([2], ["nested"]),
    "laplacian_obstacle_strong": ([2, 4, 3, 3, 3], ["nested"] + ["predictor"] * 4),
    "ma_manufactured": ([2, 0, 0, 0, 0], ["initial"] + ["warm_start"] * 4),
}


@pytest.mark.parametrize("name", list(BUNDLED_NEWTON_STEPS))
def test_bundled_newton_steps_and_starts(name):
    rs = build_runsetup(parse_config(bundled_config_text(name)))
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert ([r.iterations for r in result.reports],
            [r.start for r in result.reports]) == BUNDLED_NEWTON_STEPS[name]


def test_forcing_term_stays_between_its_safeguard_and_cap():
    # a step solves to min(FORCING_MAX, max(|F|_inf / sqrt(N), 0.5 tol / |F|_2)):
    # never looser than FORCING_MAX, and never tighter than the relative
    # residual that leaves the linearised residual at 0.5 tol in the 2-norm,
    # nor than |F|_inf / sqrt(N)
    rng = np.random.default_rng(0)
    tol = 1e-8
    for n in (9, 361, 2197):
        for scale in 10.0 ** np.arange(-11.0, 4.0):
            F = scale * rng.standard_normal(n)
            rnorm, r2 = float(np.abs(F).max()), float(np.linalg.norm(F))
            rtol = _forcing(rnorm, r2, n, tol)
            assert rtol <= FORCING_MAX
            assert rtol >= min(FORCING_MAX, FORCING_SAFEGUARD * tol / r2)
            assert rtol >= min(FORCING_MAX, rnorm / np.sqrt(n))  # the rule it safeguards
    assert FORCING_SAFEGUARD == 0.5
    assert _forcing(np.inf, np.inf, 9, tol) == FORCING_MAX  # an overflowing residual


# Newton steps per epsilon, which the forcing term's safeguard left as they
# were, and the GMRES iterations of the sweep before the safeguard (90 and 96)
SAFEGUARD_CASES = {
    "ma_obstacle_m33": (lambda: bundled_config_text("ma_obstacle"), 33, [6, 4, 2, 2, 3], 90),
    "solve_3d_m15": (solve_3d_config_text, 15, [6, 4, 3, 2, 2], 96),
}


@pytest.mark.parametrize("name", list(SAFEGUARD_CASES))
def test_forcing_safeguard_keeps_newton_steps_and_tolerance(name):
    # the safeguard stops each step's GMRES once the linearised residual is
    # below tol / 2, which leaves every final residual within tol and cuts
    # the sweep's GMRES iterations by more than 15 %
    text, m, steps, krylov_before = SAFEGUARD_CASES[name]
    rs = build_runsetup(parse_config(text()).override(grid_m=m))
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert [r.iterations for r in result.reports] == steps
    assert all(r.residual_history[-1] <= rs.config.newton.tol_residual for r in result.reports)
    assert sum(r.krylov_iterations for r in result.reports) <= 0.85 * krylov_before


def test_krylov_iterations_count_every_gmres_iteration(tmp_path, monkeypatch):
    # each solves row counts the GMRES iterations of its Newton directions
    # and, for every epsilon but the last, of the tangent the continuation
    # solves after them: all the iterations from its Newton solve to the next
    import hessobs.newton as newton

    iterations, starts = [], []
    restart_cycle, solve = newton._gmres_cycle, newton.newton_solve

    def counting_cycle(*args):
        dx, k = restart_cycle(*args)
        iterations.append(k)
        return dx, k

    def counting_solve(*args, **kwargs):
        starts.append(len(iterations))
        return solve(*args, **kwargs)

    monkeypatch.setattr(newton, "_gmres_cycle", counting_cycle)
    monkeypatch.setattr(newton, "newton_solve", counting_solve)
    cfg = bundled_config_path("ma_obstacle")
    assert main(["solve", str(cfg), "--grid-m", "33", "--audit", "off",
                 "--out", str(tmp_path), "--quiet"]) == 0
    solves = json.loads((tmp_path / "report.json").read_text())["solves"]
    bounds = starts + [len(iterations)]
    assert [s["krylov_iterations"] for s in solves] == [
        sum(iterations[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert all(s["krylov_iterations"] > s["iterations"] for s in solves)


def singular_linearize(monkeypatch, from_call=1):
    """Make every Newton Jacobian from the `from_call`-th on exactly
    singular: its first row is empty."""
    import hessobs.newton as newton

    calls = []

    def emptied(state, prob):
        J = linearize(state, prob)
        calls.append(None)
        if len(calls) < from_call:
            return J
        keep = np.ones(J.shape[0])
        keep[0] = 0.0
        J = sp.diags(keep) @ J
        J.eliminate_zeros()
        return J.tocsr()

    monkeypatch.setattr(newton, "linearize", emptied)


# m = 9 is one direct solve; m = 33 has a multigrid level, whose Jacobi
# smoother meets the empty row's zero diagonal
SINGULAR_GRIDS = (9, 33)


def test_singular_jacobian_raises(monkeypatch):
    singular_linearize(monkeypatch)
    for m in SINGULAR_GRIDS:
        prob, _ = ma_manufactured(m=m)
        assert bool(_hierarchy(prob.grid.interior_shape)) == (m > 9)
        u0 = prob.subsolution + prob.grid.sample(
            lambda x: 0.05 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
        )
        with pytest.raises(SingularJacobian):
            newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))


def test_exactly_singular_coarsest_level_raises():
    # on the m = 9 grid of SINGULAR_GRIDS J is the one level, and its empty
    # first row leaves an exactly zero pivot in the banded LU
    prob, _ = ma_manufactured(m=9)
    J = linearize(evaluate_state(prob.subsolution, prob, 1e-2), prob)
    J = (sp.diags(np.r_[0.0, np.ones(J.shape[0] - 1)]) @ J).tocsr()
    J.eliminate_zeros()
    assert not _hierarchy(prob.grid.interior_shape) and J.indptr[1] == 0
    with pytest.raises(SingularJacobian, match="exactly singular"):
        _v_cycle(J, prob.grid.interior_shape)


def test_singular_jacobian_cli_exit2(monkeypatch, tmp_path):
    singular_linearize(monkeypatch)
    cfg = bundled_config_path("ma_obstacle")
    for m in SINGULAR_GRIDS:
        out = tmp_path / str(m)
        assert main(["solve", str(cfg), "--grid-m", str(m), "--audit", "off",
                     "--out", str(out), "--quiet"]) == 2
        failure = json.loads((out / "report.json").read_text())["solver_failure"]
        assert failure["error"] == "SingularJacobian"
        assert failure["epsilon"] == 1e-2


def test_later_singular_jacobian_raises(monkeypatch):
    # the V-cycle is built from the first, regular Jacobian, so its
    # diagonal check never sees the second one's empty row; GMRES's
    # true-residual check does, since J M cannot reach the row's entry of b
    for m in SINGULAR_GRIDS:
        singular_linearize(monkeypatch, from_call=2)
        prob, _ = ma_manufactured(m=m)
        u0 = prob.subsolution + prob.grid.sample(
            lambda x: 0.05 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
        )
        with pytest.raises(SingularJacobian, match="missed relative residual"):
            newton_solve(u0, prob, 1e-2, NewtonConfig(tol_residual=1e-10))


def test_later_singular_jacobian_cli_exit2(monkeypatch, tmp_path):
    cfg = bundled_config_path("ma_obstacle")
    for m in SINGULAR_GRIDS:
        singular_linearize(monkeypatch, from_call=2)
        out = tmp_path / str(m)
        assert main(["solve", str(cfg), "--grid-m", str(m), "--audit", "off",
                     "--out", str(out), "--quiet"]) == 2
        failure = json.loads((out / "report.json").read_text())["solver_failure"]
        assert failure["error"] == "SingularJacobian"
        assert "missed relative residual" in failure["message"]
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
    # a prediction's or interpolant's residual, evaluated to choose the
    # start, is the Newton solve's start residual: no (iterate, epsilon) is
    # evaluated twice, on the fine grid or a coarse one
    import hessobs.operator as operator

    seen = []
    evaluate = operator.evaluate_state

    def recording(u, prob, epsilon):
        seen.append((u.tobytes(), epsilon))
        return evaluate(u, prob, epsilon)

    monkeypatch.setattr(operator, "evaluate_state", recording)
    for m, first in ((33, "initial"), (65, "nested")):
        rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=m))
        seen.clear()
        result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        assert [r.start for r in result.reports] == [first] + ["predictor"] * 4
        assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("m", [(9, 11), (7, 9, 13)])
def test_cubic_prolongation_is_exact_on_cubics(m):
    # cubic in each variable, so that the axis-by-axis interpolation is
    # exact everywhere, the midpoints next to the boundary included
    fine = ChartGrid.box((-1.0,) * len(m), (2.0,) * len(m), m)
    coarse = fine.every_other()
    assert coarse.m == tuple((k + 1) // 2 for k in m)

    def cubic(x):
        factors = [1.0 + 0.5 * x[..., i] - (i + 1) * x[..., i] ** 2 + 0.25 * x[..., i] ** 3
                   for i in range(len(m))]
        return np.prod(factors, axis=0) + (x**3).sum(axis=-1)

    u = _prolong_cubic(coarse.sample(cubic))
    assert u.shape == fine.shape
    assert np.abs(u - fine.sample(cubic)).max() <= 1e-12 * np.abs(fine.sample(cubic)).max()


@pytest.mark.parametrize("metric", ["flat", 'conformal\n  phi = "0.05*x1"'])
def test_injected_problem_equals_fine_one_at_shared_points(metric):
    text = bundled_config_text("ma_obstacle").replace("kind = flat", f"kind = {metric}")
    prob = build_runsetup(parse_config(text).override(grid_m=65)).problem
    coarse = _nested_grid(prob.grid)
    assert coarse.m == (33, 33)
    cprob = _injected_problem(prob, coarse)
    assert cprob.grid is coarse and cprob.metric.is_flat == (metric == "flat")
    for a, b in ((cprob.h, prob.h), (cprob.phi, prob.phi),
                 (cprob.subsolution, prob.subsolution)):
        assert np.array_equal(a, b[::2, ::2])
    # the fine interior point at each coarse interior point, from coordinates
    h = prob.grid.spacing
    fine_index = np.rint((cprob.x_interior - np.array(prob.grid.lo)) / h).astype(int) - 1
    row = np.ravel_multi_index(tuple(fine_index.T), prob.grid.interior_shape)
    assert np.allclose(cprob.x_interior, prob.x_interior[row], rtol=0.0, atol=1e-14)
    assert np.array_equal(cprob.h_interior, prob.h_interior[row])
    for name in ("g", "linv", "christoffel"):
        assert np.array_equal(getattr(cprob.metric, name), getattr(prob.metric, name)[row])


# configs whose first epsilon nests, and the coarse grids it runs on
NESTED_CASES = {
    "ma_obstacle_m65": (lambda: bundled_config_text("ma_obstacle"), 65, [[33, 33]]),
    "conformal_m65": (lambda: bundled_config_text("ma_obstacle").replace(
        "kind = flat", 'kind = conformal\n  phi = "0.05*x1"'), 65, [[33, 33]]),
    "solve_3d_m33": (solve_3d_config_text, 33, [[17, 17, 17]]),
}


def _sweep_without_nesting(monkeypatch, rs):
    import hessobs.newton as newton

    with monkeypatch.context() as patch:
        patch.setattr(newton, "_nested_grid", lambda grid: None)
        return continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)


@pytest.mark.parametrize("name", list(NESTED_CASES))
def test_nested_start_matches_direct_path(monkeypatch, name):
    # the first epsilon, solved on the coarse grids first, ends where the
    # solve from the subsolution ends, in fewer fine Newton steps; the later
    # epsilons take the steps they took, and the result keeps the subsolution
    text, m, levels = NESTED_CASES[name]
    rs = build_runsetup(parse_config(text()).override(grid_m=m))
    nested = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    direct = _sweep_without_nesting(monkeypatch, rs)
    assert [r.start for r in nested.reports] == ["nested"] + ["predictor"] * 4
    assert direct.reports[0].start == "initial" and direct.reports[0].nested_levels == []
    first = nested.reports[0]
    assert [level[0] for level in first.nested_levels] == levels
    assert first.iterations < direct.reports[0].iterations
    assert ([r.iterations for r in nested.reports[1:]]
            == [r.iterations for r in direct.reports[1:]])
    assert all(r.residual_history[-1] <= rs.config.newton.tol_residual for r in nested.reports)
    assert nested.start is direct.start is rs.problem.subsolution
    for u, v in zip(nested.solutions, direct.solutions):
        assert np.abs(u - v).max() <= 1e-10 * np.abs(v).max()


def test_nested_start_falls_back_to_initial(monkeypatch):
    # an even m does not nest; a coarse solve that raises and an interpolant
    # no closer than the start (ma_manufactured) leave the start as it was,
    # and the sweep bit-identical to the one without nesting
    import hessobs.newton as newton

    solve = newton.newton_solve
    coarse_calls = []

    def failing_coarse(u0, prob, *args, **kwargs):
        if prob.grid.m != (65, 65):
            coarse_calls.append(prob.grid.m)
            raise SingularJacobian("coarse")
        return solve(u0, prob, *args, **kwargs)

    ma = bundled_config_text("ma_obstacle")
    cases = [(ma, 64, None), (ma, 65, failing_coarse),
             (bundled_config_text("ma_manufactured"), 65, None)]
    for text, m, patched_solve in cases:
        rs = build_runsetup(parse_config(text).override(grid_m=m))
        assert (_nested_grid(rs.problem.grid) is None) == (m % 2 == 0)
        with monkeypatch.context() as patch:
            if patched_solve is not None:
                patch.setattr(newton, "newton_solve", patched_solve)
            result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        direct = _sweep_without_nesting(monkeypatch, rs)
        assert result.reports[0].start == "initial"
        assert result.reports[0].nested_levels == []
        assert [r.iterations for r in result.reports] == [r.iterations for r in direct.reports]
        for u, v in zip(result.solutions, direct.solutions):
            assert np.array_equal(u, v)
    assert coarse_calls == [(33, 33)]


def test_nested_start_keeps_fine_solver_errors(monkeypatch):
    # a coarse solve's error only drops the nested start; the fine grid's
    # own error still ends the sweep at its epsilon
    import hessobs.newton as newton

    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=65))
    solve = newton.newton_solve

    def failing_fine(u0, prob, *args, **kwargs):
        if prob.grid.m == (65, 65):
            raise SingularJacobian("fine")
        return solve(u0, prob, *args, **kwargs)

    monkeypatch.setattr(newton, "newton_solve", failing_fine)
    with pytest.raises(SingularJacobian, match="fine") as info:
        continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert info.value.epsilon == rs.config.schedule.eps0 and info.value.reports == []


def test_coarse_solves_solve_no_tangent(monkeypatch):
    # newton_solve solves Newton directions only; the continuation solves
    # one tangent per fine epsilon with a Newton step but the last, and
    # neither the last epsilon nor the coarse solve of the nested start,
    # whose tangents nothing reads, solves one
    import hessobs.newton as newton

    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=65))
    calls, in_newton = [], []
    linear_solve, solve = newton._linear_solve, newton.newton_solve

    def recording_linear_solve(J, cycle, b, rtol):
        calls.append((bool(in_newton), b.size, rtol))
        return linear_solve(J, cycle, b, rtol)

    def marking_solve(*args, **kwargs):
        in_newton.append(None)
        try:
            return solve(*args, **kwargs)
        finally:
            in_newton.pop()

    monkeypatch.setattr(newton, "_linear_solve", recording_linear_solve)
    monkeypatch.setattr(newton, "newton_solve", marking_solve)
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    assert result.reports[0].nested_levels == [[[33, 33], 6, 25]]
    steps = sum(r.iterations for r in result.reports)
    tangents = [call for call in calls if call[2] == TANGENT_RTOL]
    assert tangents == [(False, rs.problem.grid.n_interior, TANGENT_RTOL)] * 4
    assert sum(r.iterations > 0 for r in result.reports) == 5
    assert [call[0] for call in calls].count(True) == steps + 6


def test_nested_levels_only_in_a_nested_start_row(tmp_path):
    # the first epsilon's solves row lists its coarse levels, coarsest first;
    # its iterations and Krylov count stay the fine grid's, and the rows of
    # the other starts keep their keys
    out = {}
    for m in (33, 97):
        assert main(["solve", str(bundled_config_path("ma_obstacle")), "--grid-m", str(m),
                     "--audit", "off", "--out", str(tmp_path / str(m)), "--quiet"]) == 0
        out[m] = json.loads((tmp_path / str(m) / "report.json").read_text())["solves"]
    keys = set(out[33][0])
    assert "nested_levels" not in keys
    assert all(set(row) == keys for row in out[33] + out[97][1:])
    first = out[97][0]
    assert set(first) == keys | {"nested_levels"} and first["start"] == "nested"
    assert [level[0] for level in first["nested_levels"]] == [[25, 25], [49, 49]]
    assert all(steps >= 1 and krylov > steps for _, steps, krylov in first["nested_levels"])
    assert first["nested_levels"][0][1] >= max(row["iterations"] for row in out[97])
    lines = (tmp_path / "97" / "residual_history.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    assert sum(float(r[0]) == first["epsilon"] for r in rows) == first["iterations"] + 1


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


def test_continuation_factors_once_per_epsilon(monkeypatch):
    # one V-cycle set-up per epsilon with a Newton step, from its first
    # Jacobian; the later steps and the tangent reuse it.  ma_manufactured's
    # obstacle is never reached, so its later epsilons take no step and its
    # tangent right-hand sides are zero: they set nothing up
    import hessobs.newton as newton

    build, solve = newton._v_cycle, newton.newton_solve
    for name, m, later_start in (("ma_obstacle", 33, "predictor"),
                                 ("ma_manufactured", 17, "warm_start")):
        rs = build_runsetup(parse_config(bundled_config_text(name)).override(grid_m=m))
        events = []

        def recording_solve(*args, **kwargs):
            events.append(("solve", None))
            return solve(*args, **kwargs)

        def recording_linearize(state, prob):
            J = linearize(state, prob)
            events.append(("jacobian", J))
            return J

        def recording_build(J, shape):
            events.append(("build", J))
            return build(J, shape)

        monkeypatch.setattr(newton, "newton_solve", recording_solve)
        monkeypatch.setattr(newton, "linearize", recording_linearize)
        monkeypatch.setattr(newton, "_v_cycle", recording_build)
        result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        assert [r.start for r in result.reports] == ["initial"] + [later_start] * 4
        per_epsilon = []
        for kind, J in events:
            if kind == "solve":
                per_epsilon.append([])
            else:
                per_epsilon[-1].append((kind, J))
        assert events[0][0] == "solve" and len(per_epsilon) == len(result.reports)
        for rep, seen in zip(result.reports, per_epsilon):
            jacobians = [J for kind, J in seen if kind == "jacobian"]
            builds = [J for kind, J in seen if kind == "build"]
            assert len(jacobians) == rep.iterations
            assert len(builds) == min(rep.iterations, 1)
            if builds:
                assert seen[1][0] == "build" and seen[1][1] is jacobians[0]
        assert sum(r.iterations > 0 for r in result.reports) == (5 if name == "ma_obstacle" else 1)
        assert all(r.last_step is None for r in result.reports)


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


def test_inadmissible_subsolution_fails_the_first_solve():
    # the initializer hands a supplied subsolution over as given; the first
    # epsilon's Newton solve rejects it, naming the points, before any
    # epsilon finishes
    prob, _ = ma_manufactured(m=9)
    bad = prob.grid.sample(lambda x: -(x[..., 0] ** 2 + x[..., 1] ** 2))
    prob.subsolution = bad
    assert default_initializer(prob) is bad
    schedule = PenaltySchedule(eps0=1e-2, eps_min=1e-4)
    with pytest.raises(NotAdmissible, match="initial iterate not admissible") as ei:
        continuation_solve(prob, schedule)
    assert ei.value.points and ei.value.epsilon == schedule.eps0
    assert ei.value.solutions == [] and ei.value.reports == []


def builtin_start_config(tmp_path, name):
    text = bundled_config_text(name)
    sub = next(line for line in text.splitlines() if line.strip().startswith("u = "))
    cfg = tmp_path / f"{name}_builtin.cfg"
    cfg.write_text(text.replace(sub, "  u = builtin"))
    return cfg


def test_builtin_start_sweep_converges(tmp_path):
    # the paraboloid and its harmonic lift start the trace-operator sweep
    cfg = builtin_start_config(tmp_path, "laplacian_obstacle_strong")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--grid-m", "33", "--audit", "off",
                 "--out", str(out), "--quiet"]) == 0
    solves = json.loads((out / "report.json").read_text())["solves"]
    assert all(s["converged"] for s in solves)
    assert [s["iterations"] for s in solves] == [4, 4, 3, 3, 3]


def test_builtin_start_fails_on_ma_obstacle(tmp_path, monkeypatch):
    # no blended paraboloid is admissible for the det-root problem; the
    # blend does not depend on the paraboloid's size, so the first one that
    # qualifies is the only lift solved
    import hessobs.newton as newton

    lifts = []
    lift = newton.laplace_beltrami_solve
    monkeypatch.setattr(newton, "laplace_beltrami_solve",
                        lambda *args: lifts.append(args) or lift(*args))
    cfg = builtin_start_config(tmp_path, "ma_obstacle")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--grid-m", "33", "--audit", "off",
                 "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "NoAdmissibleStart"
    assert len(lifts) == 1


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
