"""Penalty, residual, linearization and linear-operator tests."""

import numpy as np
import pytest

from hessobs.errors import BadEpsilon, NotAdmissible, PsiNotPositive
from hessobs.geometry import ChartGrid, flat_metric, metric_from_callable
from hessobs.operator import (
    Problem,
    coefficients_from_expressions,
    evaluate_state,
    laplace_beltrami_solve,
    linearize,
    operator_L,
    penalty,
    residual,
)
from hessobs.symfunc import SymmetricFunctionSpec


def make_problem(m=17, fspec=None, psi="2", a_mode="zero", a_param=None,
                 h_fn=None, phi_fn=None, lo=(-1, -1), hi=(1, 1)):
    grid = ChartGrid.box(lo, hi, m)
    metric = flat_metric(grid)
    fspec = fspec or SymmetricFunctionSpec(2, 1)
    coeff = coefficients_from_expressions(grid.n, psi, a_mode, a_param)
    pts = grid.points()
    h = h_fn(pts) if h_fn else np.full(grid.shape, 1e6)
    phi = phi_fn(pts) if phi_fn else np.zeros(grid.shape)
    return Problem(grid=grid, metric=metric, fspec=fspec, coeff=coeff, h=h, phi=phi)


# -------------------------------------------------- penalty

def test_penalty_negative_branch():
    assert penalty(0.5, -1.0) == (0.0, 0.0, 0.0)


def test_penalty_value_cubic_branch():
    v, d1, d2 = penalty(1e-3, 0.1)
    assert v == pytest.approx(1.0)
    assert d1 == pytest.approx(30.0)
    assert d2 == pytest.approx(600.0)


def test_penalty_bad_epsilon():
    for eps in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(BadEpsilon):
            penalty(eps, 0.1)


def test_penalty_properties_grid():
    zs = np.linspace(-1.0, 1.0, 201)
    prev = None
    for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        v, d1, d2 = penalty(eps, zs)
        assert np.all(v >= 0) and np.all(d1 >= 0) and np.all(d2 >= 0)
        assert np.all(v[zs <= 0.0] == 0.0)
        if prev is not None:
            grow = zs > 0.0
            assert np.all(v[grow] > prev[grow])  # strictly increasing in 1/eps
        prev = v


def test_penalty_c2_at_zero():
    v, d1, d2 = penalty(1e-2, np.array([-1e-9, 0.0, 1e-9]))
    assert np.abs(v).max() < 1e-20
    assert np.abs(d1).max() < 1e-12
    assert np.abs(d2).max() < 1e-6


# -------------------------------------------------- residual

def test_residual_trivial_sigma1():
    # u = |x|^2/2, psi = n, huge obstacle: residual vanishes identically
    prob = make_problem(m=13, psi="2")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    r = residual(u, prob, 1e-2)
    assert r.admissible
    assert np.abs(r.values).max() < 1e-12


def test_residual_flags_inadmissible():
    prob = make_problem(m=9, fspec=SymmetricFunctionSpec(2, 2), psi="1")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2))
    r = residual(u, prob, 1e-2)
    assert not r.admissible
    assert np.isnan(r.values[~r.ok]).all()
    assert len(r.flagged_points(prob.grid)) == (~r.ok).sum()


def test_residual_subsolution_sign():
    # strict subsolution below the obstacle: residual >= 0 pointwise
    prob = make_problem(m=15, psi="1", h_fn=lambda x: np.full(x.shape[:-1], 10.0))
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)  # laplacian 4 >= 1
    r = residual(u, prob, 1e-2)
    assert r.values.min() >= 3.0 - 1e-12


def test_residual_psi_floor():
    prob = make_problem(m=9, psi="x1")  # psi <= 0 on half the square
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    with pytest.raises(PsiNotPositive):
        residual(u, prob, 1e-2)


def test_residual_manufactured_order():
    # n=2 Monge-Ampere: u* = exp(r^2/2), psi = sqrt(det D^2 u*)
    errs = []
    for m in (17, 33, 65):
        prob = make_problem(
            m=m,
            fspec=SymmetricFunctionSpec(2, 2),
            psi="exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)",
            h_fn=lambda x: np.exp((x[..., 0] ** 2 + x[..., 1] ** 2) / 2) + 1.0,
        )
        u = prob.grid.sample(lambda x: np.exp((x[..., 0] ** 2 + x[..., 1] ** 2) / 2))
        r = residual(u, prob, 1e-2)
        assert r.admissible
        errs.append(np.abs(r.values).max())
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert orders[-1] >= 1.9  # asymptotic pair
    assert min(orders) >= 1.8  # coarse pair is still pre-asymptotic


# -------------------------------------------------- linearize

def test_linearize_sigma1_is_discrete_laplacian():
    prob = make_problem(m=9, psi="1")
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    st = evaluate_state(u, prob, 1e-2)
    assert np.abs(st.Fij - np.eye(2)).max() < 1e-12
    # matrix row for an interior point away from the boundary: 5-point laplacian
    grid = prob.grid
    idx = grid.interior_index_map()
    center = idx[4, 4]
    row = linearize(st, prob).getrow(center).toarray().ravel()
    h2 = grid.spacing[0] ** 2
    assert row[center] == pytest.approx(-4.0 / h2)
    for nb in (idx[3, 4], idx[5, 4], idx[4, 3], idx[4, 5]):
        assert row[nb] == pytest.approx(1.0 / h2)


def test_linearize_requires_admissible():
    prob = make_problem(m=9, fspec=SymmetricFunctionSpec(2, 2), psi="1")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2))
    with pytest.raises(NotAdmissible):
        linearize(evaluate_state(u, prob, 1e-2), prob)


def test_linearize_fij_positive_definite():
    prob = make_problem(m=13, fspec=SymmetricFunctionSpec(2, 2), psi="1",
                        a_mode="kappa_zg", a_param=0.5)
    u = prob.grid.sample(
        lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.2 * np.sin(x[..., 0]) + 3.0
    )
    assert np.linalg.eigvalsh(evaluate_state(u, prob, 1e-2).Fij).min() > 0.0


@pytest.mark.parametrize("fspec", [SymmetricFunctionSpec(2, 1), SymmetricFunctionSpec(2, 2),
                                   SymmetricFunctionSpec(2, 2, 1)], ids=str)
def test_jacobian_matches_directional_fd(fspec):
    # flat metric, A = kappa z g, psi with p dependence; obstacle active
    prob = make_problem(
        m=11, fspec=fspec, psi="1 + 0.1*(p1 + 2*p2) + 0.05*z",
        a_mode="kappa_zg", a_param=0.5,
        h_fn=lambda x: np.full(x.shape[:-1], 5.2),
    )
    rng = np.random.default_rng(8)
    base = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 5.0)
    bump = np.zeros(prob.grid.shape)
    bump[prob.grid.interior] = 0.002 * rng.standard_normal(prob.grid.interior_shape)
    u = base + bump  # interior-perturbed admissible state, violates h slightly
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    t = 1e-6
    worst = 0.0
    for _ in range(20):
        d = np.zeros(prob.grid.shape)
        d[prob.grid.interior] = rng.standard_normal(prob.grid.interior_shape)
        Jd = J @ d[prob.grid.interior].ravel()
        r1 = residual(u + t * d, prob, eps).values.ravel()
        fd = (r1 - r0) / t
        rel = np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_jacobian_fd_scalar_metric_p_dependent():
    # A = s g with s depending on z and p exercises the A_p column of the stencil
    prob = make_problem(m=11, fspec=SymmetricFunctionSpec(2, 2), psi="1 + 0.05*p2",
                        a_mode="scalar_metric", a_param="0.2*z + 0.05*(p1^2 + p1*p2)")
    rng = np.random.default_rng(3)
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.3 * x[..., 0] + 2.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    t = 1e-6
    for _ in range(5):
        d = np.zeros(prob.grid.shape)
        d[prob.grid.interior] = rng.standard_normal(prob.grid.interior_shape)
        Jd = J @ d[prob.grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


@pytest.mark.parametrize("a_mode, a_param, s, s_z, s_p", [
    ("zero", None, lambda z, p: 0 * z, lambda z, p: 0 * z, lambda z, p: 0 * p),
    ("kappa_zg", -0.5, lambda z, p: -0.5 * z, lambda z, p: -0.5 + 0 * z, lambda z, p: 0 * p),
    ("scalar_metric", "z^2 + 3*p2", lambda z, p: z**2 + 3 * p[:, 1], lambda z, p: 2 * z,
     lambda z, p: np.stack([0 * z, 3 + 0 * z], axis=1)),
], ids=["zero", "kappa_zg", "scalar_metric"])
def test_coefficients_are_scalar_multiples_of_metric(a_mode, a_param, s, s_z, s_p):
    rng = np.random.default_rng(0)
    x, p = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    z = rng.standard_normal(6)
    g = np.eye(2) + 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]]) * rng.random((6, 1, 1))
    coeff = coefficients_from_expressions(2, "2 + x1*z", a_mode, a_param)
    A, psi = coeff.at(x, z, p, g)
    A_z, psi_z = coeff.at(x, z, p, g, wrt="z")
    A_p, psi_p = coeff.at(x, z, p, g, wrt="p")
    np.testing.assert_allclose(A, s(z, p)[:, None, None] * g)
    np.testing.assert_allclose(A_z, s_z(z, p)[:, None, None] * g)
    np.testing.assert_allclose(A_p, s_p(z, p)[:, :, None, None] * g[:, None])
    np.testing.assert_allclose(psi, 2 + x[:, 0] * z)
    np.testing.assert_allclose(psi_z, x[:, 0])
    np.testing.assert_array_equal(psi_p, np.zeros((6, 2)))


def test_jacobian_fd_conformal_metric():
    grid = ChartGrid.box((-1, -1), (1, 1), 11)
    metric = metric_from_callable(grid, lambda x: np.exp(0.4 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 1),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(3)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


def test_jacobian_fd_sigma2_anisotropic_metric():
    # F^{ij} = D g^{-1} on a metric with off-diagonal entries
    grid = ChartGrid.box((-1, -1), (1, 1), 11)
    metric = metric_from_callable(
        grid, lambda x: np.array([[1.5 + 0.3 * x[0], 0.4 * np.sin(x[1])],
                                  [0.4 * np.sin(x[1]), 1.0 + 0.2 * x[0] * x[1]]]))
    coeff = coefficients_from_expressions(2, "1 + 0.05*p1", "kappa_zg", 0.2)
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 2),
                   coeff=coeff, h=np.full(grid.shape, 3.1), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + 1.5 * x[..., 1] ** 2 + 0.3 * x[..., 0] * x[..., 1] + 3.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(4)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


def test_linearize_sigma1_curved_fij_is_metric_inverse():
    grid = ChartGrid.box((-1, -1), (1, 1), 9)
    metric = metric_from_callable(grid, lambda x: np.exp(0.6 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 1),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: 4.0 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    st = evaluate_state(u, prob, 1e-2)
    ginv = metric.ginv[grid.interior].reshape(-1, 2, 2)
    assert np.abs(st.Fij - ginv).max() < 1e-10


# -------------------------------------------------- operator_L

def test_operator_L_constant_is_zero():
    prob = make_problem(m=11, psi="1")
    st = evaluate_state(prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2), prob, 1e-2)
    v = np.full(prob.grid.shape, 3.7)
    assert np.abs(operator_L(st, prob, v)).max() < 1e-12


def test_operator_L_sigma1_is_laplacian():
    prob = make_problem(m=11, psi="1")
    st = evaluate_state(prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2), prob, 1e-2)
    v = prob.grid.sample(lambda x: x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2 + x[..., 0] * x[..., 1])
    Lv = operator_L(st, prob, v)
    assert np.abs(Lv - (2.0 - 6.0)).max() < 1e-10


def test_operator_L_linearity():
    prob = make_problem(m=11, fspec=SymmetricFunctionSpec(2, 2), psi="1 + 0.1*p1")
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 2.0)
    st = evaluate_state(u, prob, 1e-2)
    rng = np.random.default_rng(0)
    v, w = rng.normal(size=prob.grid.shape), rng.normal(size=prob.grid.shape)
    lhs = operator_L(st, prob, 2.0 * v - 0.5 * w)
    rhs = 2.0 * operator_L(st, prob, v) - 0.5 * operator_L(st, prob, w)
    assert np.abs(lhs - rhs).max() < 1e-8


# -------------------------------------------------- laplace-beltrami solve

def test_laplace_solve_flat_harmonic_exact():
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    metric = flat_metric(grid)
    data = grid.sample(lambda x: x[..., 0] ** 2 - x[..., 1] ** 2)  # discrete harmonic
    v = laplace_beltrami_solve(grid, metric, data)
    assert np.abs(v - data).max() < 1e-10


def test_laplace_solve_rhs():
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    metric = flat_metric(grid)
    data = np.zeros(grid.shape)
    v = laplace_beltrami_solve(grid, metric, data, rhs=4.0)
    # exact discrete solution of Delta v = 4 with zero data: v = x^2 + y^2 - blend
    u_exact = grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    w = laplace_beltrami_solve(grid, metric, u_exact)  # harmonic with that data
    assert np.abs((u_exact - w) - v).max() < 1e-9


def test_laplace_solve_conformal_2d():
    # 2d conformal invariance: euclidean-harmonic data is metric-harmonic too
    grid = ChartGrid.box((-1, -1), (1, 1), 33)
    metric = metric_from_callable(grid, lambda x: np.exp(0.8 * x[0]) * np.eye(2))
    data = grid.sample(lambda x: x[..., 0] ** 2 - x[..., 1] ** 2)
    v = laplace_beltrami_solve(grid, metric, data)
    assert np.abs(v - data).max() < 2e-4  # christoffel trace cancels up to fd error


def test_jacobian_fd_3d():
    grid = ChartGrid.box((-1, -1, -1), (1, 1, 1), 7)
    coeff = coefficients_from_expressions(3, "1 + 0.1*p1 + 0.05*z", "kappa_zg", 0.3)
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(3, 2), coeff=coeff,
                   h=np.full(grid.shape, 50.0), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: (x**2).sum(axis=-1) + 3.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(5)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4
