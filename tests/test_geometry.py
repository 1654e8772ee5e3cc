"""Grid, metric, covariant Hessian and pencil-eigenvalue tests."""

import numpy as np
import pytest

from hessobs.errors import NotSPD
from hessobs.geometry import (
    ChartGrid,
    covariant_hessian,
    eigen_wrt_metric,
    flat_metric,
    gradient_centered,
    pin_boundary,
)
from oracles import metric_from_callable


def grid2(m=17, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return ChartGrid.box(lo, hi, m)


# -------------------------------------------------- grid plumbing

def test_grid_validation():
    with pytest.raises(ValueError, match="3 points per axis"):
        ChartGrid.box((0, 0), (1, 1), 2)
    with pytest.raises(ValueError):
        ChartGrid.box((0,), (1,), 5)
    with pytest.raises(ValueError):
        ChartGrid.box((0, 0), (0, 1), 5)


def test_pin_boundary():
    g = grid2(9)
    phi = g.sample(lambda x: x[..., 0] + 2.0 * x[..., 1])
    u = np.zeros(g.shape)
    pinned = pin_boundary(g, u, phi)
    assert np.array_equal(pinned[g.boundary_mask()], phi[g.boundary_mask()])
    assert np.all(pinned[g.interior] == 0.0)


# -------------------------------------------------- christoffel

def test_christoffel_constant_metric_zero():
    g = grid2(9)
    geo = metric_from_callable(g, lambda x: np.diag([2.0, 3.0]))
    assert np.abs(geo.christoffel).max() == 0.0


def test_christoffel_conformal_symbolic():
    # g = e^{2 x1} I in 2d: Gamma^k_ij = d_i phi delta_kj + d_j phi delta_ki - d_k phi delta_ij
    # with phi = x1: Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = 1, others 0.
    g = grid2(33)
    geo = metric_from_callable(g, lambda x: np.exp(2.0 * x[0]) * np.eye(2))
    gam = geo.christoffel[g.interior]
    assert np.abs(gam[..., 0, 0, 0] - 1.0).max() < 5e-3
    assert np.abs(gam[..., 0, 1, 1] + 1.0).max() < 5e-3
    assert np.abs(gam[..., 1, 0, 1] - 1.0).max() < 5e-3
    assert np.abs(gam[..., 1, 1, 1]).max() < 5e-3


def test_christoffel_symmetry_in_lower_indices():
    g = ChartGrid.box((-1, -1, -1), (1, 1, 1), 7)
    geo = metric_from_callable(
        g, lambda x: np.diag([1.0 + 0.3 * x[0] ** 2, 2.0 + 0.1 * x[1] ** 2, 1.5]) + 0.05 * np.ones((3, 3))
    )
    gam = geo.christoffel
    assert np.abs(gam - np.swapaxes(gam, -1, -2)).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_flat_metric_is_read_only_identity(n):
    g = ChartGrid.box((-1.0,) * n, (1.0,) * n, 5)
    geo = flat_metric(g)
    assert geo.is_flat
    assert geo.g.shape == geo.ginv.shape == g.shape + (n, n)
    assert geo.christoffel.shape == g.shape + (n, n, n)
    assert np.array_equal(geo.g, np.broadcast_to(np.eye(n), geo.g.shape))
    assert np.array_equal(geo.ginv, geo.g)
    assert not geo.christoffel.any()
    for arr in (geo.g, geo.ginv, geo.christoffel):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_metric_not_spd_raises():
    g = grid2(5)
    with pytest.raises(NotSPD):
        metric_from_callable(g, lambda x: np.diag([1.0, -1.0]))


# -------------------------------------------------- covariant hessian

def test_flat_quadratic_hessian_exact():
    g = grid2(9)
    geo = flat_metric(g)
    u = g.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    H = covariant_hessian(u, geo, g)
    assert np.abs(H - np.eye(2)).max() < 1e-13


def test_flat_general_quadratic_exact():
    g = grid2(11)
    geo = flat_metric(g)
    u = g.sample(lambda x: x[..., 0] ** 2 + 3.0 * x[..., 0] * x[..., 1] - 0.5 * x[..., 1] ** 2)
    H = covariant_hessian(u, geo, g)
    expect = np.array([[2.0, 3.0], [3.0, -1.0]])
    assert np.abs(H - expect).max() < 1e-12


def test_hessian_linearity():
    g = grid2(13)
    geo = metric_from_callable(g, lambda x: np.exp(2.0 * x[0]) * np.eye(2))
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=g.shape), rng.normal(size=g.shape)
    Hu = covariant_hessian(u, geo, g)
    Hv = covariant_hessian(v, geo, g)
    Hcomb = covariant_hessian(2.0 * u - 3.0 * v, geo, g)
    assert np.abs(Hcomb - (2.0 * Hu - 3.0 * Hv)).max() < 1e-10


def test_metric_correction_hand_computed():
    # g = diag(e^{2 x1}, 1), u = x1: d_ij u = 0, so (nabla^2 u)_ij = -Gamma^1_ij.
    # Gamma^1_11 = 1 and Gamma^1_22 = -e^{-2 x1} * (-(1/2) d_1 g_22) = 0 here?
    # From the Levi-Civita formula: Gamma^1_11 = 1, Gamma^1_22 = 0, Gamma^1_12 = 0.
    g = grid2(33)
    geo = metric_from_callable(g, lambda x: np.diag([np.exp(2.0 * x[0]), 1.0]))
    u = g.sample(lambda x: x[..., 0])
    H = covariant_hessian(u, geo, g)
    assert np.abs(H[..., 0, 0] + 1.0).max() < 5e-3
    assert np.abs(H[..., 0, 1]).max() < 5e-3
    assert np.abs(H[..., 1, 1]).max() < 5e-3


def test_hessian_convergence_order():
    errs = []
    for m in (17, 33, 65):
        g = grid2(m)
        geo = flat_metric(g)
        u = g.sample(lambda x: np.sin(x[..., 0]) * np.sin(x[..., 1]))
        H = covariant_hessian(u, geo, g)
        x = g.interior_points()
        s0, s1 = np.sin(x[..., 0]), np.sin(x[..., 1])
        c0, c1 = np.cos(x[..., 0]), np.cos(x[..., 1])
        exact = np.empty(H.shape)
        exact[..., 0, 0] = -s0 * s1
        exact[..., 1, 1] = -s0 * s1
        exact[..., 0, 1] = exact[..., 1, 0] = c0 * c1
        errs.append(np.abs(H - exact).max())
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_gradient_centered_exact_on_linear():
    g = ChartGrid.box((-1, -1, -1), (1, 1, 1), 5)
    u = g.sample(lambda x: 2.0 * x[..., 0] - x[..., 1] + 0.5 * x[..., 2])
    du = gradient_centered(u, g)
    assert np.abs(du - np.array([2.0, -1.0, 0.5])).max() < 1e-13


# -------------------------------------------------- pencil eigenvalues

def test_eigen_identity_metric():
    lam = eigen_wrt_metric(np.diag([3.0, 1.0]), np.eye(2))
    assert lam == pytest.approx([3.0, 1.0])


def test_eigen_diag_pencil():
    # det(X - lam g) = 0 with X = diag(4,2), g = diag(4,1): lam = {1, 2} descending
    lam = eigen_wrt_metric(np.diag([4.0, 2.0]), np.diag([4.0, 1.0]))
    assert lam == pytest.approx([2.0, 1.0])


def test_eigen_trace_identity_and_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(25):
        A = rng.normal(size=(3, 3))
        X = 0.5 * (A + A.T)
        B = rng.normal(size=(3, 3))
        g = B @ B.T + 3.0 * np.eye(3)
        lam = eigen_wrt_metric(X, g)
        gX = np.linalg.solve(g, X)
        assert lam.sum() == pytest.approx(np.trace(gX), rel=1e-12)
        assert np.all(np.diff(lam) <= 1e-12)
        # the power sums and the product fix the characteristic polynomial of g^{-1} X
        scale = max(1.0, np.abs(gX).max())
        assert abs((lam**2).sum() - np.trace(gX @ gX)) < 1e-10 * scale**2
        assert abs(lam.prod() - np.linalg.det(X) / np.linalg.det(g)) < 1e-10 * scale**3


def test_eigen_not_spd_raises():
    with pytest.raises(NotSPD):
        eigen_wrt_metric(np.eye(2), np.diag([1.0, -2.0]))
