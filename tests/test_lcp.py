"""Projected-SOR complementarity oracle tests."""

import numpy as np
import pytest

from hessobs.geometry import ChartGrid
from oracles import projected_sor, radial_exact, radial_obstacle, radial_params


def test_unconstrained_reduces_to_poisson():
    # obstacle far above: plain Delta u = psi with quadratic exact solution
    grid = ChartGrid.box((-1, -1), (1, 1), 33)
    exact = grid.sample(lambda x: 0.5 * (x**2).sum(axis=-1))
    psi = np.full(grid.shape, 2.0)
    h = np.full(grid.shape, 100.0)
    u = projected_sor(grid, psi, h, exact)
    assert np.abs(u - exact).max() < 1e-9


def test_fully_clamped():
    # boundary data above a low ceiling and psi pushing up: u = h inside
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    h = np.zeros(grid.shape)
    bdata = grid.sample(lambda x: 1.0 - 0.5 * (x**2).sum(axis=-1))
    psi = np.full(grid.shape, -8.0)  # Delta u = -8: superharmonic, pushes up
    u = projected_sor(grid, psi, h, bdata)
    assert np.abs(u[grid.interior]).max() < 1e-9


@pytest.mark.parametrize("kind,tol", [("weak", 1e-4), ("strong", 2e-3)])
def test_radial_closed_form(kind, tol):
    # the curvature jump at the free boundary scales the local truncation,
    # hence the larger band for the strong-force variant
    par = radial_params(kind)
    grid = ChartGrid.box((-1, -1), (1, 1), 65)
    pts = grid.points()
    exact = radial_exact(par, pts)
    h = radial_obstacle(par, pts)
    psi = np.full(grid.shape, par.psi0)
    u = projected_sor(grid, psi, h, exact)
    assert np.abs(u - exact).max() < tol


def test_complementarity_conditions():
    par = radial_params("weak")
    grid = ChartGrid.box((-1, -1), (1, 1), 65)
    pts = grid.points()
    exact = radial_exact(par, pts)
    h = radial_obstacle(par, pts)
    psi = np.full(grid.shape, par.psi0)
    u = projected_sor(grid, psi, h, exact)
    assert np.all(u <= h + 1e-12)
    hx = grid.spacing[0]
    lap = (
        u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4.0 * u[grid.interior]
    ) / hx**2
    assert lap.min() >= par.psi0 - 1e-6  # Delta_h u >= psi
    free = (h - u)[grid.interior] > 1e-6
    assert np.abs(lap[free] - par.psi0).max() < 1e-6  # equation off contact


def test_rejects_anisotropic_grid():
    grid = ChartGrid.box((-1, -1), (1, 2), (17, 17))
    with pytest.raises(ValueError):
        projected_sor(grid, np.zeros(grid.shape), np.ones(grid.shape), np.zeros(grid.shape))


def test_raises_without_convergence(monkeypatch):
    import oracles

    monkeypatch.setattr(oracles, "MAX_SWEEPS", 1)
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    bdata = np.where(grid.boundary_mask(), 1.0, 0.0)  # a zero interior start
    with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
        projected_sor(grid, np.full(grid.shape, 2.0), np.full(grid.shape, 100.0), bdata)
