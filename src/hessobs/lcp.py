"""Projected SOR for the discrete linear complementarity problem

    u <= h,   Delta_h u >= psi,   (h - u) (Delta_h u - psi) = 0,

with Dirichlet data on a flat 2d chart.  This is the energy-minimization
form min 1/2 u^T A u - b^T u over {u <= h} with A = -Delta_h, solved by
red-black SOR sweeps with pointwise projection onto the constraint.  It is
the independent oracle for the penalized path: no penalty, no Newton, no
cone calculus.
"""

from __future__ import annotations

import numpy as np

from .geometry import ChartGrid

__all__ = ["projected_sor"]

# convergence: the max update of one sweep at most SOR_TOL * scale, within
# MAX_SWEEPS sweeps
SOR_TOL = 1e-11
MAX_SWEEPS = 100_000


def projected_sor(grid: ChartGrid, psi: np.ndarray, h_obstacle: np.ndarray,
                  boundary_values: np.ndarray) -> np.ndarray:
    """Solve the ceiling-obstacle LCP on a uniform square-spacing 2d grid.

    psi, h_obstacle, boundary_values are full-grid fields; the returned field
    holds the Dirichlet data on the boundary layer.  Convergence is declared
    on the max update per sweep falling below SOR_TOL * scale; RuntimeError
    is raised after MAX_SWEEPS sweeps without it.
    """
    if grid.n != 2:
        raise ValueError("projected_sor implemented for 2d charts")
    hx, hy = grid.spacing
    if abs(hx - hy) > 1e-14 * max(hx, hy):
        raise ValueError("projected_sor expects equal spacing per axis")
    h2 = hx * hx
    m0, m1 = grid.m
    # asymptotically optimal SOR factor for the 5-point laplacian
    omega = 2.0 / (1.0 + np.sin(np.pi / (max(m0, m1) - 1)))

    u = np.array(boundary_values, dtype=float, copy=True)
    u[grid.interior] = np.minimum(u, h_obstacle)[grid.interior]
    psi = np.asarray(psi, dtype=float)
    cap = np.asarray(h_obstacle, dtype=float)

    ii, jj = np.meshgrid(np.arange(1, m0 - 1), np.arange(1, m1 - 1), indexing="ij")
    red = ((ii + jj) % 2 == 0)
    colors = [red, ~red]
    scale = max(1.0, float(np.abs(u).max()), float(np.abs(psi).max()) * h2)

    for sweep in range(MAX_SWEEPS):
        delta = 0.0
        for color in colors:
            nb = (
                u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            )
            gs = 0.25 * (nb - h2 * psi[grid.interior])
            cur = u[grid.interior]
            new = np.minimum(cur + omega * (gs - cur), cap[grid.interior])
            changed = np.where(color, new, cur)
            delta = max(delta, float(np.abs(changed - cur).max()))
            u[grid.interior] = changed
        if delta <= SOR_TOL * scale:
            break
    else:
        raise RuntimeError(f"projected SOR did not converge in {MAX_SWEEPS} sweeps")
    return u
