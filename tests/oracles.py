"""References and helpers the tests check hessobs against; no command runs
them, so they live here and not in the package.

- the classical radial ceiling-obstacle problem of the trace operator in
  closed form, which the bundled `laplacian_obstacle` configs sample;
- projected SOR for the discrete linear complementarity problem, an
  independent solve of that problem with no penalty, Newton or cone calculus;
- the area-equivalent radius of a contact set;
- a coefficient field from the text of psi and an A mode, a metric sampled
  from a per-point callback, and the reader of a grid dump;
- f, Df and D^2 f at one eigenvalue tuple, over the batched symmetric-function
  code.

The radial construction: inside r <= a the solution coincides with the
obstacle branch h0 + (psi0 + force)/4 * r^2 (so the trace operator exceeds
psi0 by exactly `force` on the contact set); outside it solves the free
equation psi0 r^2/4 + alpha log r + beta with C^1 matching at r = a, which
pins alpha = force a^2 / 2.  The obstacle adds d_steep * (r - a)_+^2 outside,
which only steepens the gap without moving the solution.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from hessobs.expressions import parse_expression
from hessobs.geometry import ChartGrid, MetricField, metric_from_field
from hessobs.monitors import ContactSet
from hessobs.operator import CoefficientField, a_scalar_text
from hessobs.symfunc import SymmetricFunctionSpec, _f_batch, _grad_batch, _hess_batch

# ---------------------------------------------------------------------------
# the radial obstacle problem in closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialObstacleParams:
    psi0: float
    force: float  # trace excess on the contact set
    a: float  # free-boundary radius
    d_steep: float  # extra obstacle curvature outside the contact disc
    h0: float = 0.0

    @property
    def c_in(self) -> float:
        return (self.psi0 + self.force) / 4.0

    @property
    def alpha(self) -> float:
        return self.force * self.a**2 / 2.0

    @property
    def beta(self) -> float:
        return (
            self.h0
            + self.c_in * self.a**2
            - self.psi0 * self.a**2 / 4.0
            - self.alpha * np.log(self.a)
        )


def radial_params(kind: str) -> RadialObstacleParams:
    if kind == "weak":
        return RadialObstacleParams(psi0=2.0, force=0.05, a=0.5, d_steep=10.0)
    if kind == "strong":
        return RadialObstacleParams(psi0=2.0, force=5.0, a=0.6, d_steep=10.0)
    raise ValueError(f"unknown radial problem kind {kind!r}")


def radial_exact(par: RadialObstacleParams, pts: np.ndarray) -> np.ndarray:
    """Closed-form solution; pts has coordinates in the last axis."""
    rsq = (pts**2).sum(axis=-1)
    r = np.sqrt(rsq)
    return (
        par.psi0 * rsq / 4.0
        + par.alpha * np.log(np.maximum(r, par.a))
        + par.beta
        - (par.force / 4.0) * np.maximum(0.0, par.a**2 - rsq)
    )


def radial_obstacle(par: RadialObstacleParams, pts: np.ndarray) -> np.ndarray:
    rsq = (pts**2).sum(axis=-1)
    r = np.sqrt(rsq)
    return par.h0 + par.c_in * rsq + par.d_steep * np.maximum(0.0, r - par.a) ** 2


# ---------------------------------------------------------------------------
# projected SOR
# ---------------------------------------------------------------------------

# convergence: the max update of one sweep at most SOR_TOL * scale, within
# MAX_SWEEPS sweeps
SOR_TOL = 1e-11
MAX_SWEEPS = 100_000


def projected_sor(grid: ChartGrid, psi: np.ndarray, h_obstacle: np.ndarray,
                  boundary_values: np.ndarray) -> np.ndarray:
    """Solve the discrete linear complementarity problem

        u <= h,   Delta_h u >= psi,   (h - u) (Delta_h u - psi) = 0,

    with Dirichlet data on a uniform square-spacing 2d grid: the
    energy-minimization form min 1/2 u^T A u - b^T u over {u <= h} with
    A = -Delta_h, by red-black SOR sweeps with pointwise projection onto the
    constraint.

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


# ---------------------------------------------------------------------------
# monitors, set-up and report helpers
# ---------------------------------------------------------------------------

def contact_radius(contact: ContactSet, grid: ChartGrid) -> float:
    """Area-equivalent radius of the contact set (2d charts)."""
    if grid.n != 2:
        raise ValueError("contact_radius is defined for 2d charts")
    cell_area = float(np.prod(grid.spacing))
    return float(np.sqrt(contact.cells * cell_area / np.pi))


def coefficients_from_expressions(n: int, psi_text: str, a_mode: str = "zero",
                                  a_param=None) -> CoefficientField:
    """Coefficients from the text of psi and an A mode (see a_scalar_text)."""
    return CoefficientField(s=parse_expression(a_scalar_text(a_mode, a_param), n),
                            psi=parse_expression(psi_text, n))


def metric_from_callable(grid: ChartGrid, gfun) -> MetricField:
    """Sample an analytic metric callback g(x) -> (n, n) onto the grid and
    precompute Christoffel symbols by finite differences of the sampled field."""
    pts = grid.points().reshape(-1, grid.n)
    g = np.array([gfun(x) for x in pts], dtype=float).reshape(grid.shape + (grid.n, grid.n))
    return metric_from_field(grid, g)


def read_grid_dump(path):
    """Inverse of write_grid_dump: returns (meta dict, values array)."""
    meta = {}
    vals = []
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
        elif line.strip():
            vals.append(float(line))
    m = tuple(int(v) for v in meta["m"].split())
    arr = np.array(vals).reshape(m)
    return meta, arr


# ---------------------------------------------------------------------------
# f, Df and D^2 f at one eigenvalue tuple (the caller keeps it in the cone)
# ---------------------------------------------------------------------------

def eval_f(spec: SymmetricFunctionSpec, lam) -> float:
    return float(_f_batch(spec, np.asarray(lam, dtype=float)[None, :])[0][0])


def grad_f(spec: SymmetricFunctionSpec, lam) -> np.ndarray:
    return _grad_batch(spec, np.asarray(lam, dtype=float)[None, :])[1][0]


def hess_f(spec: SymmetricFunctionSpec, lam) -> np.ndarray:
    return _hess_batch(spec, np.asarray(lam, dtype=float)[None, :])[0]
