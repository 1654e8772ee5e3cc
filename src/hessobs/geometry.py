"""Chart grids, metric fields, covariant Hessians, metric eigenvalues.

The chart is a uniform rectangular grid in n = 2 or 3 dimensions.  Scalar
fields are plain ndarrays of the grid shape; Dirichlet data lives on the
boundary layer of the same array.  All differential operators act on interior
points only, with second-order centered stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSPD

__all__ = [
    "ChartGrid",
    "MetricField",
    "flat_metric",
    "metric_from_field",
    "christoffel_from_metric",
    "covariant_hessian",
    "gradient_centered",
    "hessian_centered",
    "interior_shift",
    "eigen_wrt_metric",
    "eigen_wrt_metric_field",
    "pin_boundary",
]


@dataclass(frozen=True)
class ChartGrid:
    """Uniform rectangular chart grid."""

    lo: tuple
    hi: tuple
    m: tuple  # points per axis, >= 3

    def __post_init__(self):
        n = len(self.lo)
        if n not in (2, 3):
            raise ValueError(f"chart dimension must be 2 or 3, got {n}")
        if len(self.hi) != n or len(self.m) != n:
            raise ValueError("lo, hi, m must have equal length")
        if any(mi < 3 for mi in self.m):
            raise ValueError(f"need >= 3 points per axis, got m = {self.m}")
        if not all(map(math.isfinite, self.lo + self.hi)):
            raise ValueError(f"lo and hi must be finite, got lo = {self.lo}, hi = {self.hi}")
        if any(h <= lo for lo, h in zip(self.lo, self.hi)):
            raise ValueError("need hi > lo on every axis")

    @classmethod
    def box(cls, lo, hi, m):
        """Convenience constructor accepting scalars or sequences."""
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if np.isscalar(m) or np.ndim(m) == 0:
            m = (int(m),) * len(lo)
        return cls(lo=lo, hi=hi, m=tuple(int(v) for v in m))

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple:
        return self.m

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(h - l) / (mi - 1) for l, h, mi in zip(self.lo, self.hi, self.m)])

    @property
    def interior(self) -> tuple:
        """Slices selecting the interior block of a grid-shaped array."""
        return tuple(slice(1, -1) for _ in range(self.n))

    @property
    def interior_shape(self) -> tuple:
        return tuple(mi - 2 for mi in self.m)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    def axes(self):
        return [np.linspace(l, h, mi) for l, h, mi in zip(self.lo, self.hi, self.m)]

    def points(self) -> np.ndarray:
        """Coordinates of every grid point, shape m + (n,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior_points(self) -> np.ndarray:
        return self.points()[self.interior]

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.m, dtype=bool)
        mask[self.interior] = False
        return mask

    def sample(self, fn) -> np.ndarray:
        """Sample a callable of the stacked coordinate array onto the grid."""
        return np.asarray(fn(self.points()), dtype=float)


def pin_boundary(grid: ChartGrid, values: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Copy of `values` with the boundary layer replaced by Dirichlet data."""
    out = np.array(values, dtype=float, copy=True)
    mask = grid.boundary_mask()
    out[mask] = np.asarray(phi, dtype=float)[mask]
    return out


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricField:
    """Sampled Riemannian metric with precomputed inverse and connection
    coefficients.  `christoffel[..., kk, i, j]` holds Gamma^kk_ij."""

    g: np.ndarray  # shape m + (n, n)
    ginv: np.ndarray
    christoffel: np.ndarray  # shape m + (n, n, n)
    is_flat: bool = False


def flat_metric(grid: ChartGrid) -> MetricField:
    """The Euclidean metric: g, ginv and christoffel are read-only broadcast
    views of one identity and one zero, not full-grid copies."""
    n = grid.n
    eye = np.broadcast_to(np.eye(n), grid.shape + (n, n))
    zero = np.broadcast_to(0.0, grid.shape + (n, n, n))
    return MetricField(g=eye, ginv=eye, christoffel=zero, is_flat=True)


def metric_from_field(grid: ChartGrid, g: np.ndarray) -> MetricField:
    """Build a MetricField from an already-sampled metric array; a g that
    is not finite or not positive definite raises NotSPD."""
    if not np.isfinite(g).all():  # Cholesky does not raise on NaN
        raise NotSPD("metric is not finite on the grid")
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("metric is not positive definite on the grid") from exc
    ginv = np.linalg.inv(g)
    gamma = christoffel_from_metric(g, grid, ginv=ginv)
    return MetricField(g=g, ginv=ginv, christoffel=gamma, is_flat=False)


def christoffel_from_metric(g: np.ndarray, grid: ChartGrid, ginv: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with ginv the
    inverse of the sampled metric g.

    Metric derivatives are centered in the interior and one-sided
    second-order on the boundary faces (np.gradient, edge_order=2).
    """
    n = grid.n
    h = grid.spacing
    dg = np.stack(
        [np.gradient(g, h[d], axis=d, edge_order=2) for d in range(n)], axis=-3
    )  # shape m + (d, i, j): d_d g_ij
    # bracket_{l i j} = d_i g_jl + d_j g_il - d_l g_ij
    bracket = np.empty_like(dg)
    for l in range(n):
        for i in range(n):
            for j in range(n):
                bracket[..., l, i, j] = dg[..., i, j, l] + dg[..., j, i, l] - dg[..., l, i, j]
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)
    return gamma


# ---------------------------------------------------------------------------
# derivatives of scalar fields (interior only)
# ---------------------------------------------------------------------------

def interior_shift(u: np.ndarray, offset) -> np.ndarray:
    """Interior block of a grid-shaped array u moved by offset[d] cells
    (-1, 0 or +1) along each axis d."""
    return u[tuple(slice(1 + s, u.shape[d] - 1 + s) for d, s in enumerate(offset))]


def gradient_centered(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Centered first derivatives on interior points, shape interior + (n,)."""
    n = grid.n
    h = grid.spacing
    E = np.eye(n, dtype=int)
    out = np.empty(grid.interior_shape + (n,))
    for d in range(n):
        out[..., d] = (interior_shift(u, E[d]) - interior_shift(u, -E[d])) / (2.0 * h[d])
    return out


def hessian_centered(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Plain (non-covariant) second derivatives on interior points."""
    n = grid.n
    h = grid.spacing
    E = np.eye(n, dtype=int)
    out = np.empty(grid.interior_shape + (n, n))
    center = u[grid.interior]
    for d in range(n):
        out[..., d, d] = (interior_shift(u, E[d]) - 2.0 * center
                          + interior_shift(u, -E[d])) / h[d] ** 2
    for d in range(n):
        for e in range(d + 1, n):
            cross = (
                interior_shift(u, E[d] + E[e])
                - interior_shift(u, E[d] - E[e])
                - interior_shift(u, E[e] - E[d])
                + interior_shift(u, -E[d] - E[e])
            ) / (4.0 * h[d] * h[e])
            out[..., d, e] = cross
            out[..., e, d] = cross
    return out


def covariant_hessian(u: np.ndarray, geo: MetricField, grid: ChartGrid) -> np.ndarray:
    """(nabla^2 u)_ij = d_ij u - Gamma^k_ij d_k u on interior points."""
    H = hessian_centered(u, grid)
    if geo.is_flat:
        return H
    du = gradient_centered(u, grid)
    gamma_int = geo.christoffel[grid.interior]
    return H - np.einsum("...kij,...k->...ij", gamma_int, du)


# ---------------------------------------------------------------------------
# eigenvalues with respect to the metric
# ---------------------------------------------------------------------------

def eigen_wrt_metric(X: np.ndarray, g: np.ndarray):
    """Eigenvalues of the pencil X v = lam g v for symmetric X and SPD g,
    sorted descending.

    Reduction through the Cholesky factor g = L L^T to the standard symmetric
    problem of L^{-1} X L^{-T}; no eigenvectors are formed.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("metric block not positive definite") from exc
    T = np.linalg.solve(L, X)
    B = np.linalg.solve(L, np.swapaxes(T, -1, -2))
    return np.linalg.eigvalsh(0.5 * (B + np.swapaxes(B, -1, -2)))[..., ::-1]


def eigen_wrt_metric_field(X: np.ndarray, geo: MetricField, grid: ChartGrid):
    """Batched pencil eigenvalues (descending) of an interior tensor field.

    X has shape interior + (n, n); the eigenvalues have shape interior + (n,).
    Flat metrics skip the Cholesky reduction.
    """
    if geo.is_flat:
        return np.linalg.eigvalsh(X)[..., ::-1]
    return eigen_wrt_metric(X, geo.g[grid.interior])
