"""Chart grids, metric fields, and every way the metric enters the operator.

The chart is a uniform rectangular grid in n = 2 or 3 dimensions.  Scalar
fields are plain ndarrays of the grid shape; Dirichlet data lives on the
boundary layer of the same array.  All differential operators act on interior
points only, with second-order centered stencils.

The centered stencil is described once, by `stencil_table`, and every
stencil kernel reads it: the gradient on slices, the second derivatives as
one product of a cached sparse operator of integer weights with `u.ravel()`
(the covariant Hessian takes its caller's gradient), and `operator`'s rows.

Per-point data has one layout: a flat, C-ordered (N, ...) block over the N
interior points in the C order of `u[grid.interior].ravel()`.  The metric is
stored so, and every derivative, metric product and coordinate returned here
is such a block: callers neither slice nor reshape.

The eigenvalues of symmetric 2x2 blocks are LAPACK's own closed form replayed
on (N,) columns in IEEE arithmetic (`symmetric_eigenvalues`): `eigvalsh`'s
bits on every block that LAPACK does not rescale, with no LAPACK or BLAS call.
The largest |eigenvalue| over a field of blocks (`largest_abs_eigenvalue`)
runs `eigvalsh` only on the blocks whose Gershgorin bound can reach it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NotSPD

__all__ = [
    "ChartGrid",
    "MetricField",
    "flat_metric",
    "metric_from_field",
    "christoffel_from_metric",
    "covariant_hessian",
    "stencil_table",
    "stencil_scale",
    "gradient_centered",
    "hessian_centered",
    "interior_shift",
    "to_metric_frame",
    "derivative_to_chart",
    "add_christoffel_term",
    "eigen_wrt_metric_field",
    "symmetric_eigenvalues",
    "largest_abs_eigenvalue",
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
        return math.prod(self.interior_shape)

    def interior_indices(self, flags: np.ndarray) -> list:
        """Interior multi-indices (1-based) of the flagged entries of an (N,)
        block over the interior points."""
        return [tuple(int(v) + 1 for v in row)
                for row in np.argwhere(flags.reshape(self.interior_shape))]

    def axes(self):
        return [np.linspace(l, h, mi) for l, h, mi in zip(self.lo, self.hi, self.m)]

    def points(self) -> np.ndarray:
        """Coordinates of every grid point, shape m + (n,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior_points(self) -> np.ndarray:
        """Coordinates of the interior points, shape (N, n)."""
        return self.points()[self.interior].reshape(-1, self.n)

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.m, dtype=bool)
        mask[self.interior] = False
        return mask

    def sample(self, fn) -> np.ndarray:
        """Sample a callable of the stacked coordinate array onto the grid."""
        return np.asarray(fn(self.points()), dtype=float)

    def every_other(self) -> "ChartGrid":
        """The grid of every other point, boundary included, of a grid with an
        odd m on every axis: (m + 1) / 2 points per axis, its point j at this
        grid's point 2j."""
        if any(mi % 2 == 0 for mi in self.m):
            raise ValueError(f"every other point is a uniform grid for odd m only, got {self.m}")
        return ChartGrid(lo=self.lo, hi=self.hi, m=tuple((mi + 1) // 2 for mi in self.m))


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
    """Sampled Riemannian metric at the interior points, with its inverse
    Cholesky factor and connection coefficients: `linv` holds L^{-1} for
    g = L L^T, and `christoffel[:, kk, i, j]` holds Gamma^kk_ij."""

    g: np.ndarray  # (N, n, n)
    linv: np.ndarray  # (N, n, n)
    christoffel: np.ndarray  # (N, n, n, n)
    is_flat: bool = False

    def every_other(self, grid: ChartGrid) -> "MetricField":
        """The metric of `grid` at the interior points of `grid.every_other()`:
        its g, L^{-1} and Gamma blocks at the points the two grids share."""
        coarse = grid.every_other()
        if self.is_flat:
            return flat_metric(coarse)
        shared = tuple(slice(1, None, 2) for _ in range(grid.n))

        def at_shared(a):
            block = a.reshape(grid.interior_shape + a.shape[1:])[shared]
            return block.reshape(coarse.n_interior, *a.shape[1:])

        return MetricField(g=at_shared(self.g), linv=at_shared(self.linv),
                           christoffel=at_shared(self.christoffel), is_flat=False)


def flat_metric(grid: ChartGrid) -> MetricField:
    """The Euclidean metric: g, linv and christoffel are read-only broadcast
    views of one identity and one zero, not per-point copies."""
    n, N = grid.n, grid.n_interior
    eye = np.broadcast_to(np.eye(n), (N, n, n))
    zero = np.broadcast_to(0.0, (N, n, n, n))
    return MetricField(g=eye, linv=eye, christoffel=zero, is_flat=True)


def metric_from_field(grid: ChartGrid, g: np.ndarray) -> MetricField:
    """A MetricField from a metric g sampled on the whole grid, m + (n, n): the
    interior blocks of g, of L^{-1} for the Cholesky factor L of its SPD test
    and of its Christoffel symbols.  A g that is not finite or SPD on the grid,
    or whose Christoffel symbols are not finite there, raises NotSPD."""
    if not np.isfinite(g).all():  # Cholesky does not raise on NaN
        raise NotSPD("metric is not finite on the grid")
    g = 0.5 * g + 0.5 * np.swapaxes(g, -1, -2)  # 0.5 * (g + g^T) overflows near the largest float
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("metric is not positive definite on the grid") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # tested below
        gamma = christoffel_from_metric(g, grid)
    if not np.isfinite(gamma).all():
        raise NotSPD("metric's Christoffel symbols are not finite on the grid")
    g, L, gamma = (a[grid.interior].reshape(grid.n_interior, *a.shape[grid.n:])
                   for a in (g, L, gamma))
    return MetricField(g=g, linv=np.linalg.inv(L), christoffel=gamma, is_flat=False)


def christoffel_from_metric(g: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) of the sampled
    metric g.

    Metric derivatives are centered in the interior and one-sided
    second-order on the boundary faces (np.gradient, edge_order=2).
    """
    dg = np.stack([np.gradient(g, h, axis=d, edge_order=2) for d, h in enumerate(grid.spacing)],
                  axis=-3)  # shape m + (d, i, j): d_d g_ij
    # bracket_{l i j} = d_i g_jl + d_j g_il - d_l g_ij
    bracket = np.moveaxis(dg, -1, -3) + np.swapaxes(dg, -1, -3) - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(g), bracket)


# ---------------------------------------------------------------------------
# derivatives of scalar fields (interior only)
# ---------------------------------------------------------------------------

def interior_shift(u: np.ndarray, offset) -> np.ndarray:
    """Interior block of a grid-shaped array u moved by offset[d] cells
    (-1, 0 or +1) along each axis d."""
    return u[tuple(slice(1 + s, u.shape[d] - 1 + s) for d, s in enumerate(offset))]


@functools.lru_cache(maxsize=2)
def stencil_table(n: int) -> tuple:
    """The centered stencil on an n-dimensional grid, one (derivative, terms)
    entry per derivative: the diagonal second derivatives (d, d), then the
    mixed (d, e), d < e, then the first derivatives (d,).  Its terms are
    (offset in cells, integer weight) pairs in the order the stencil adds
    them; their weighted sum of u, over `stencil_scale`, is the derivative."""
    E = np.eye(n, dtype=int)
    table = ([((d, d), [(E[d], 1), (0 * E[d], -2), (-E[d], 1)]) for d in range(n)]
             + [((d, e), [(E[d] + E[e], 1), (E[d] - E[e], -1), (E[e] - E[d], -1), (-E[d] - E[e], 1)])
                for d, e in itertools.combinations(range(n), 2)]
             + [((d,), [(E[d], 1), (-E[d], -1)]) for d in range(n)])
    return tuple((der, tuple((tuple(o.tolist()), w) for o, w in terms)) for der, terms in table)


def stencil_scale(derivative: tuple, h: np.ndarray) -> float:
    """The divisor of a `stencil_table` derivative at spacing h: h_d^2,
    4 h_d h_e or 2 h_d."""
    d, e = derivative[0], derivative[-1]
    return 2.0 * h[d] if len(derivative) == 1 else h[d] ** 2 if d == e else 4.0 * h[d] * h[e]


def gradient_centered(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Centered first derivatives at the interior points, (N, n): the
    table's terms summed on shifted slices of u from the first term."""
    h = grid.spacing
    cols = [functools.reduce(np.add, [w * interior_shift(u, o) for o, w in terms]) / stencil_scale(d, h)
            for d, terms in stencil_table(grid.n) if len(d) == 1]
    return np.stack(cols, axis=-1).reshape(-1, grid.n)


@functools.lru_cache(maxsize=8)
def _second_differences(shape: tuple) -> tuple:
    """The second derivatives (d, e) of the `stencil_table` and their terms
    as one CSR operator of integer weights on the C-ordered `u.ravel()` of a
    grid of `shape`: row j * N + i holds the terms of derivative j at
    interior point i, in table order.  It is cached and read-only."""
    second = [(derivative, terms) for derivative, terms in stencil_table(len(shape))
              if len(derivative) == 2]
    idx = np.arange(math.prod(shape)).reshape(shape)
    N = math.prod(s - 2 for s in shape)
    indices = np.concatenate([np.stack([interior_shift(idx, o).ravel() for o, _ in terms], axis=1).ravel()
                              for _, terms in second]).astype(np.int32)
    data = np.concatenate([np.tile([float(w) for _, w in terms], N) for _, terms in second])
    indptr = np.concatenate([[0], np.cumsum(np.repeat([len(terms) for _, terms in second], N))])
    A = sp.csr_matrix((data, indices, indptr.astype(np.int32)), shape=(len(second) * N, idx.size))
    for a in (A.data, A.indices, A.indptr):
        a.flags.writeable = False
    return tuple(derivative for derivative, _ in second), A


def hessian_centered(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Plain (non-covariant) second derivatives at the interior points, a
    C-ordered (N, n, n) block: the cached `_second_differences` of u, each
    column divided by its `stencil_scale` into its entries of the block.
    Bit for bit the table's terms summed on slices, except that the product
    sums from +0.0: an entry the slice form gives as -0.0 (such as -0.0 at
    both neighbours of a +0.0 centre) reads +0.0, an equal value."""
    h, N = grid.spacing, grid.n_interior
    pairs, A = _second_differences(grid.shape)
    out = np.empty((N, grid.n, grid.n))
    for col, (d, e) in zip((A @ u.ravel()).reshape(len(pairs), N), pairs):
        np.divide(col, stencil_scale((d, e), h), out=out[:, d, e])
        if d != e:
            out[:, e, d] = out[:, d, e]
    return out


def covariant_hessian(u: np.ndarray, geo: MetricField, grid: ChartGrid, p: np.ndarray) -> np.ndarray:
    """(nabla^2 u)_ij = d_ij u - Gamma^k_ij d_k u at the interior points, (N, n, n),
    with p the `gradient_centered` (u) the caller holds."""
    H = hessian_centered(u, grid)
    if geo.is_flat:
        return H
    return H - np.einsum("...kij,...k->...ij", geo.christoffel, p)


# ---------------------------------------------------------------------------
# the metric in the discrete operator
# ---------------------------------------------------------------------------

def to_metric_frame(X: np.ndarray, geo: MetricField) -> np.ndarray:
    """B = L^{-1} X L^{-T}, g = L L^T, of a field X of symmetric (N, n, n)
    blocks: B has the eigenvalues of X v = lam g v.  Flat: X."""
    if geo.is_flat:
        return X
    # batched matmul runs about 3x slower on a transposed view than on a copy
    return geo.linv @ X @ np.swapaxes(geo.linv, -1, -2).copy()


def derivative_to_chart(D: np.ndarray, geo: MetricField) -> np.ndarray:
    """F = L^{-T} D L^{-1} of a field D of (N, n, n) blocks, so that
    tr(D dB) = tr(F dX) for B = `to_metric_frame` (X).  Flat: D."""
    if geo.is_flat:
        return D
    return np.swapaxes(geo.linv, -1, -2).copy() @ D @ geo.linv


def add_christoffel_term(c1: np.ndarray, F: np.ndarray, geo: MetricField):
    """c1 - F^{ij} Gamma^k_{ij}, c1 (N, n), F (N, n, n): the chart first-order
    part of F^{ij} (nabla^2 v)_{ij} + c1_k d_k v.  Flat: c1."""
    if geo.is_flat:
        return c1
    return c1 - np.einsum("...ij,...kij->...k", F, geo.christoffel)


def eigen_wrt_metric_field(X: np.ndarray, geo: MetricField):
    """Pencil eigenvalues (descending, (N, n)) of a field X of symmetric
    (N, n, n) blocks: those of `to_metric_frame` (X)."""
    return symmetric_eigenvalues(to_metric_frame(X, geo))


# ---------------------------------------------------------------------------
# eigenvalues of symmetric blocks
# ---------------------------------------------------------------------------

# dsterf's relative machine epsilon, and the closed range of the largest
# |entry| of a 2x2 block in which neither dsyevd nor dsterf rescales it
_EPS = 2.0**-53
_UNSCALED_MIN, _UNSCALED_MAX = 2.0**-405, 2.0**485


def symmetric_eigenvalues(B: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending, (N, n)) of a field B of symmetric (N, n, n)
    blocks, read from the lower triangle: `np.linalg.eigvalsh(B)[..., ::-1]`
    bit for bit.

    For n = 2 it replays on the (N,) columns a = B_00, b = B_10, c = B_11
    the closed form that LAPACK's dsyevd runs on a 2x2 block: dsytd2 leaves
    the block as it is; dsterf splits it into (a, c) if |b| <= sqrt|a|
    sqrt|c| eps or b^2 <= eps^2 |a c|, and otherwise takes DLAE2's (rt1,
    rt2) of (a, sqrt(b^2), c); dlasrt sorts the pair ascending, swapping
    only if d2 < d1.  dsterf passes (c, a) to DLAE2 when |c| < |a| and
    stores its results swapped, an order the sort erases: DLAE2 is
    symmetric in a and c, and rt1, the root of larger magnitude, is nonzero
    on an unsplit block, so the two never tie as zeros of opposite sign.
    Rows whose largest |entry| is neither 0 nor in [2^-405, 2^485], where
    dsyevd or dsterf rescales, non-finite rows among them, take eigvalsh.
    Other n take eigvalsh."""
    if B.shape[-1] != 2:
        return np.linalg.eigvalsh(B)[..., ::-1]
    a, b, c = B[:, 0, 0], B[:, 1, 0], B[:, 1, 1]
    abs_a, abs_c = np.abs(a), np.abs(c)
    with np.errstate(all="ignore"):
        e2 = b * b
        split = np.abs(b) <= np.sqrt(abs_a) * np.sqrt(abs_c) * _EPS
        split |= e2 <= _EPS**2 * np.abs(a * c)
        # DLAE2(a, rte, c), rte = sqrt(b^2).  Its three cases for rt are
        # hi sqrt(1 + (lo/hi)^2) over hi >= lo of |a - c| and |2 rte|, since
        # hi = lo gives sqrt(2); a row with hi = 0 is split
        sm, rte = a + c, np.sqrt(e2)
        hi, lo = np.abs(a - c), np.abs(rte + rte)
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
        rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)
        rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
        a_max = abs_a > abs_c
        acmx, acmn = np.where(a_max, a, c), np.where(a_max, c, a)
        rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (rte / rt1) * rte)
    d1, d2 = np.where(split, a, rt1), np.where(split, c, rt2)
    swap = d2 < d1
    lam = np.stack([np.where(swap, d1, d2), np.where(swap, d2, d1)], axis=1)
    anrm = np.maximum(np.maximum(abs_a, np.abs(b)), abs_c)
    scaled = ~((anrm == 0.0) | ((anrm >= _UNSCALED_MIN) & (anrm <= _UNSCALED_MAX)))
    if scaled.any():
        lam[scaled] = np.linalg.eigvalsh(B[scaled])[:, ::-1]
    return lam


# relative slack of the Gershgorin bound: eigvalsh's eigenvalues are exact for
# B + E, |E|_2 a small multiple of eps |B|_2, and the computed row sums lose
# at most n ulps; 2^-30 covers both by a wide margin.  It holds among the
# subnormals too: rounding LAPACK's rescaled result back to the 2^-1074 grid
# adds at most half a unit, so it passes a row sum only where a few ulps of
# the sum reach a unit (sums of about 2^46 units and more), and there the
# slack is 2^16 units or more
_BOUND_SLACK = 2.0**-30


@np.errstate(over="ignore", invalid="ignore")
def largest_abs_eigenvalue(B: np.ndarray) -> float:
    """max |lambda| over a field B of symmetric (N, n, n) blocks, read from
    the lower triangle: `np.abs(np.linalg.eigvalsh(B)).max()` bit for bit.

    A block's |lambda| is at most its largest absolute row sum (Gershgorin),
    inflated here to cover eigvalsh's rounding, and at least |x^T B x| for
    the unit vectors x = e_i and (e_i +- e_j) / sqrt 2.  The block with the
    largest such lower bound gives a threshold t, its own eigvalsh max, and
    eigvalsh then runs only on the blocks whose upper bound is not below t:
    LAPACK treats each block on its own, so their max is the max over all
    blocks.  The lower bound only picks the threshold's block, so its
    rounding bears on speed alone.  A non-finite block has a NaN or
    infinite upper bound and is never dropped: NaN and LinAlgError come as
    from the full call."""
    n = B.shape[-1]
    col = {(i, j): np.abs(B[:, i, j]) for i in range(n) for j in range(i + 1)}  # lower triangle
    # row k's |entries|: B_kj for j <= k, B_jk for j > k
    row_sums = [functools.reduce(np.add, (col[max(k, j), min(k, j)] for j in range(n)))
                for k in range(n)]
    upper = functools.reduce(np.maximum, row_sums) * (1.0 + _BOUND_SLACK)
    lower = functools.reduce(np.maximum, [col[i, i] for i in range(n)]
                             + [np.abs(B[:, i, i] * 0.5 + B[:, j, j] * 0.5) + col[j, i]
                                for i, j in itertools.combinations(range(n), 2)])
    t = np.abs(np.linalg.eigvalsh(B[lower.argmax()])).max()
    return float(np.abs(np.linalg.eigvalsh(B[~(upper < t)])).max())
