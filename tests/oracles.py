"""References and helpers the tests check hessobs against; no command runs
them, so they live here and not in the package.

- the classical radial ceiling-obstacle problem of the trace operator in
  closed form, which the bundled `laplacian_obstacle` configs sample;
- projected SOR for the discrete linear complementarity problem, an
  independent solve of that problem with no penalty, Newton or cone calculus;
- the area-equivalent radius of a contact set;
- a coefficient field from the text of psi and an A mode, a metric sampled
  from a per-point callback, the reader of a grid dump, and the config text
  of the `solve_3d` benchmark workload;
- f, Df and D^2 f at one eigenvalue tuple, over the batched symmetric-function
  code;
- the per-point cone kernels as they were written before they ran on
  contiguous (N,) columns, which the package's must match bit for bit;
- the all-pairs theta scan that `estimate_theta`'s row filter and Gram-form
  gaps must reproduce;
- the centered first and second derivatives taken on slices, and the
  penalty on every point, as they were written before the Hessian became one
  cached sparse product and the penalty ran on the points in contact only;
- the audit's linear operator as the covariant Hessian and gradient of v
  contracted by two einsums, as it was written before it read the stencil
  table;
- LAPACK's eigenvalues of a symmetric 2x2 block, dsterf's path and DLAE2
  statement by statement in Python floats, which `geometry`'s closed form
  must match bit for bit without depending on the LAPACK build;
- the body of a grid dump as one %-format of the field, "%.17g" per value,
  which the report's numpy kernel must match byte for byte, and the value
  sets on the edges of that kernel's fast path;
- a CSV table from its rows and the JSON document, as the report wrote them
  before its CSV kernel and one-shot JSON text, which the report must match
  byte for byte.

The radial construction: inside r <= a the solution coincides with the
obstacle branch h0 + (psi0 + force)/4 * r^2 (so the trace operator exceeds
psi0 by exactly `force` on the contact set); outside it solves the free
equation psi0 r^2/4 + alpha log r + beta with C^1 matching at r = a, which
pins alpha = force a^2 / 2.  The obstacle adds d_steep * (r - a)_+^2 outside,
which only steepens the gap without moving the solution.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import pathlib
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hessobs.errors import OutsideCone
from hessobs.expressions import parse_expression
from hessobs.geometry import ChartGrid, MetricField, interior_shift, metric_from_field
from hessobs.monitors import ContactSet
from hessobs.operator import PENALTY_POWER, CoefficientField, a_scalar_text
from hessobs.report import _csv_text, _jsonable
from hessobs.symfunc import (THETA_ZERO_GUARD, SymmetricFunctionSpec, ThetaCertificate, _f_batch,
                             _grad_batch, _hess_batch, _margin_ok)

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


def solve_3d_config_text() -> str:
    """The generated 3d config of the `solve_3d` benchmark workload at seed 1
    (`perfbench/workloads.py`)."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import workloads

    return workloads.solve_3d_config(1)


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


# ---------------------------------------------------------------------------
# the per-point cone kernels on (N, k) blocks
# ---------------------------------------------------------------------------
# Each runs its elementwise ops on strided columns of an (N, k) or (N, n)
# block and its reductions along the short axis, as the package did before
# its kernels moved to contiguous (N,) columns; the package's kernels must
# give the same bits, the same masks and the same errors.

def elementary_symmetric_reference(lam, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of each row of lam, shape (N, kmax+1)."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    npts, n = lam.shape
    e = np.zeros((npts, kmax + 1))
    e[:, 0] = 1.0
    for c in range(n):
        jtop = min(kmax, c + 1)
        for j in range(jtop, 0, -1):
            e[:, j] += lam[:, c] * e[:, j - 1]
    return e


def sigma_margins_reference(spec: SymmetricFunctionSpec, lam) -> np.ndarray:
    return elementary_symmetric_reference(lam, spec.k)[:, 1:]


def inside_reference(spec: SymmetricFunctionSpec, lam) -> np.ndarray:
    return _margin_ok(sigma_margins_reference(spec, lam)).all(axis=1)


def require_inside_reference(spec: SymmetricFunctionSpec, lam):
    e = elementary_symmetric_reference(lam, spec.k)
    bad = ~_margin_ok(e[:, 1:])
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise OutsideCone(lam[i], e[i], int(np.argmax(bad[i])) + 1)


def f_and_grad_of_matrix_reference(spec: SymmetricFunctionSpec, B: np.ndarray):
    """(sig, f, D, ok) of the (N, n, n) batch B by the Newton-tensor
    recursion, sigma_j stored in the columns of one (N, k+1) block."""
    n, e = B.shape[1], np.ones((B.shape[0], spec.k + 1))
    ij = list(np.ndindex(n, n))
    T = [{(i, c): float(i == c) for i, c in ij}]  # T_0 = I
    BT = b = {(i, c): B[:, i, c] for i, c in ij}  # B T_0 = B
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, spec.k + 1):
            e[:, j] = functools.reduce(np.add, [BT[i, i] for i in range(n)]) / j
            if j < spec.k:
                T.append({(i, c): e[:, j] - BT[i, c] if i == c else -BT[i, c] for i, c in ij})
                BT = {(i, c): functools.reduce(np.add, [b[i, m] * T[j][m, c] for m in range(n)])
                      for i, c in ij if i == c or j + 1 < spec.k}
        ok = _margin_ok(e[:, 1:]).all(axis=1)
        sk, sl = e[:, spec.k], e[:, spec.l]
        f = np.where(ok, np.exp((np.log(sk) - np.log(sl)) / spec.degree), np.nan)
        fd, D = f / spec.degree, np.empty(B.shape)
        for i, c in ij:
            dlog = T[spec.k - 1][i, c] / e[:, spec.k]
            if spec.l:
                dlog = dlog - T[spec.l - 1][i, c] / e[:, spec.l]
            np.multiply(fd, dlog, out=D[:, i, c])
    return e[:, 1:], f, D, ok


def f_and_grad_masked_reference(spec: SymmetricFunctionSpec, lam: np.ndarray, sig: np.ndarray):
    ok = _margin_ok(sig).all(axis=1)
    f = np.full(lam.shape[0], np.nan)
    grad = np.full(lam.shape, np.nan)
    if np.any(ok):
        f[ok], grad[ok] = _grad_batch(spec, lam[ok])
    return f, grad, ok


# ---------------------------------------------------------------------------
# the all-pairs theta scan
# ---------------------------------------------------------------------------

def estimate_theta_reference(spec: SymmetricFunctionSpec, K_samples, zeta: float,
                             lambda_samples) -> ThetaCertificate:
    """`estimate_theta` as one pass over every (lam, mu) pair: brackets and
    per-axis normal gaps of all pairs, chunked over K, with no row filter
    and no Gram form.  The package's scan must match it bit for bit."""
    K = np.atleast_2d(np.asarray(K_samples, dtype=float))
    lams = np.atleast_2d(np.asarray(lambda_samples, dtype=float))
    f_lam, g_lam = _grad_batch(spec, lams)
    f_mu, g_mu = _grad_batch(spec, K)
    nu_lam = g_lam / np.linalg.norm(g_lam, axis=1, keepdims=True)
    nu_mu = g_mu / np.linalg.norm(g_mu, axis=1, keepdims=True)
    denom = 1.0 + g_lam.sum(axis=1)

    theta, pair_count, violations, min_bracket = np.inf, 0, 0, np.inf
    chunk = max(1, int(2e6 / max(1, lams.shape[0])))
    for s in range(0, K.shape[0], chunk):
        mu_blk = K[s : s + chunk]
        bracket = g_lam @ mu_blk.T - np.einsum("ij,ij->i", g_lam, lams)[:, None] \
            - f_mu[s : s + chunk][None, :] + f_lam[:, None]
        scale = 1.0 + np.abs(f_lam)[:, None] + np.abs(f_mu[s : s + chunk])[None, :]
        violations += int(np.count_nonzero(bracket < -THETA_ZERO_GUARD * scale))
        min_bracket = min(min_bracket, float(bracket.min()))
        gaps = np.sqrt(sum((nu_lam[:, i, None] - nu_mu[None, s : s + chunk, i]) ** 2
                           for i in range(K.shape[1])))
        mask = gaps >= zeta
        pair_count += int(np.count_nonzero(mask))
        if np.any(mask):
            theta = min(theta, float(np.where(mask, bracket / denom[:, None], np.inf).min()))
    return ThetaCertificate(theta if pair_count else None, zeta, lams.shape[0], pair_count,
                            violations, min_bracket)


# ---------------------------------------------------------------------------
# the stencil kernels on slices
# ---------------------------------------------------------------------------

def gradient_centered_reference(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Centered first derivatives at the interior points, (N, n), each entry
    one stencil expression on shifted slices of u."""
    n = grid.n
    h = grid.spacing
    E = np.eye(n, dtype=int)
    out = np.empty(grid.interior_shape + (n,))
    for d in range(n):
        out[..., d] = (interior_shift(u, E[d]) - interior_shift(u, -E[d])) / (2.0 * h[d])
    return out.reshape(-1, n)


def hessian_centered_reference(u: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """Centered second derivatives at the interior points, (N, n, n), each
    entry one stencil expression on shifted slices of u."""
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
    return out.reshape(-1, n, n)


def first_order_reference(state, prob) -> np.ndarray:
    """The chart first-order coefficient c1 = s_{p_k} F^{ij} g_{ij} - psi_{p_k}
    of an evaluated state, (N, n), without the Christoffel term."""
    Fg = np.einsum("...ij,...ij->...", state.Fij, prob.metric.g)
    s_p, psi_p = prob.coeff.at(prob.x_interior, state.z, state.p, wrt="p")
    return s_p * Fg[:, None] - psi_p


def operator_L_reference(state, prob, v: np.ndarray) -> np.ndarray:
    """F^{ij} (nabla^2 v)_{ij} + c1_k d_k v at the interior points of an
    evaluated admissible state, (N,), c1 = `first_order_reference`: the
    covariant Hessian and the gradient of the full-grid field v, boundary
    values included, contracted with F and c1 by two einsums."""
    geo = prob.metric
    c1 = first_order_reference(state, prob)
    dv = gradient_centered_reference(v, prob.grid)
    Hv = hessian_centered_reference(v, prob.grid)
    if not geo.is_flat:
        Hv = Hv - np.einsum("...kij,...k->...ij", geo.christoffel, dv)
    return np.einsum("...ij,...ij->...", state.Fij, Hv) + np.einsum("...k,...k->...", c1, dv)


def penalty_reference(epsilon: float, z):
    """The cubic penalty's value and derivative, z clipped at 0 everywhere."""
    z = np.asarray(z, dtype=float)
    zp = np.where(z > 0.0, z, 0.0)
    return zp**PENALTY_POWER / epsilon, PENALTY_POWER * zp**(PENALTY_POWER - 1) / epsilon


# ---------------------------------------------------------------------------
# LAPACK's eigenvalues of a symmetric 2x2 block
# ---------------------------------------------------------------------------
# Reference LAPACK's DLAE2 and the 2x2 path of dsyevd -> dsytd2 -> dsterf ->
# dlasrt, for a block that neither dsyevd nor dsterf rescales: its largest
# |entry| is 0 or lies in [2^-405, 2^485].  EPS is dsterf's DLAMCH('E').

LAPACK_EPS = 2.0**-53


def dlae2_reference(a: float, b: float, c: float) -> tuple[float, float]:
    """DLAE2: the eigenvalues (rt1, rt2) of [[a, b], [b, c]], rt1 the one of
    larger magnitude."""
    sm = a + c
    adf = abs(a - c)
    ab = abs(b + b)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        t = ab / adf
        rt = adf * math.sqrt(1.0 + t * t)
    elif adf < ab:
        t = adf / ab
        rt = ab * math.sqrt(1.0 + t * t)
    else:
        rt = ab * math.sqrt(2.0)
    if sm < 0.0:
        rt1 = 0.5 * (sm - rt)
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    elif sm > 0.0:
        rt1 = 0.5 * (sm + rt)
        rt2 = (acmx / rt1) * acmn - (b / rt1) * b
    else:
        rt1 = 0.5 * rt
        rt2 = -(0.5 * rt)
    return rt1, rt2


def eigvalsh2_reference(a: float, b: float, c: float) -> list:
    """Ascending eigenvalues of the symmetric block with diagonal (a, c) and
    lower entry b as dsyevd computes them: dsytd2 leaves the block as the
    tridiagonal d = (a, c), e = b; dsterf splits it where e is negligible
    against sqrt|a| sqrt|c|, squares e, chooses QL or QR iteration by the
    larger end of d, splits where e^2 is negligible against |a c| and else
    hands the block to DLAE2; dlasrt sorts d by insertion."""
    d = [a, c]
    if not abs(b) <= (math.sqrt(abs(d[0])) * math.sqrt(abs(d[1]))) * LAPACK_EPS:
        e = b * b
        if abs(d[1]) < abs(d[0]):  # QR: DLAE2 from the bottom end
            if not abs(e) <= LAPACK_EPS**2 * abs(d[1] * d[0]):
                rt1, rt2 = dlae2_reference(d[1], math.sqrt(e), d[0])
                d = [rt2, rt1]
        elif not abs(e) <= LAPACK_EPS**2 * abs(d[0] * d[1]):  # QL
            rt1, rt2 = dlae2_reference(d[0], math.sqrt(e), d[1])
            d = [rt1, rt2]
    if d[1] < d[0]:
        d = [d[1], d[0]]
    return d


# ---------------------------------------------------------------------------
# the text of a grid dump
# ---------------------------------------------------------------------------

def g17_reference(values) -> bytes:
    """A grid dump's body as it was written before the numpy kernel: one
    %-format of the flat field, "%.17g" and a newline per value."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.17g\n" * len(flat) % tuple(flat)).encode()


def g17_cases(seed: int = 0) -> dict:
    """Value sets, both signs, on the edges of the kernel's fast path (finite
    |x| in [1e-4, 1e16), printed in fixed notation):

    - ties: x = m / 2^(17-e), m odd, 10^e <= x < 10^(e+1) for e in [-4, 15],
      whose x 10^(16-e) = m 5^(16-e) / 2 lies halfway between two integers;
    - edges: 10^k for k in [-5, 17] and its neighbours toward 0 and +inf;
    - bits: 2^18 random bit patterns;
    - magnitudes: 10^5 values between 1e-8 and 1e18, log-uniform;
    - specials: signed zeros, subnormals, the smallest normal, the largest
      finite value, infinities and NaN with either sign bit."""
    rng = np.random.default_rng(seed)
    ties = []
    for e in range(-4, 16):
        k = 17 - e
        lo, hi = (math.ceil(Fraction(10)**d * 2**k) for d in (e, e + 1))
        m = 2 * rng.integers(lo // 2, (min(hi, 2**53) - 1) // 2, 4096) + 1  # odd, in [lo, hi)
        ties.append(m / 2.0**k)
    ties = np.concatenate(ties)
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    magnitudes = 10.0 ** rng.uniform(-8.0, 18.0, 100_000)
    specials = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                         np.inf, np.nan])
    signs = lambda v: np.concatenate([v, -v])
    return {
        "ties": signs(ties),
        "edges": signs(edges),
        "bits": rng.integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False).view(np.float64),
        "magnitudes": magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
        "specials": signs(specials),
    }


# ---------------------------------------------------------------------------
# the text of a report's CSV tables and JSON document
# ---------------------------------------------------------------------------

# the types whose str is their fmt
_PLAIN = frozenset((int, float))


def csv_rows(columns) -> list:
    """The rows of a table given as columns, as the sweep passed them before
    the CSV kernel: a numpy column by its tolist(), so its bools are Python
    bools."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def csv_reference(header, rows, meta) -> bytes:
    """A CSV table as `ReportBundleWriter.write_csv` wrote it from its rows
    before the CSV kernel: one %-format of the table, column by column, %s of
    a Python int or float, a column of bools as true/false and any other
    column through fmt first.  A value that CSV would quote raises
    ValueError."""
    buf = io.StringIO()
    buf.write("# " + meta + "\n")
    csv.writer(buf, lineterminator="\n").writerow(header)
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        kinds = set(map(type, col))
        if kinds == {bool}:
            cols[j] = map(("false", "true").__getitem__, col)
        elif not kinds <= _PLAIN:
            cols[j] = map(_csv_text, col)
    values = tuple(itertools.chain.from_iterable(zip(*cols)))
    buf.write(("%s," * (len(header) - 1) + "%s\n") * len(rows) % values)
    return buf.getvalue().encode()


def json_reference(document) -> bytes:
    """`report.json` as `ReportBundleWriter.write_json` wrote it before its
    one-shot text: `json.dump` chunk by chunk, then a newline."""
    buf = io.StringIO()
    json.dump(_jsonable(document), buf, indent=2, allow_nan=False)
    buf.write("\n")
    return buf.getvalue().encode()
