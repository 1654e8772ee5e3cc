"""Penalized residual, its linearization, and the first-order linear operator.

The residual at an interior point is

    r = f(lam(nabla^2 u + A(x, u, Du))) - psi(x, u, Du) - beta_eps(u - h),

with the cubic penalty beta_eps(z) = z^3/eps for z > 0.  The Newton path
never forms the eigenvalues lam: the sigma_j margins, f and
F^{ij} = dF/dU_{ij} = D g^{-1} are polynomials in B = g^{-1} U, U =
nabla^2 u + A, and come from the Newton-tensor recursion of
`f_and_grad_of_matrix`, which is smooth at repeated eigenvalues.
Chain-rule contributions of A = s g (s_z and s_p times F^{ij} g_{ij}),
psi_z, psi_p and beta' complete the stencil, so the assembled sparse matrix
is the exact Jacobian of the discrete residual.  Its sparsity pattern
depends only on the interior grid shape: it is built once per shape and
cached, and each assembly fills in the values.  Only the monitors read lam
itself, through `spectrum`.
This module builds matrices and solves none: every sparse system, the
default initializer's harmonic lift included, is solved in `newton`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BadEpsilon, NotAdmissible, PsiNotPositive
from .expressions import Expression
from .geometry import (
    ChartGrid,
    MetricField,
    covariant_hessian,
    eigen_wrt_metric_field,
    gradient_centered,
    interior_shift,
    pin_boundary,
)
from .symfunc import SymmetricFunctionSpec, f_and_grad_masked, f_and_grad_of_matrix, sigma_margins

__all__ = [
    "CoefficientField",
    "Problem",
    "StateEval",
    "PENALTY_ROOT",
    "penalty",
    "residual",
    "spectrum",
    "linearize",
    "operator_L",
    "assemble_operator",
    "a_scalar_text",
]

PSI_FLOOR = 1e-12
CERTIFY_TOL = 1e-8  # certify_coefficients fails a check whose worst slack is not >= -CERTIFY_TOL


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """The coefficients A(x, z, p) = s(x, z, p) g and psi(x, z, p).

    Every A mode is a scalar multiple of the metric g, so the field is two
    expressions over x1..xn, z, p1..pn: the scalar s and the right side psi.
    Their z and p derivatives are built once.  `at` evaluates them at a
    batch of points x (N, n), z (N,), p (N, n); the consumers multiply s
    by g themselves.
    """

    s: Expression
    psi: Expression

    def __post_init__(self):
        # z, and every p-variable that s or psi contains; derivatives in the
        # other p-variables vanish identically
        names = ["z"] + [v for v in self.s.variables | self.psi.variables if v[0] == "p"]
        self._d = {v: (self.s.derivative(v), self.psi.derivative(v)) for v in names}

    def at(self, x, z, p, wrt=None):
        """(s, psi) at the batch, (s_z, psi_z) for wrt="z", or (s_p, psi_p)
        for wrt="p"; s, psi, s_z and psi_z are (N,), s_p and psi_p (N, n)."""
        n = x.shape[1]
        env = {f"x{i+1}": x[:, i] for i in range(n)}
        env["z"] = z
        env.update({f"p{i+1}": p[:, i] for i in range(n)})

        def values(*exprs):
            return tuple(np.broadcast_to(e(**env), z.shape).astype(float) for e in exprs)

        if wrt is None:
            return values(self.s, self.psi)
        if wrt == "z":
            return values(*self._d["z"])
        s_p, psi_p = np.zeros((z.shape[0], n)), np.zeros((z.shape[0], n))
        for i in range(n):
            if f"p{i+1}" in self._d:
                s_p[:, i], psi_p[:, i] = values(*self._d[f"p{i+1}"])
        return s_p, psi_p


def a_scalar_text(a_mode: str, a_param=None) -> str:
    """Expression text of s in A = s g for an A mode: "zero" (s = 0),
    "kappa_zg" (s = kappa z, a_param = kappa, a finite number) or
    "scalar_metric" (a_param = the expression text of s)."""
    if a_mode == "zero":
        return "0"
    if a_mode == "kappa_zg":
        try:
            kappa = float(a_param)
        except (TypeError, ValueError):
            kappa = np.nan
        if not np.isfinite(kappa):
            raise ValueError(f"kappa must be a finite number, got {a_param!r}")
        return f"{kappa!r}*z"
    if a_mode == "scalar_metric":
        return str(a_param)
    raise ValueError(f"unknown A mode {a_mode!r}")


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """Everything a solve needs: discretized domain, operator family,
    coefficients, obstacle, boundary data and optional subsolution, which
    is pinned to the boundary data here."""

    grid: ChartGrid
    metric: MetricField
    fspec: SymmetricFunctionSpec
    coeff: CoefficientField
    h: np.ndarray  # obstacle sampled on the grid
    phi: np.ndarray  # boundary-data extension sampled on the grid
    subsolution: np.ndarray | None = None  # sampled subsolution

    # interior points (N, n), metric blocks (N, n, n) and obstacle values (N,)
    x_interior: np.ndarray = field(init=False, repr=False)
    g_interior: np.ndarray = field(init=False, repr=False)
    h_interior: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_interior = self.grid.interior_points().reshape(-1, self.grid.n)
        self.g_interior = self.metric.g[self.grid.interior].reshape(-1, self.grid.n, self.grid.n)
        self.h_interior = self.h[self.grid.interior].ravel()
        if self.subsolution is not None:
            self.subsolution = pin_boundary(self.grid, self.subsolution, self.phi)

    @functools.cached_property
    def ginv_interior(self):  # read by curved metrics only
        return self.metric.ginv[self.grid.interior].reshape(self.g_interior.shape)


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

PENALTY_POWER = 3
# a penalised solution with a bounded penalty beta = (u - h)_+^3 / eps has
# (u - h)_+ ~ eps^(1/3): the natural continuation variable is s = eps^PENALTY_ROOT
PENALTY_ROOT = 1.0 / PENALTY_POWER
# epsilon of the states whose outcome does not depend on it: the default
# initializer's admissibility probes (the paraboloid sits below the
# obstacle, where the penalty vanishes) and the subsolution's spectrum
PROBE_EPSILON = 1e-1


def penalty(epsilon: float, z):
    """Cubic penalty (value, first derivative); C^2 at z = 0.

    value = z^3/eps for z > 0 and 0 otherwise; both outputs are >= 0.
    """
    if not (0.0 < epsilon < 1.0):
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    zp = np.where(pos, z, 0.0)
    val = zp**PENALTY_POWER / epsilon
    d1 = PENALTY_POWER * zp**(PENALTY_POWER - 1) / epsilon
    return val, d1


# ---------------------------------------------------------------------------
# state evaluation
# ---------------------------------------------------------------------------

@dataclass
class StateEval:
    """All pointwise quantities of one iterate, flattened over interior
    points, with its penalized residual `values`; the eigenvalues of
    g^{-1} U are left to `spectrum`."""

    z: np.ndarray  # u at interior points
    p: np.ndarray  # centered gradient (N, n)
    hess_cov: np.ndarray  # covariant Hessian (N, n, n)
    U: np.ndarray  # hess_cov + s g (N, n, n)
    Fij: np.ndarray  # dF/dU in chart coordinates (N, n, n), NaN where outside the cone
    fval: np.ndarray  # f(lam(g^{-1} U)), NaN where outside the cone
    ok: np.ndarray  # admissibility mask
    sig: np.ndarray  # sigma_1..sigma_k margins of lam(g^{-1} U) (N, k)
    psi: np.ndarray
    beta: np.ndarray
    dbeta: np.ndarray
    values: np.ndarray  # residual fval - psi - beta, NaN where outside the cone

    @property
    def admissible(self) -> bool:
        return bool(self.ok.all())

    @property
    def margin(self) -> float:
        """min over interior points of min_j sigma_j(lam(U))."""
        return float(self.sig.min())

    def flagged_points(self, grid: ChartGrid) -> list:
        """Interior multi-indices (1-based) of the points outside the cone."""
        bad = np.argwhere(~self.ok.reshape(grid.interior_shape))
        return [tuple(int(v) + 1 for v in row) for row in bad]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def evaluate_state(u: np.ndarray, prob: Problem, epsilon: float) -> StateEval:
    """Evaluate every pointwise ingredient of the residual at iterate u.
    Overflow and invalid values raise no numpy warning: a non-finite psi
    fails the psi floor here, and a non-finite U the cone test of `ok`,
    which the callers read."""
    grid = prob.grid
    n = grid.n
    z = u[grid.interior].ravel()
    p = gradient_centered(u, grid).reshape(-1, n)
    Hc = covariant_hessian(u, prob.metric, grid).reshape(-1, n, n)
    s, psi = prob.coeff.at(prob.x_interior, z, p)
    if not psi.min() >= PSI_FLOOR:  # also a NaN psi
        raise PsiNotPositive(
            f"psi minimum {psi.min():.3e} not above floor {PSI_FLOOR}; the method requires psi > 0"
        )
    U = Hc + s[:, None, None] * prob.g_interior
    if prob.metric.is_flat:
        sig, fval, Fij, ok = f_and_grad_of_matrix(prob.fspec, U)
    else:  # dF/dU = D g^{-1} for the derivative D in B = g^{-1} U
        sig, fval, D, ok = f_and_grad_of_matrix(prob.fspec, prob.ginv_interior @ U)
        Fij = D @ prob.ginv_interior
    beta, dbeta = penalty(epsilon, z - prob.h_interior)
    return StateEval(z=z, p=p, hess_cov=Hc, U=U, Fij=Fij, fval=fval, ok=ok, sig=sig,
                     psi=psi, beta=beta, dbeta=dbeta, values=fval - psi - beta)


def spectrum(st: StateEval, prob: Problem):
    """Pencil eigenvalues lam of U (descending, (N, n)) and Df(lam), NaN
    rows outside the cone, of an evaluated state.  The monitors read these
    once per epsilon; the Newton path does not need them."""
    n = prob.grid.n
    lam = eigen_wrt_metric_field(st.U.reshape(prob.grid.interior_shape + (n, n)),
                                 prob.metric, prob.grid).reshape(-1, n)
    return lam, f_and_grad_masked(prob.fspec, lam, sigma_margins(prob.fspec, lam))[1]


def residual(u: np.ndarray, prob: Problem, epsilon: float) -> StateEval:
    """The evaluated state of iterate u, whose `values` are the penalized
    residual over the interior points (NaN where `ok` flags a point outside
    the cone).  It is the Newton path's entry to `evaluate_state`, kept a
    function of its own so that the solver's evaluations can be told apart
    from the monitors'."""
    return evaluate_state(u, prob, epsilon)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def _first_order(st: StateEval, prob: Problem):
    """The first-order coefficient s_{p_k} F^{ij} g_{ij} - psi_{p_k} of an
    admissible state, and F^{ij} g_{ij}."""
    if not st.admissible:
        raise NotAdmissible(st.flagged_points(prob.grid))
    Fg = np.einsum("...ij,...ij->...", st.Fij, prob.g_interior)
    s_p, psi_p = prob.coeff.at(prob.x_interior, st.z, st.p, wrt="p")
    return s_p * Fg[:, None] - psi_p, Fg


def linearize(state: StateEval, prob: Problem) -> sp.csr_matrix:
    """Exact Jacobian of the discrete residual over the interior unknowns at
    an evaluated admissible iterate; `state` is the `evaluate_state` result
    of that iterate (its epsilon enters through the penalty derivative it
    holds).  The covariant Hessian adds -F^{ij} Gamma^k_{ij} to the
    first-order stencil."""
    grid = prob.grid
    n = grid.n
    c1, Fg = _first_order(state, prob)
    s_z, psi_z = prob.coeff.at(prob.x_interior, state.z, state.p, wrt="z")
    zero_order = s_z * Fg - psi_z - state.dbeta
    if not prob.metric.is_flat:
        gamma = prob.metric.christoffel[grid.interior].reshape(-1, n, n, n)
        c1 = c1 - np.einsum("...ij,...kij->...k", state.Fij, gamma)
    return assemble_operator(grid, state.Fij, c1, zero_order)


@functools.lru_cache(maxsize=8)
def _stencil_pattern(shape: tuple) -> tuple:
    """The CSR pattern of the centered stencil over a C-ordered interior
    block of `shape`: the stencil offsets in lexicographic order, which is
    the order of their columns in every row, the (N, offsets) bool mask of
    the neighbors that lie inside the block, and the int32 `indices` and
    `indptr`.  It depends only on the shape (one per sweep), so it is
    cached and read-only."""
    n = len(shape)
    offsets = tuple(o for o in itertools.product((-1, 0, 1), repeat=n)
                    if np.count_nonzero(o) <= 2)
    idx = np.pad(np.arange(int(np.prod(shape))).reshape(shape), 1, constant_values=-1)
    cols = np.stack([interior_shift(idx, o).ravel() for o in offsets], axis=1)
    keep = cols >= 0
    indices = cols[keep].astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
    for a in (keep, indices, indptr):
        a.flags.writeable = False
    return offsets, keep, indices, indptr


def assemble_operator(grid: ChartGrid, Fij: np.ndarray, c1: np.ndarray,
                      c0: np.ndarray | float) -> sp.csr_matrix:
    """Assemble sum_ij F^{ij} d_ij + sum_k c1_k d_k + c0 over interior
    unknowns with centered stencils; Dirichlet neighbors are dropped.

    Fij: (N, n, n); c1: (N, n); c0: (N,) or scalar.  The stencil values are
    stacked in the column order of the grid's cached `_stencil_pattern`, and
    the ones at interior neighbors are the CSR data, so every entry of the
    stencil stays in the pattern, an exact zero too, and the pattern is the
    same at every call on the grid.
    """
    h = grid.spacing
    N = grid.n_interior
    offsets, keep, indices, indptr = _stencil_pattern(grid.interior_shape)
    vals = np.empty((N, len(offsets)))
    for j, off in enumerate(offsets):
        axes = np.flatnonzero(off)
        if axes.size == 0:
            vals[:, j] = c0
            for d in range(grid.n):
                vals[:, j] -= 2.0 * Fij[:, d, d] / h[d] ** 2
        elif axes.size == 1:
            d = axes[0]
            vals[:, j] = Fij[:, d, d] / h[d] ** 2 + off[d] * c1[:, d] / (2.0 * h[d])
        else:
            d, e = axes
            vals[:, j] = off[d] * off[e] * Fij[:, d, e] / (2.0 * h[d] * h[e])
    return sp.csr_matrix((vals[keep], indices, indptr), shape=(N, N))


def operator_L(state: StateEval, prob: Problem, v: np.ndarray) -> np.ndarray:
    """Apply the first-order linear operator at an evaluated admissible state
    (the `evaluate_state` result of the iterate) to the field v:

        L v = F^{ij} (nabla^2 v)_{ij} + (s_{p_k} F^{ij} g_{ij} - psi_{p_k}) d_k v

    (principal and first-order parts only, no zero-order term).  Returns an
    interior-shaped field.
    """
    grid = prob.grid
    n = grid.n
    c1, _ = _first_order(state, prob)
    Hv = covariant_hessian(v, prob.metric, grid).reshape(-1, n, n)
    dv = gradient_centered(v, grid).reshape(-1, n)
    out = np.einsum("...ij,...ij->...", state.Fij, Hv) + np.einsum("...k,...k->...", c1, dv)
    return out.reshape(grid.interior_shape)


# ---------------------------------------------------------------------------
# coefficient certification
# ---------------------------------------------------------------------------

@dataclass
class CoefficientCertification:
    passed: bool
    checks: dict  # name -> worst slack (>= -CERTIFY_TOL means pass)
    witness: dict | None  # x, z and p of the first failed check's worst sample
    failed_condition: str | None


@np.errstate(all="ignore")  # a non-finite slack fails its check instead
def certify_coefficients(prob: Problem, samples: int, seed: int) -> CoefficientCertification:
    """Sampling certification of the coefficient sign/concavity conditions:
    concavity of A^{xi xi} and of -psi in p, A^{xi xi}_z >= 0, -psi_z >= 0,
    and positivity of psi.

    A = s g with g positive definite and independent of z and p, so the
    conditions on A are conditions on the scalar s: A^{xi xi}_z >= 0 is
    s_z >= 0 and A^{xi xi} concave in p is s concave in p, whatever the
    metric.  Sampled over grid points, a z box around the
    boundary/subsolution range and a p ball; a certification, not a proof.
    A check passes when its worst slack is at least -CERTIFY_TOL, so a NaN
    slack fails it.
    """
    rng = np.random.default_rng(seed)
    grid = prob.grid
    n = grid.n
    pts = grid.points().reshape(-1, n)
    x = pts[rng.integers(0, pts.shape[0], size=samples)]
    zscale = 1.0 + 2.0 * max(1.0, float(np.abs(prob.phi).max()))
    if prob.subsolution is not None:
        zscale = max(zscale, 1.0 + 2.0 * float(np.abs(prob.subsolution).max()))
    # the box still covers the data's range when that nears the largest
    # float, whose double is inf and no range to draw from
    zscale = min(zscale, np.finfo(float).max / 2.0)
    z = rng.uniform(-zscale, zscale, size=samples)
    p = rng.uniform(-10.0, 10.0, size=(samples, n))

    checks = {}
    witness = None
    failed = None

    def record(name, slack):
        nonlocal witness, failed
        checks[name] = worst = float(np.min(slack))
        if not worst >= -CERTIFY_TOL and failed is None:  # also NaN
            i = int(np.argmin(slack))
            witness, failed = {"x": x[i], "z": z[i], "p": p[i]}, name

    s, psi = prob.coeff.at(x, z, p)
    record("psi > 0", psi - PSI_FLOOR)
    s_z, psi_z = prob.coeff.at(x, z, p, wrt="z")
    record("-psi_z >= 0", -psi_z)
    record("A^xx_z >= 0", s_z)

    # concavity in p by random-direction second differences
    t = 1e-3 * (1.0 + np.linalg.norm(p, axis=1, keepdims=True))
    dp = rng.standard_normal((samples, n))
    dp /= np.linalg.norm(dp, axis=1, keepdims=True)
    scale2 = t.ravel() ** 2
    (s_pp, psi_pp), (s_pm, psi_pm) = (prob.coeff.at(x, z, q) for q in (p + t * dp, p - t * dp))
    # -psi concave in p means the second difference of psi is >= 0
    record("-psi concave in p", (psi_pp - 2.0 * psi + psi_pm) / scale2)
    record("A^xx concave in p", -(s_pp - 2.0 * s + s_pm) / scale2)

    return CoefficientCertification(passed=failed is None, checks=checks,
                                    witness=witness, failed_condition=failed)
