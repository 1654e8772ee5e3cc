"""Penalized residual, its linearization, and the first-order linear operator.

The residual at an interior point is

    r = f(lam(nabla^2 u + A(x, u, Du))) - psi(x, u, Du) - beta_eps(u - h),

with the cubic penalty beta_eps(z) = z^3/eps for z > 0.  The Newton path
never forms the eigenvalues lam: the sigma_j margins, f and F^{ij} =
dF/dU_{ij} come from the Newton-tensor recursion of `f_and_grad_of_matrix`,
smooth at repeated eigenvalues, on geometry's reduced pencil B = L^{-1} U
L^{-T}, g = L L^T and U = nabla^2 u + A (`to_metric_frame`); only the
monitors read lam, through `spectrum`.  With the chain-rule terms of A = s g,
psi and beta', the exact Jacobian is assembled one row per offset of
geometry's stencil table over a CSR pattern cached per interior grid shape;
`operator_L` applies those rows to a full-grid field for the audit and the
harmonic lift.  This module builds matrices and solves none (`newton` does).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BadEpsilon, NotAdmissible, PsiNotPositive
from .expressions import Expression
from .geometry import (
    ChartGrid,
    MetricField,
    add_christoffel_term,
    covariant_hessian,
    derivative_to_chart,
    eigen_wrt_metric_field,
    gradient_centered,
    interior_shift,
    pin_boundary,
    stencil_scale,
    stencil_table,
    to_metric_frame,
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
    "spectrum_gradient",
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

    # interior points (N, n) and obstacle values (N,)
    x_interior: np.ndarray = field(init=False, repr=False)
    h_interior: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_interior = self.grid.interior_points()
        self.h_interior = self.h[self.grid.interior].ravel()
        if self.subsolution is not None:
            self.subsolution = pin_boundary(self.grid, self.subsolution, self.phi)


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

    value = z^3/eps for z > 0 and 0 otherwise; both outputs are arrays of
    z's shape and >= 0.  Only the points in contact (z > 0) are computed;
    every other entry, NaN z included, is +0.0.
    """
    if not (0.0 < epsilon < 1.0):
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")
    z = np.asarray(z, dtype=float)
    val, d1 = np.zeros(z.shape), np.zeros(z.shape)
    pos = np.flatnonzero(z > 0.0)
    zp = z.take(pos)
    val.put(pos, zp**PENALTY_POWER / epsilon)
    d1.put(pos, PENALTY_POWER * zp**(PENALTY_POWER - 1) / epsilon)
    return val, d1


# ---------------------------------------------------------------------------
# state evaluation
# ---------------------------------------------------------------------------

@dataclass
class StateEval:
    """All pointwise quantities of one iterate, flattened over interior
    points, with its penalized residual `values`; the pencil eigenvalues
    of U are left to `spectrum`."""

    z: np.ndarray  # u at interior points
    p: np.ndarray  # centered gradient (N, n)
    hess_cov: np.ndarray  # covariant Hessian (N, n, n)
    U: np.ndarray  # hess_cov + s g (N, n, n)
    Fij: np.ndarray  # dF/dU in chart coordinates (N, n, n), NaN where outside the cone
    fval: np.ndarray  # f(lam), lam the pencil eigenvalues of U; NaN where outside the cone
    ok: np.ndarray  # admissibility mask
    sig: np.ndarray  # sigma_1..sigma_k margins of lam (N, k)
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
        return grid.interior_indices(~self.ok)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def evaluate_state(u: np.ndarray, prob: Problem, epsilon: float) -> StateEval:
    """Evaluate every pointwise ingredient of the residual at iterate u.
    Overflow and invalid values raise no numpy warning: a psi that is NaN,
    +inf or below PSI_FLOOR raises PsiNotPositive here, and a non-finite U
    fails the cone test of `ok`, which the callers read."""
    grid = prob.grid
    z = u[grid.interior].ravel()
    p = gradient_centered(u, grid)
    Hc = covariant_hessian(u, prob.metric, grid, p)
    s, psi = prob.coeff.at(prob.x_interior, z, p)
    if not PSI_FLOOR <= psi.min() <= psi.max() < np.inf:  # also a NaN psi
        raise PsiNotPositive(f"psi over [{psi.min():.3e}, {psi.max():.3e}] is not finite or not "
                             f"above floor {PSI_FLOOR}; the method requires a finite psi > 0")
    # U = Hc + s g, with s g formed per component: broadcasting s over the
    # short axes would run numpy's inner loop n elements at a time
    U = np.empty(Hc.shape)
    for i, c in np.ndindex(Hc.shape[1:]):
        np.multiply(s, prob.metric.g[:, i, c], out=U[:, i, c])
    np.add(Hc, U, out=U)
    sig, fval, D, ok = f_and_grad_of_matrix(prob.fspec, to_metric_frame(U, prob.metric))
    Fij = derivative_to_chart(D, prob.metric)
    beta, dbeta = penalty(epsilon, z - prob.h_interior)
    return StateEval(z=z, p=p, hess_cov=Hc, U=U, Fij=Fij, fval=fval, ok=ok, sig=sig,
                     psi=psi, beta=beta, dbeta=dbeta, values=fval - psi - beta)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def spectrum(st: StateEval, prob: Problem) -> np.ndarray:
    """Pencil eigenvalues lam of U (descending, (N, n)) of an evaluated
    state, for the monitors."""
    return eigen_wrt_metric_field(st.U, prob.metric)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def spectrum_gradient(fspec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Df(lam), NaN rows outside the cone; a sigma_j that overflows puts its
    row outside, with no numpy warning."""
    return f_and_grad_masked(fspec, lam, sigma_margins(fspec, lam))[1]


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
    """The chart first-order coefficient s_{p_k} F^{ij} g_{ij} - psi_{p_k}
    - F^{ij} Gamma^k_{ij} of an admissible state (the covariant Hessian
    adds the last term), and F^{ij} g_{ij}."""
    if not st.admissible:
        raise NotAdmissible(st.flagged_points(prob.grid))
    Fg = np.einsum("...ij,...ij->...", st.Fij, prob.metric.g)
    s_p, psi_p = prob.coeff.at(prob.x_interior, st.z, st.p, wrt="p")
    return add_christoffel_term(s_p * Fg[:, None] - psi_p, st.Fij, prob.metric), Fg


def linearize(state: StateEval, prob: Problem) -> sp.csr_matrix:
    """Exact Jacobian of the discrete residual over the interior unknowns at
    an evaluated admissible iterate; `state` is the `evaluate_state` result
    of that iterate (its epsilon enters through the penalty derivative it
    holds)."""
    c1, Fg = _first_order(state, prob)
    s_z, psi_z = prob.coeff.at(prob.x_interior, state.z, state.p, wrt="z")
    zero_order = s_z * Fg - psi_z - state.dbeta
    return assemble_operator(prob.grid, state.Fij, c1, zero_order)


@functools.lru_cache(maxsize=8)
def _stencil_pattern(shape: tuple) -> tuple:
    """The CSR pattern of the centered stencil over a C-ordered interior
    block of `shape`: geometry's `stencil_table` grouped by offset, one
    (offset, ((derivative, weight), ...)) group per offset in lexicographic
    order, which is their columns' order in every row; the (N, offsets) bool
    mask of the neighbors inside the block; and the int32 `indices` and
    `indptr`.  It depends only on the shape, so it is cached and read-only."""
    terms = [(o, (derivative, w)) for derivative, ts in stencil_table(len(shape)) for o, w in ts]
    groups = tuple((o, tuple(t for p, t in terms if p == o)) for o in sorted({o for o, _ in terms}))
    idx = np.pad(np.arange(int(np.prod(shape))).reshape(shape), 1, constant_values=-1)
    cols = np.stack([interior_shift(idx, offset).ravel() for offset, _ in groups], axis=1)
    keep = cols >= 0
    indices = cols[keep].astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
    for a in (keep, indices, indptr):
        a.flags.writeable = False
    return groups, keep, indices, indptr


def _stencil_rows(grid: ChartGrid, Fij: np.ndarray, c1: np.ndarray, c0) -> tuple:
    """The values of sum_ij F^{ij} d_ij + sum_k c1_k d_k + c0 at the offsets
    of the grid's `_stencil_pattern`, (offsets, N), and the pattern: c0 (at
    the centre) plus, in table order, each term's weight x coefficient
    (F^{dd}, 2 F^{de} or c1_d) / `stencil_scale`, with 2 F^{de} / s taken as
    F^{de} / (s / 2), exactly and free of overflow.  A quotient is computed
    once per weight magnitude and subtracted for a negative weight, or
    multiplied by -1 where it comes first (np.negative would flip a NaN's
    sign); a sum starts from its first addend, so a lone -0.0 stays -0.0."""
    h = grid.spacing
    pattern = _stencil_pattern(grid.interior_shape)
    quotient = {}
    for derivative, terms in stencil_table(grid.n):
        d, e = derivative[0], derivative[-1]
        coefficient = c1[:, d] if len(derivative) == 1 else Fij[:, d, e]
        scale = stencil_scale(derivative, h) / (2 if d != e else 1)
        for weight in {abs(w) for _, w in terms}:
            quotient[derivative, weight] = (weight * coefficient if weight > 1 else coefficient) / scale
    rows = np.empty((len(pattern[0]), grid.n_interior))
    for row, (offset, terms) in zip(rows, pattern[0]):
        (weight, first), *rest = ([(1, c0)] * (not any(offset))
                                  + [(w, quotient[t, abs(w)]) for t, w in terms])
        np.multiply(first, 1.0 if weight > 0 else -1.0, out=row)
        for weight, addend in rest:
            (np.add if weight > 0 else np.subtract)(row, addend, out=row)
    return rows, pattern


def assemble_operator(grid: ChartGrid, Fij: np.ndarray, c1: np.ndarray,
                      c0: np.ndarray | float) -> sp.csr_matrix:
    """Assemble sum_ij F^{ij} d_ij + sum_k c1_k d_k + c0 over interior
    unknowns with centered stencils; Dirichlet neighbors are dropped.

    Fij: (N, n, n); c1: (N, n); c0: (N,) or scalar.  The pattern's mask
    gathers the `_stencil_rows` at interior neighbors from the transpose as
    the CSR data, so every entry of the stencil stays in the pattern, an
    exact zero too, and the pattern is the same at every call on the grid.
    """
    N = grid.n_interior
    rows, (_, keep, indices, indptr) = _stencil_rows(grid, Fij, c1, c0)
    return sp.csr_matrix((rows.T[keep], indices, indptr), shape=(N, N))


def operator_L(grid: ChartGrid, Fij: np.ndarray, c1: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_ij F^{ij} d_ij v + sum_k c1_k d_k v at the interior points, (N,),
    of a full-grid field v, boundary values included: the `_stencil_rows` of
    `assemble_operator` (grid, Fij, c1, 0) times v at each offset, summed
    from +0.0 in the pattern's order as the CSR product sums.  With a state's
    F^{ij} and the c1 of `_first_order` it is the audit's L v = F^{ij}
    (nabla^2 v)_{ij} + (s_{p_k} F^{ij} g_{ij} - psi_{p_k}) d_k v."""
    rows, (groups, *_) = _stencil_rows(grid, Fij, c1, 0.0)
    return sum(row * interior_shift(v, offset).ravel() for row, (offset, _) in zip(rows, groups))


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
