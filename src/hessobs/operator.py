"""Penalized residual, its linearization, and the first-order linear operator.

The residual at an interior point is

    r = f(lam(nabla^2 u + A(x, u, Du))) - psi(x, u, Du) - beta_eps(u - h),

with the cubic penalty beta_eps(z) = z^3/eps for z > 0.  The Jacobian is
assembled spectrally: in the g-orthonormal eigenframe of U = nabla^2 u + A,
dF = sum_a f_a(lam) v_a (x) v_a, pushed back through the Cholesky congruence;
chain-rule contributions of A_z, A_p, psi_z, psi_p and beta' complete the
stencil.  The assembled sparse matrix is the exact Jacobian of the discrete
residual (the spectral first derivative is exact, ties handled by cluster
averaging).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BadEpsilon, NotAdmissible, PsiNotPositive
from .expressions import Expression, parse_expression
from .geometry import (
    ChartGrid,
    MetricField,
    covariant_hessian,
    eigen_wrt_metric_field,
    gradient_centered,
    interior_shift,
)
from .symfunc import SymmetricFunctionSpec, f_and_grad_masked, sigma_margins

__all__ = [
    "CoefficientField",
    "Problem",
    "StateEval",
    "LinearizedSystem",
    "PENALTY_POWER",
    "PENALTY_ROOT",
    "penalty",
    "residual",
    "linearize",
    "operator_L",
    "assemble_operator",
    "a_scalar_text",
    "coefficients_from_expressions",
    "laplace_beltrami_solve",
]

PSI_FLOOR = 1e-12
CERTIFY_TOL = 1e-8  # certify_coefficients fails a check whose worst slack is below -CERTIFY_TOL


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass
class CoefficientField:
    """The coefficients A(x, z, p) = s(x, z, p) g and psi(x, z, p).

    Every A mode is a scalar multiple of the metric g, so the field is two
    expressions over x1..xn, z, p1..pn: the scalar s and the right side psi.
    Their z and p derivatives are built once.  `at` evaluates a batch of
    points x (N, n), z (N,), p (N, n) with metric blocks g (N, n, n).
    """

    s: Expression
    psi: Expression

    def __post_init__(self):
        # z, and every p-variable that s or psi contains; derivatives in the
        # other p-variables vanish identically
        names = ["z"] + [v for v in self.s.variables | self.psi.variables if v[0] == "p"]
        self._d = {v: (self.s.derivative(v), self.psi.derivative(v)) for v in names}

    def at(self, x, z, p, g, wrt=None):
        """(A, psi) at the batch, (A_z, psi_z) for wrt="z", or (A_p, psi_p)
        for wrt="p".  A and A_z are (N, n, n) and psi, psi_z (N,); A_p is
        (N, n, n, n) with the p-component index first after the batch axis,
        psi_p is (N, n)."""
        n = x.shape[1]
        env = {f"x{i+1}": x[:, i] for i in range(n)}
        env["z"] = z
        env.update({f"p{i+1}": p[:, i] for i in range(n)})

        def times_metric(s_expr, psi_expr):
            s, psi = (np.broadcast_to(e(**env), z.shape).astype(float)
                      for e in (s_expr, psi_expr))
            return s[:, None, None] * g, psi

        if wrt is None:
            return times_metric(self.s, self.psi)
        if wrt == "z":
            return times_metric(*self._d["z"])
        A_p, psi_p = np.zeros((z.shape[0], n, n, n)), np.zeros((z.shape[0], n))
        for i in range(n):
            if f"p{i+1}" in self._d:
                A_p[:, i], psi_p[:, i] = times_metric(*self._d[f"p{i+1}"])
        return A_p, psi_p


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


def coefficients_from_expressions(n: int, psi_text: str, a_mode: str = "zero",
                                  a_param=None) -> CoefficientField:
    """Coefficients from the text of psi and an A mode (see a_scalar_text)."""
    return CoefficientField(s=parse_expression(a_scalar_text(a_mode, a_param), n),
                            psi=parse_expression(psi_text, n))


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """Everything a solve needs: discretized domain, operator family,
    coefficients, obstacle, boundary data and optional subsolution."""

    grid: ChartGrid
    metric: MetricField
    fspec: SymmetricFunctionSpec
    coeff: CoefficientField
    h: np.ndarray  # obstacle sampled on the grid
    phi: np.ndarray  # boundary-data extension sampled on the grid
    subsolution: np.ndarray | None = None  # sampled subsolution (pinned to phi)

    def __post_init__(self):
        self._x_int = self.grid.interior_points().reshape(-1, self.grid.n)
        self._g_int = self.metric.g[self.grid.interior].reshape(-1, self.grid.n, self.grid.n)
        self._h_int = self.h[self.grid.interior].ravel()

    @property
    def x_interior(self):
        return self._x_int

    @property
    def g_interior(self):
        return self._g_int

    @property
    def h_interior(self):
        return self._h_int


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------

PENALTY_POWER = 3
# a penalised solution with a bounded penalty beta = (u - h)_+^3 / eps has
# (u - h)_+ ~ eps^(1/3): the natural continuation variable is s = eps^PENALTY_ROOT
PENALTY_ROOT = 1.0 / PENALTY_POWER


def penalty(epsilon: float, z):
    """Cubic penalty (value, first, second derivative); C^2 at z = 0.

    value = z^3/eps for z > 0 and 0 otherwise; all three outputs are >= 0.
    """
    if not (0.0 < epsilon < 1.0):
        raise BadEpsilon(f"epsilon must lie in (0, 1), got {epsilon}")
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    zp = np.where(pos, z, 0.0)
    val = zp**PENALTY_POWER / epsilon
    d1 = PENALTY_POWER * zp**(PENALTY_POWER - 1) / epsilon
    d2 = PENALTY_POWER * (PENALTY_POWER - 1) * zp / epsilon
    if z.ndim == 0:
        return float(val), float(d1), float(d2)
    return val, d1, d2


# ---------------------------------------------------------------------------
# state evaluation
# ---------------------------------------------------------------------------

@dataclass
class StateEval:
    """All pointwise quantities of one iterate, flattened over interior points."""

    z: np.ndarray  # u at interior points
    p: np.ndarray  # centered gradient (N, n)
    hess_cov: np.ndarray  # covariant Hessian (N, n, n)
    lam: np.ndarray  # pencil eigenvalues of U = hess_cov + A, descending (N, n)
    V: np.ndarray  # g-orthonormal frames (N, n, n)
    fval: np.ndarray  # f(lam), NaN where outside the cone
    fgrad: np.ndarray  # Df(lam), tie-averaged
    ok: np.ndarray  # admissibility mask
    sig: np.ndarray  # sigma_1..sigma_k margins (N, k)
    psi: np.ndarray
    beta: np.ndarray
    dbeta: np.ndarray

    @property
    def admissible(self) -> bool:
        return bool(self.ok.all())

    @property
    def margin(self) -> float:
        """min over interior points of min_j sigma_j(lam(U))."""
        return float(self.sig.min())

    def residual_values(self) -> np.ndarray:
        return self.fval - self.psi - self.beta


def _average_tied_gradients(lam: np.ndarray, fg: np.ndarray) -> np.ndarray:
    """Average f_i over clusters of (numerically) repeated eigenvalues.

    For symmetric f the analytic values already agree on ties; averaging
    removes the frame ambiguity of round-off-split eigenvalues.  lam is sorted
    descending, so a cluster is a maximal run of neighbours within tol.
    """
    n = lam.shape[1]
    tol = 1e-10 * (1.0 + np.abs(lam).max(axis=1))
    split = (lam[:, :-1] - lam[:, 1:]) > tol[:, None]
    cluster = np.concatenate([np.zeros((lam.shape[0], 1), dtype=int),
                              np.cumsum(split, axis=1)], axis=1)
    out = fg.copy()
    for c in range(n - 1):  # a cluster of two or more starts at most at n - 2
        member = cluster == c
        size = member.sum(axis=1)
        tied = size > 1
        mean = np.where(member[tied], fg[tied], 0.0).sum(axis=1) / size[tied]
        out[tied] = np.where(member[tied], mean[:, None], out[tied])
    return out


def evaluate_state(u: np.ndarray, prob: Problem, epsilon: float) -> StateEval:
    """Evaluate every pointwise ingredient of the residual at iterate u."""
    grid = prob.grid
    n = grid.n
    z = u[grid.interior].ravel()
    p = gradient_centered(u, grid).reshape(-1, n)
    Hc = covariant_hessian(u, prob.metric, grid).reshape(-1, n, n)
    x = prob.x_interior
    g = prob.g_interior
    A, psi = prob.coeff.at(x, z, p, g)
    lam_g, V_g = eigen_wrt_metric_field(
        (Hc + A).reshape(grid.interior_shape + (n, n)), prob.metric, grid
    )
    lam = lam_g.reshape(-1, n)
    V = V_g.reshape(-1, n, n)
    sig = sigma_margins(prob.fspec, lam)
    fval, fgrad, ok = f_and_grad_masked(prob.fspec, lam, sig)
    if np.any(ok):
        fgrad[ok] = _average_tied_gradients(lam[ok], fgrad[ok])
    if psi.min() < PSI_FLOOR:
        raise PsiNotPositive(
            f"psi minimum {psi.min():.3e} below floor {PSI_FLOOR}; the method requires psi > 0"
        )
    beta, dbeta, _ = penalty(epsilon, z - prob.h_interior)
    return StateEval(z=z, p=p, hess_cov=Hc, lam=lam, V=V,
                     fval=fval, fgrad=fgrad, ok=ok, sig=sig,
                     psi=psi, beta=beta, dbeta=dbeta)


@dataclass
class ResidualResult:
    values: np.ndarray  # interior-shaped field, NaN at inadmissible points
    ok: np.ndarray  # admissibility mask, interior-shaped
    margin: float
    state: StateEval

    @property
    def admissible(self) -> bool:
        return bool(self.ok.all())

    def flagged_points(self, grid: ChartGrid):
        """Interior multi-indices where the residual is undefined."""
        bad = np.argwhere(~self.ok)
        return [tuple(int(v) + 1 for v in row) for row in bad]


def residual(u: np.ndarray, prob: Problem, epsilon: float) -> ResidualResult:
    """Penalized residual on interior points with admissibility flag.

    Values at flagged (non-admissible) points are NaN and must not be used.
    """
    st = evaluate_state(u, prob, epsilon)
    vals = st.residual_values().reshape(prob.grid.interior_shape)
    ok = st.ok.reshape(prob.grid.interior_shape)
    return ResidualResult(values=vals, ok=ok, margin=st.margin, state=st)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

@dataclass
class LinearizedSystem:
    """Pointwise coefficients and the assembled sparse Jacobian.

    first_order holds the covariant-operator coefficient
    (F^{ij} A^{ij}_{p_k} - psi_{p_k}); the assembled stencil additionally
    carries the -F^{ij} Gamma^k_{ij} correction from the covariant Hessian.
    """

    Fij: np.ndarray  # (N, n, n), dF/dU in chart coordinates
    first_order: np.ndarray  # (N, n)
    zero_order: np.ndarray  # (N,)
    matrix: sp.csr_matrix  # Jacobian over interior unknowns
    state: StateEval


def _principal_and_first_order(st: StateEval, prob: Problem):
    """F^{ij} = dF/dU and the first-order coefficient
    F^{ij} A^{ij}_{p_k} - psi_{p_k} at an admissible state."""
    if not st.admissible:
        bad = np.argwhere(~st.ok.reshape(prob.grid.interior_shape))
        raise NotAdmissible([tuple(int(v) + 1 for v in row) for row in bad])
    Fij = np.einsum("...ia,...a,...ja->...ij", st.V, st.fgrad, st.V)
    A_p, psi_p = prob.coeff.at(prob.x_interior, st.z, st.p, prob.g_interior, wrt="p")
    return Fij, np.einsum("...ij,...kij->...k", Fij, A_p) - psi_p


def linearize(state: StateEval, prob: Problem) -> LinearizedSystem:
    """Exact Jacobian of the discrete residual at an evaluated admissible
    iterate; `state` is the `evaluate_state` result of that iterate (its
    epsilon enters through the penalty derivative it holds)."""
    grid = prob.grid
    n = grid.n
    Fij, first_order = _principal_and_first_order(state, prob)
    A_z, psi_z = prob.coeff.at(prob.x_interior, state.z, state.p, prob.g_interior, wrt="z")
    zero_order = np.einsum("...ij,...ij->...", Fij, A_z) - psi_z - state.dbeta

    if prob.metric.is_flat:
        c1_stencil = first_order
    else:
        gamma = prob.metric.christoffel[grid.interior].reshape(-1, n, n, n)
        c1_stencil = first_order - np.einsum("...ij,...kij->...k", Fij, gamma)

    J = assemble_operator(grid, Fij, c1_stencil, zero_order)
    return LinearizedSystem(Fij=Fij, first_order=first_order,
                            zero_order=zero_order, matrix=J, state=state)


def assemble_operator(grid: ChartGrid, Fij: np.ndarray, c1: np.ndarray,
                      c0: np.ndarray | float) -> sp.csr_matrix:
    """Assemble sum_ij F^{ij} d_ij + sum_k c1_k d_k + c0 over interior
    unknowns with centered stencils; Dirichlet neighbors are dropped.

    Fij: (N, n, n); c1: (N, n); c0: (N,) or scalar.
    """
    n = grid.n
    h = grid.spacing
    N = grid.n_interior
    idx = grid.interior_index_map()
    c0 = np.broadcast_to(np.asarray(c0, dtype=float), (N,))
    rows_all, cols_all, data_all = [], [], []
    rows = np.arange(N)

    def push(offset, vals):
        cols = interior_shift(idx, offset).ravel()
        keep = cols >= 0
        rows_all.append(rows[keep])
        cols_all.append(cols[keep])
        data_all.append(vals[keep])

    center = c0.copy()
    for d in range(n):
        center -= 2.0 * Fij[:, d, d] / h[d] ** 2
    push((0,) * n, center)

    for d in range(n):
        for s in (+1, -1):
            off = [0] * n
            off[d] = s
            vals = Fij[:, d, d] / h[d] ** 2 + s * c1[:, d] / (2.0 * h[d])
            push(tuple(off), vals)

    for d in range(n):
        for e in range(d + 1, n):
            for sd in (+1, -1):
                for se in (+1, -1):
                    off = [0] * n
                    off[d], off[e] = sd, se
                    vals = sd * se * Fij[:, d, e] / (2.0 * h[d] * h[e])
                    push(tuple(off), vals)

    J = sp.coo_matrix(
        (np.concatenate(data_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(N, N),
    )
    return J.tocsr()


def operator_L(state: StateEval, prob: Problem, v: np.ndarray) -> np.ndarray:
    """Apply the first-order linear operator at an evaluated admissible state
    (the `evaluate_state` result of the iterate) to the field v:

        L v = F^{ij} (nabla^2 v)_{ij} + (F^{ij} A^{ij}_{p_k} - psi_{p_k}) d_k v

    (principal and first-order parts only, no zero-order term).  Returns an
    interior-shaped field.
    """
    grid = prob.grid
    n = grid.n
    Fij, c1 = _principal_and_first_order(state, prob)
    Hv = covariant_hessian(v, prob.metric, grid).reshape(-1, n, n)
    dv = gradient_centered(v, grid).reshape(-1, n)
    out = np.einsum("...ij,...ij->...", Fij, Hv) + np.einsum("...k,...k->...", c1, dv)
    return out.reshape(grid.interior_shape)


# ---------------------------------------------------------------------------
# coefficient certification
# ---------------------------------------------------------------------------

@dataclass
class CoefficientCertification:
    passed: bool
    checks: dict  # name -> worst slack (>= -CERTIFY_TOL means pass)
    witness: tuple | None
    failed_condition: str | None


def certify_coefficients(prob: Problem, samples: int = 200,
                         seed: int = 0) -> CoefficientCertification:
    """Sampling certification of the coefficient sign/concavity conditions:
    concavity of A^{xi xi} and of -psi in p, A^{xi xi}_z >= 0, -psi_z >= 0,
    and positivity of psi.

    Sampled over grid points, a z box around the boundary/subsolution range
    and a p ball; a certification, not a proof.
    """
    rng = np.random.default_rng(seed)
    grid = prob.grid
    n = grid.n
    pts = grid.points().reshape(-1, n)
    x = pts[rng.integers(0, pts.shape[0], size=samples)]
    zscale = 1.0 + 2.0 * max(1.0, float(np.abs(prob.phi).max()))
    if prob.subsolution is not None:
        zscale = max(zscale, 1.0 + 2.0 * float(np.abs(prob.subsolution).max()))
    z = rng.uniform(-zscale, zscale, size=samples)
    p = rng.uniform(-10.0, 10.0, size=(samples, n))
    g = np.broadcast_to(np.eye(n), (samples, n, n)) if prob.metric.is_flat else \
        prob.metric.g.reshape(-1, n, n)[rng.integers(0, pts.shape[0], size=samples)]

    checks = {}
    witness = None
    failed = None

    def record(name, slack):
        nonlocal witness, failed
        checks[name] = worst = float(np.min(slack))
        if worst < -CERTIFY_TOL and failed is None:
            i = int(np.argmin(slack))
            witness, failed = (x[i], z[i], p[i]), name

    A, psi = prob.coeff.at(x, z, p, g)
    record("psi > 0", psi - PSI_FLOOR)
    A_z, psi_z = prob.coeff.at(x, z, p, g, wrt="z")
    record("-psi_z >= 0", -psi_z)
    record("A^xx_z >= 0", np.linalg.eigvalsh(A_z)[:, 0])

    # concavity in p by random-direction second differences
    t = 1e-3 * (1.0 + np.linalg.norm(p, axis=1, keepdims=True))
    dp = rng.standard_normal((samples, n))
    dp /= np.linalg.norm(dp, axis=1, keepdims=True)
    scale2 = t.ravel() ** 2
    (A_pp, psi_pp), (A_pm, psi_pm) = (prob.coeff.at(x, z, q, g) for q in (p + t * dp, p - t * dp))
    # -psi concave in p means the second difference of psi is >= 0
    record("-psi concave in p", (psi_pp - 2.0 * psi + psi_pm) / scale2)

    xi = rng.standard_normal((samples, n))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)

    def quad(M):
        return np.einsum("...i,...ij,...j->...", xi, M, xi)

    record("A^xx concave in p", -(quad(A_pp) - 2.0 * quad(A) + quad(A_pm)) / scale2)

    return CoefficientCertification(passed=failed is None, checks=checks,
                                    witness=witness, failed_condition=failed)


# ---------------------------------------------------------------------------
# linear solves with the Laplace-Beltrami operator (initializer plumbing)
# ---------------------------------------------------------------------------

def laplace_beltrami_solve(grid: ChartGrid, metric: MetricField,
                           boundary_values: np.ndarray,
                           rhs: np.ndarray | float = 0.0) -> np.ndarray:
    """Solve g^{ij} (nabla^2 v)_{ij} = rhs with Dirichlet data; returns the
    full-grid field (boundary layer holds the data exactly)."""
    from scipy.sparse.linalg import spsolve

    n = grid.n
    N = grid.n_interior
    ginv = metric.ginv[grid.interior].reshape(-1, n, n)
    if metric.is_flat:
        c1 = np.zeros((N, n))
    else:
        gamma = metric.christoffel[grid.interior].reshape(-1, n, n, n)
        c1 = -np.einsum("...ij,...kij->...k", ginv, gamma)
    Lap = assemble_operator(grid, ginv, c1, 0.0)

    # move boundary contributions to the right side
    full = np.array(boundary_values, dtype=float, copy=True)
    full[grid.interior] = 0.0
    bc_field = _apply_full_operator(grid, ginv, c1, full)
    b = np.broadcast_to(np.asarray(rhs, dtype=float), (N,)) - bc_field
    v_int = spsolve(Lap, b)
    out = np.array(boundary_values, dtype=float, copy=True)
    out[grid.interior] = v_int.reshape(grid.interior_shape)
    return out


def _apply_full_operator(grid, Fij, c1, w):
    """Apply the plain-partial (Fij, c1) stencil operator to a full-grid
    field; this matches assemble_operator's discretization exactly."""
    from .geometry import hessian_centered

    n = grid.n
    Hw = hessian_centered(w, grid).reshape(-1, n, n)
    dw = gradient_centered(w, grid).reshape(-1, n)
    return np.einsum("...ij,...ij->...", Fij, Hw) + np.einsum("...k,...k->...", c1, dw)
