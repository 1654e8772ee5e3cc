"""Per-epsilon monitors of the quantities the a priori estimates bound, plus
pointwise audits of the key differential inequalities on solved states.

The audits compare, at every interior point x, the normals nu of the level
sets of f at mu(x) (from the subsolution) and lam(x) (from the solution).
Points split into case 1 (normal gap >= zeta0) where the supporting-plane
excess theta enters, and case 2 (gap < zeta0) where the diagonal bound on
F^{ii} and the plain concavity inequality apply.  Discrete audits tolerate
an O(h^2) slack band since the underlying inequalities hold for the
continuous solution.  The audit takes one solved state at a time: the
compact set K, zeta0 and the theta certificate of the sampled cone cloud are
built once per sweep by `theta_certificate` and shared by every epsilon.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MonitorError, NotAdmissible
from .geometry import ChartGrid, interior_shift
from .operator import (PENALTY_ROOT, PROBE_EPSILON, Problem, StateEval, _first_order,
                       evaluate_state, operator_L, spectrum, spectrum_gradient)
from .symfunc import SymmetricFunctionSpec, _row_norms, estimate_theta, sample_cone_points

__all__ = [
    "SolvedState",
    "solved_state",
    "NormBundle",
    "InequalityAudit",
    "ContactSet",
    "SweepReport",
    "compute_norm_bundle",
    "compact_set",
    "theta_certificate",
    "audit_inequalities",
    "extract_contact_set",
    "sweep_summary",
]


@dataclass
class SolvedState:
    """A solved field u at epsilon with its evaluated state and its pencil
    eigenvalues lam; the norm bundle and the audit of one epsilon both read
    it.  Df(lam), which only the audit reads, is computed on first use."""

    u: np.ndarray
    epsilon: float
    state: StateEval
    lam: np.ndarray
    fspec: SymmetricFunctionSpec = field(repr=False)

    @functools.cached_property
    def fg(self) -> np.ndarray:
        return spectrum_gradient(self.fspec, self.lam)


def solved_state(u: np.ndarray, prob: Problem, epsilon: float) -> SolvedState:
    """Evaluate an admissible solved state once for every monitor."""
    st = evaluate_state(u, prob, epsilon)
    if not st.admissible:
        raise NotAdmissible(st.flagged_points(prob.grid),
                            "monitors requested at a non-admissible state")
    return SolvedState(u, epsilon, st, spectrum(st, prob), prob.fspec)


@dataclass
class NormBundle:
    epsilon: float
    c0_norm: float  # max |u| over the closed chart
    grad_norm: float  # max |Du| (centered differences, interior)
    hess_norm: float  # max_i |lambda_i(nabla^2 u + A)| over interior points
    hess_entry_norm: float  # max |(nabla^2 u)_ij| in chart coordinates
    penalty_sup: float
    obstacle_violation: float  # max (u - h)_+
    bound_ok: bool  # violation <= (penalty_sup * eps)^(1/3) + 1e-12


def compute_norm_bundle(s: SolvedState, prob: Problem) -> NormBundle:
    """Uniform-estimate monitors of a solved state."""
    u, st, epsilon = s.u, s.state, s.epsilon
    grad_norm = float(_row_norms(st.p).max())
    hess_norm = float(np.abs(s.lam).max())
    hess_entry = float(np.abs(st.hess_cov).max())
    violation = float(np.maximum(u - prob.h, 0.0).max())
    penalty_sup = float(st.beta.max())
    bound_ok = violation <= (penalty_sup * epsilon) ** PENALTY_ROOT + 1e-12
    return NormBundle(
        epsilon=epsilon,
        c0_norm=float(np.abs(u).max()),
        grad_norm=grad_norm,
        hess_norm=hess_norm,
        hess_entry_norm=hess_entry,
        penalty_sup=penalty_sup,
        obstacle_violation=violation,
        bound_ok=bound_ok,
    )


# ---------------------------------------------------------------------------
# inequality audits
# ---------------------------------------------------------------------------

def compact_set(mu: np.ndarray, grad: np.ndarray):
    """The compact set K = {mu(x)} (deduplicated) of the subsolution's
    eigenvalue tuples mu, their unit normals nu_mu (N, n) from grad = Df(mu),
    and the default normal-gap threshold
    zeta0 = min(min nu_mu / 2, (1 - 1e-6) / (2 sqrt n))."""
    nu_mu = grad / _row_norms(grad)[:, None]
    zeta0 = float(min(nu_mu.min() / 2.0, (1.0 - 1e-6) / (2.0 * np.sqrt(mu.shape[1]))))
    return np.unique(np.round(mu, 12), axis=0), nu_mu, zeta0


def theta_certificate(u_sub: np.ndarray, prob: Problem, theta_samples: int, seed: int,
                      zeta: float | None = None, all_pairs: bool = True):
    """The epsilon-independent part of the audit, (K, nu_mu, cloud
    certificate, u_sub): the compact set K and normals nu_mu of the
    subsolution u_sub (`compact_set`), the theta certificate of a cone
    cloud of `theta_samples` points drawn with `seed` at normal-gap
    threshold zeta (zeta0 by default; the certificate's `zeta` is the one
    used), and u_sub itself.  The spectrum of u_sub does not depend on
    epsilon, so its `solved_state` is taken at PROBE_EPSILON.
    all_pairs=False gives `estimate_theta`'s theta-only scan, which is all
    the audit reads.

    An inadmissible subsolution raises NotAdmissible naming its points.
    Its spectrum is tested once more, by the cone rule on the pencil
    eigenvalues, and rows outside by that rule alone have no normal: they
    raise MonitorError naming their points, as does a zeta not above 0."""
    try:
        sub = solved_state(u_sub, prob, PROBE_EPSILON)
    except NotAdmissible as exc:
        raise NotAdmissible(exc.points, "subsolution not admissible, cannot form the compact set"
                            ) from None
    K, nu_mu, zeta0 = compact_set(sub.lam, sub.fg)
    if not np.isfinite(nu_mu).all():
        points = prob.grid.interior_indices(~np.isfinite(nu_mu).all(axis=1))
        raise MonitorError(
            "subsolution eigenvalues outside the cone, though its Newton tensors are inside, "
            f"at {len(points)} interior points (first: {points[:3]})")
    zeta = zeta0 if zeta is None else zeta
    if not zeta > 0.0:
        raise MonitorError("zeta0 not positive: subsolution normals degenerate")
    lam_rand = sample_cone_points(prob.fspec, theta_samples, seed)
    return K, nu_mu, estimate_theta(prob.fspec, K, zeta, lam_rand, all_pairs=all_pairs), u_sub


@dataclass
class InequalityAudit:
    epsilon: float
    zeta0: float
    theta_hat: float | None  # None = vacuous (no sampled pair met the premise)
    case1_points: int
    case2_points: int
    worst_slack_case1: float  # min over case-1 points, must be >= -tol_audit
    worst_slack_case2: float  # min over case-2 points of the order-zero bound
    worst_slack_diag: float  # min over case-2 points of the F^{ii} lower bound
    fprime_worst: float  # sharp diagonal-bound slack; exactly 0 for linear f
    tol_audit: float
    violations: int


def audit_inequalities(s: SolvedState, prob: Problem, certificate: tuple,
                       c_audit: float) -> InequalityAudit:
    """Audit the two-case differential inequalities on one SolvedState
    against the subsolution usub that `certificate` was built from.

    Case 1 (normal gap >= zeta0):
        L(usub - u) + beta_eps(u - h) >= (theta_hat/2) (1 + sum f_i) - tol
    Case 2 (gap < zeta0):
        min_i f_i >= (zeta0/sqrt(n)) sum f_i - tol       (diagonal bound)
        L(usub - u) + beta_eps(u - h) >= -tol            (order-zero bound)

    `certificate` is the (K, nu_mu, cloud certificate, usub) that
    `theta_certificate` builds once per sweep; none of it depends on
    epsilon.  theta_hat is the minimum over the cloud together with the
    audited state's own eigenvalue field, which keeps the
    certificate coherent with the per-point audit; it is halved to keep
    sampling optimism out of the pass/fail line.  The state's rows are
    scanned for theta_hat alone, with the Df(lam) the SolvedState holds.
    fprime_worst records the diagonal bound with its sharp per-point
    constant min_i nu_i(lam)/sqrt(n) instead of zeta0/sqrt(n); for linear f
    this slack is identically zero.
    c_audit = 0 selects the audit band 10 * hess_norm * h^2.
    """
    n = prob.grid.n
    h2 = float(prob.grid.spacing.max()) ** 2
    K, nu_mu, cloud, u_sub = certificate
    zeta0 = cloud.zeta
    u, st, lam, fg = s.u, s.state, s.lam, s.fg
    nu = fg / _row_norms(fg)[:, None]
    sum_fi = sum(fg.T)
    min_fi = functools.reduce(np.minimum, fg.T)

    own_theta = estimate_theta(prob.fspec, K, zeta0, lam, fg, all_pairs=False).theta_hat
    thetas = [t for t in (cloud.theta_hat, own_theta) if t is not None]  # None = vacuous
    theta_hat = min(thetas) if thetas else None

    gap = _row_norms(nu_mu - nu)
    case1 = gap >= zeta0
    case2 = ~case1

    Lv = operator_L(prob.grid, st.Fij, _first_order(st, prob)[0], u_sub - u)
    beta = st.beta
    hess_norm = float(np.abs(lam).max())
    tol = (c_audit or 10.0 * hess_norm) * h2

    violations = 0
    if np.any(case1):
        if theta_hat is None:
            raise MonitorError("case-1 points present but theta certificate vacuous")
        s1 = Lv[case1] + beta[case1] - 0.5 * theta_hat * (1.0 + sum_fi[case1])
        worst1 = float(s1.min())
        violations += int(np.count_nonzero(s1 < -tol))
    else:
        worst1 = np.inf

    if np.any(case2):
        s2 = Lv[case2] + beta[case2]
        worst2 = float(s2.min())
        violations += int(np.count_nonzero(s2 < -tol))
        diag = min_fi[case2] - (zeta0 / np.sqrt(n)) * sum_fi[case2]
        worst_diag = float(diag.min())
        violations += int(np.count_nonzero(diag < -tol))
    else:
        worst2 = np.inf
        worst_diag = np.inf

    sharp = min_fi - (functools.reduce(np.minimum, nu.T) / np.sqrt(n)) * sum_fi
    return InequalityAudit(
        epsilon=s.epsilon,
        zeta0=zeta0,
        theta_hat=theta_hat,
        case1_points=int(case1.sum()),
        case2_points=int(case2.sum()),
        worst_slack_case1=worst1,
        worst_slack_case2=worst2,
        worst_slack_diag=worst_diag,
        fprime_worst=float(sharp.min()),
        tol_audit=tol,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# contact set
# ---------------------------------------------------------------------------

@dataclass
class ContactSet:
    tau: float
    mask: np.ndarray  # interior-shaped indicator of {u >= h - tau}
    interface: np.ndarray  # contact cells with a non-contact axis neighbor
    cells: int
    interface_cells: int


def extract_contact_set(
    u: np.ndarray,
    h: np.ndarray,
    grid: ChartGrid,
    epsilon: float,
    penalty_sup: float,
    hess_norm: float,
) -> ContactSet:
    """Indicator of the approximate contact set and its interface cells.

    The threshold combines the penalization depth (penalty_sup * eps)^(1/3)
    with a discretization band 2 h^2 * hess_norm.  The obstacle clears the
    boundary data (`build_runsetup` ensures h > phi there), so no contact
    cell may touch the chart boundary; that is asserted here (it mirrors the
    barrier argument's conclusion).
    """
    hmax = float(grid.spacing.max())
    tau = (max(penalty_sup, 0.0) * epsilon) ** PENALTY_ROOT + 2.0 * hmax**2 * hess_norm
    mask = (u[grid.interior] >= h[grid.interior] - tau)
    interface = np.zeros_like(mask)
    if mask.any():
        E = np.eye(grid.n, dtype=int)
        padded = np.pad(mask, 1, mode="constant", constant_values=False)
        neighbor_all = np.ones_like(mask, dtype=bool)
        for off in (*E, *-E):
            neighbor_all &= interior_shift(padded, off)
        interface = mask & ~neighbor_all
        edge = np.ones_like(mask)
        edge[grid.interior] = False
        if bool((mask & edge).any()):
            raise MonitorError(
                "contact set touches the chart boundary although h > phi there"
            )
    return ContactSet(
        tau=float(tau),
        mask=mask,
        interface=interface,
        cells=int(mask.sum()),
        interface_cells=int(interface.sum()),
    )


# ---------------------------------------------------------------------------
# sweep summary
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    rows: list  # one dict of norm bundle fields per epsilon
    ratios: dict  # max/min across the sweep per monitored field
    warnings: list  # field names whose ratio exceeds 2


def _ratio(values) -> float:
    vmax = max(values)
    vmin = min(values)
    if vmax == 0.0:
        return 1.0  # identically zero across the sweep: trivially uniform
    if vmin == 0.0:
        return float("inf")
    return vmax / vmin


def sweep_summary(bundles: list[NormBundle]) -> SweepReport:
    """Tabulate monitors against epsilon and flag non-uniform fields."""
    if not bundles:
        raise ValueError("sweep_summary needs at least one norm bundle")
    rows = [asdict(b) for b in bundles]
    fields = ["c0_norm", "grad_norm", "hess_norm", "penalty_sup"]
    ratios = {f: _ratio([r[f] for r in rows]) for f in fields}
    warnings = [f for f, v in ratios.items() if v > 2.0]
    return SweepReport(rows=rows, ratios=ratios, warnings=warnings)
