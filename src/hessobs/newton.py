"""Damped Newton with admissibility safeguard, and warm-started continuation
over a decreasing penalty schedule.

Each Newton step solves the exact sparse Jacobian system by LU in a
nested-dissection order of the interior grid, and backtracks with two
acceptance rules: (a) every interior point of the candidate stays inside
the cone with margin at least (1 - tau_ftb) times the current margin, and
(b) Armijo decrease of the squared residual norm.  The subsolution supplies a
safe start; warm starts carry each solution to the next epsilon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    LineSearchStall,
    MaxItersExceeded,
    NoAdmissibleStart,
    NotAdmissible,
    SingularJacobian,
)
from .geometry import pin_boundary
from .operator import Problem, laplace_beltrami_solve, linearize, residual

__all__ = [
    "PenaltySchedule",
    "NewtonConfig",
    "SolveReport",
    "ContinuationResult",
    "newton_solve",
    "continuation_solve",
    "default_initializer",
]


@dataclass(frozen=True)
class PenaltySchedule:
    eps0: float = 1e-1
    ratio: float = 0.1
    eps_min: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.eps0 < 1.0):
            raise ValueError("eps0 must lie in (0, 1)")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        if not (0.0 < self.eps_min <= self.eps0):
            raise ValueError("need 0 < eps_min <= eps0")

    def values(self) -> list[float]:
        """eps0 * ratio^k clipped at eps_min (eps_min always included)."""
        out = []
        e = self.eps0
        while e > self.eps_min * (1.0 + 1e-12):
            out.append(e)
            e *= self.ratio
        out.append(self.eps_min)
        return out


# line search: Armijo constant, step shrink factor, fraction-to-boundary
# tau_ftb, and the step below which the search stalls
ARMIJO_C = 1e-4
BACKTRACK = 0.5
FRACTION_TO_BOUNDARY = 0.99
STALL_STEP = 1e-10

# epsilon of the initializer's probes; their outcome does not depend on it:
# the subsolution is only checked for admissibility, and the paraboloid sits
# below the obstacle, where the penalty vanishes
_PROBE_EPSILON = 1e-1


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-8  # max-norm
    max_iters: int = 60

    def __post_init__(self):
        if self.tol_residual <= 0.0 or self.max_iters < 1:
            raise ValueError("tol_residual > 0 and max_iters >= 1 required")


@dataclass
class SolveReport:
    epsilon: float
    converged: bool
    iterations: int
    residual_history: list  # max-norm per iterate (including the start)
    residual_l2_history: list
    step_history: list  # accepted line-search steps
    margin_history: list
    final_margin: float
    subsolution_dominance: float | None  # min(u - subsolution) if available


@dataclass
class ContinuationResult:
    epsilons: list
    solutions: list  # one full-grid field per epsilon
    reports: list  # SolveReport per epsilon

    @property
    def final(self) -> np.ndarray:
        return self.solutions[-1]


def newton_solve(u0: np.ndarray, prob: Problem, epsilon: float,
                 cfg: NewtonConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton on the penalized residual at fixed epsilon.

    u0 must be admissible at every interior point and hold the Dirichlet data
    on the boundary layer; both are enforced here.
    """
    cfg = cfg or NewtonConfig()
    grid = prob.grid
    u = pin_boundary(grid, u0, prob.phi)
    res = residual(u, prob, epsilon)
    if not res.admissible:
        raise NotAdmissible(res.flagged_points(grid), "initial iterate not admissible")

    rnorm = float(np.abs(res.values).max())
    rl2sq = float((res.values.ravel() ** 2).sum())
    hist = [rnorm]
    hist_l2 = [np.sqrt(rl2sq)]
    steps, margins = [], [res.margin]

    for it in range(1, cfg.max_iters + 1):
        if rnorm <= cfg.tol_residual:
            break
        lin = linearize(res.state, prob)
        delta_int = _linear_solve(lin.matrix, -res.values.ravel(), grid.interior_shape)
        delta = np.zeros(grid.shape)
        delta[grid.interior] = delta_int.reshape(grid.interior_shape)

        margin_floor = (1.0 - FRACTION_TO_BOUNDARY) * res.margin
        t = 1.0
        accepted = None
        while t >= STALL_STEP:
            cand = u + t * delta
            cres = residual(cand, prob, epsilon)
            if cres.admissible and cres.margin >= margin_floor:
                cl2sq = float((cres.values.ravel() ** 2).sum())
                if cl2sq <= (1.0 - 2.0 * ARMIJO_C * t) * rl2sq:
                    accepted = (cand, cres, cl2sq, t)
                    break
            t *= BACKTRACK
        if accepted is None:
            raise LineSearchStall(t, rnorm, res.margin)
        u, res, rl2sq, t_used = accepted
        rnorm = float(np.abs(res.values).max())
        hist.append(rnorm)
        hist_l2.append(np.sqrt(rl2sq))
        steps.append(t_used)
        margins.append(res.margin)

    converged = rnorm <= cfg.tol_residual
    dom = None
    if prob.subsolution is not None:
        dom = float((u - prob.subsolution).min())
    report = SolveReport(
        epsilon=epsilon,
        converged=converged,
        iterations=len(steps),
        residual_history=hist,
        residual_l2_history=hist_l2,
        step_history=steps,
        margin_history=margins,
        final_margin=res.margin,
        subsolution_dominance=dom,
    )
    if not converged:
        err = MaxItersExceeded(cfg.max_iters, rnorm)
        err.best_iterate = u
        err.report = report
        raise err
    return u, report


@functools.lru_cache(maxsize=8)
def _nested_dissection(shape: tuple) -> np.ndarray:
    """Fill-reducing order of the C-ordered unknowns of a grid block (George's
    nested dissection): bisect the longest axis at its middle plane, order the
    two halves recursively and the separator plane after them.  A block whose
    longest side is below 3 has no separator and keeps its natural order.  A
    plane separates both the 9-point (2d) and the 19-point (3d) stencil.  The
    order depends only on the shape (one per sweep), so it is cached and
    read-only."""
    pieces = []

    def dissect(block):
        axis = int(np.argmax(block.shape))
        k = block.shape[axis]
        if k < 3:
            pieces.append(block.ravel())
            return
        low, separator, high = np.split(block, [k // 2, k // 2 + 1], axis=axis)
        dissect(low)
        dissect(high)
        pieces.append(separator.ravel())

    dissect(np.arange(int(np.prod(shape))).reshape(shape))
    order = np.concatenate(pieces)
    order.flags.writeable = False
    return order


def _linear_solve(J, b: np.ndarray, shape: tuple) -> np.ndarray:
    """x = J^{-1} b over the interior unknowns of a grid of `shape`.

    J and b are permuted symmetrically into nested-dissection order, so
    SuperLU factors with that column order (NATURAL) and its default
    partial pivoting; J is not symmetric in general.  A singular or
    non-finite solve raises SingularJacobian.
    """
    order = _nested_dissection(shape)
    try:
        with np.errstate(all="raise"):
            y = spla.spsolve(J[order][:, order].tocsc(), b[order], permc_spec="NATURAL")
    except (RuntimeError, FloatingPointError) as exc:
        raise SingularJacobian(str(exc)) from exc
    if not np.all(np.isfinite(y)):
        raise SingularJacobian("non-finite Newton direction")
    x = np.empty_like(y)
    x[order] = y
    return x


def continuation_solve(prob: Problem, schedule: PenaltySchedule | None = None,
                       cfg: NewtonConfig | None = None,
                       u0: np.ndarray | None = None) -> ContinuationResult:
    """Solve along the decreasing epsilon schedule with warm starts.

    The first epsilon starts from `u0` (or the default initializer); each
    later epsilon starts from the previous solution.  Solver errors carry the
    epsilon at which they occurred and the solutions and reports of the
    epsilons finished before it.
    """
    schedule = schedule or PenaltySchedule()
    cfg = cfg or NewtonConfig()
    eps_values = schedule.values()
    u = u0 if u0 is not None else default_initializer(prob)
    sols, reports = [], []
    for eps in eps_values:
        try:
            u, rep = newton_solve(u, prob, eps, cfg)
        except Exception as exc:
            exc.epsilon, exc.solutions, exc.reports = eps, sols, reports
            raise
        sols.append(u)
        reports.append(rep)
    return ContinuationResult(epsilons=eps_values, solutions=sols, reports=reports)


def default_initializer(prob: Problem) -> np.ndarray:
    """Admissible initial iterate matching the Dirichlet data.

    If the problem supplies a subsolution it is pinned and admissibility
    checked.  Otherwise a paraboloid q(x) = a |x - x_c|^2 / 2 + b is grown
    until f(lam(nabla^2 q + A[q])) >= psi[q] everywhere, b is set so that
    q <= min(phi, h), and the Dirichlet mismatch is blended in with the
    solution of the Laplace-Beltrami problem L0 v = 0, v = phi - q on the
    boundary.  The blended iterate is admissibility-checked; failure of both
    paths raises NoAdmissibleStart (a subsolution is then required input).
    """
    grid = prob.grid
    if prob.subsolution is not None:
        u0 = pin_boundary(grid, prob.subsolution, prob.phi)
        res = residual(u0, prob, _PROBE_EPSILON)
        if not res.admissible:
            raise NoAdmissibleStart(
                f"supplied subsolution leaves the cone at {len(res.flagged_points(grid))} points"
            )
        return u0

    pts = grid.points()
    center = np.array([(lo + hi) / 2.0 for lo, hi in zip(grid.lo, grid.hi)])
    rsq = ((pts - center) ** 2).sum(axis=-1)
    target = np.minimum(prob.phi, prob.h)
    a = 1.0
    while a <= 2.0**20:
        b = float((target - 0.5 * a * rsq).min()) - 1e-9
        q = 0.5 * a * rsq + b
        rq = residual(pin_boundary(grid, q, q), prob, _PROBE_EPSILON)
        if rq.admissible and rq.values.min() >= 0.0:
            v = laplace_beltrami_solve(grid, prob.metric, prob.phi - q)
            u0 = pin_boundary(grid, q + v, prob.phi)
            r0 = residual(u0, prob, _PROBE_EPSILON)
            if r0.admissible:
                return u0
        a *= 2.0
    raise NoAdmissibleStart(
        "built-in paraboloid/blend initializer failed; supply a subsolution"
    )
