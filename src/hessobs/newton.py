"""Damped Newton with admissibility safeguard, and predictor-corrector
continuation over a decreasing penalty schedule.

Each Newton step factors the exact sparse Jacobian once, by LU in a
nested-dissection order of the interior grid, and solves it for two
right-hand sides: the Newton direction and the path tangent du/deps.  It
backtracks with two acceptance rules: (a) every interior point of the
candidate stays inside the cone with margin at least (1 - tau_ftb) times the
current margin, and (b) Armijo decrease of the squared residual norm.  The
subsolution supplies a safe start.  Each later epsilon starts from a
prediction along the solution path in s = eps^(1/3), the scale of the cubic
penalty's solutions ((u - h)_+ ~ eps^(1/3)): an Euler step from the first
solution, and from the second on the cubic Hermite extrapolation through
the last two solutions and their tangents.  The previous solution (warm
start) is the fallback when the prediction is inadmissible or no closer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
from .operator import (
    PENALTY_ROOT,
    Problem,
    ResidualResult,
    StateEval,
    laplace_beltrami_solve,
    linearize,
    penalty,
    residual,
)

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
    rejected_margin: int  # line-search trials rejected for cone margin
    rejected_armijo: int  # line-search trials rejected by the Armijo rule
    # how continuation_solve chose the start: "initial", "predictor" or "warm_start"
    start: str = "initial"
    # evaluated state of the returned iterate, and the path tangent du/deps
    # over the interior solved with the last Newton step's factorization (at
    # the iterate before it; None without a step); continuation_solve takes
    # both for the predictor and releases them
    final_state: StateEval | None = field(default=None, repr=False, compare=False)
    tangent: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class ContinuationResult:
    epsilons: list
    solutions: list  # one full-grid field per epsilon
    reports: list  # SolveReport per epsilon

    @property
    def final(self) -> np.ndarray:
        return self.solutions[-1]


def newton_solve(u0: np.ndarray, prob: Problem, epsilon: float,
                 cfg: NewtonConfig | None = None,
                 res0: ResidualResult | None = None) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton on the penalized residual at fixed epsilon.

    u0 must be admissible at every interior point and hold the Dirichlet data
    on the boundary layer; both are enforced here.  `res0`, when given, is
    the residual of u0 at epsilon that the caller has evaluated; it is taken
    as the start residual, so u0 must hold the Dirichlet data exactly.
    """
    cfg = cfg or NewtonConfig()
    grid = prob.grid
    u = pin_boundary(grid, u0, prob.phi)
    res = res0 if res0 is not None else residual(u, prob, epsilon)
    if not res.admissible:
        raise NotAdmissible(res.flagged_points(grid), "initial iterate not admissible")

    rnorm = float(np.abs(res.values).max())
    rl2sq = float((res.values.ravel() ** 2).sum())
    hist = [rnorm]
    hist_l2 = [np.sqrt(rl2sq)]
    steps, margins = [], [res.margin]
    rejected_margin = rejected_armijo = 0
    tangent = None

    for it in range(1, cfg.max_iters + 1):
        if rnorm <= cfg.tol_residual:
            break
        J = linearize(res.state, prob)
        # at fixed u the residual moves with epsilon by dF/deps = beta / eps,
        # so the path tangent solves J du/deps = -beta / eps
        rhs = np.stack([-res.values.ravel(), -res.state.beta / epsilon], axis=1)
        x = _linear_solve(J, rhs, grid.interior_shape)
        delta = _on_grid(grid, x[:, 0])
        tangent = x[:, 1]

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
                rejected_armijo += 1
            else:
                rejected_margin += 1
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
        rejected_margin=rejected_margin,
        rejected_armijo=rejected_armijo,
        final_state=res.state,
        tangent=tangent,
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

    b holds one right-hand side (N,) or several as columns (N, k); all are
    solved with one factorization.  J and b are permuted symmetrically into
    nested-dissection order, so SuperLU factors with that column order
    (NATURAL) and its default partial pivoting; J is not symmetric in
    general.  A singular or non-finite solve raises SingularJacobian.
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


def _on_grid(grid, interior_values: np.ndarray) -> np.ndarray:
    """Full-grid field with the given interior values and a zero boundary layer."""
    out = np.zeros(grid.shape)
    out[grid.interior] = interior_values.reshape(grid.interior_shape)
    return out


def _path_point(u: np.ndarray, tangent: np.ndarray | None, eps: float, grid):
    """(s, u, du/ds) at s = eps^PENALTY_ROOT from the solution u and its
    interior tangent du/deps, or None without a tangent."""
    if tangent is None:
        return None
    s = eps**PENALTY_ROOT
    return s, u, (eps / (PENALTY_ROOT * s)) * _on_grid(grid, tangent)  # deps/ds du/deps


def _predict(s_next: float, point: tuple, previous: tuple | None = None) -> np.ndarray:
    """Prediction at s_next from path points (s, u, du/ds).

    With `point` alone it is the Euler step u + (s_next - s) du/ds.  With
    the `previous` point it is the cubic Hermite polynomial through both
    points' values and slopes, extrapolated to s_next.
    """
    s, u, du = point
    if previous is None:
        return u + (s_next - s) * du
    s0, u0, du0 = previous
    h = s - s0
    t = (s_next - s0) / h  # 0 at s0, 1 at s
    # Hermite basis in t: h00 on u0 and 1 - h00 on u, h10 and h11 on h du0 and h du
    return (u + (2.0 * t**3 - 3.0 * t**2 + 1.0) * (u0 - u)
            + h * (t**3 - 2.0 * t**2 + t) * du0 + h * (t**3 - t**2) * du)


def _predicted_start(u: np.ndarray, state: StateEval, prob: Problem, eps_next: float,
                     point: tuple | None, previous: tuple | None
                     ) -> tuple[np.ndarray, str, ResidualResult | None]:
    """Start for eps_next from the solution u, its evaluated state and the
    path points (s, u, du/ds) of `_path_point` at its epsilon and the one
    before (each None without a tangent).

    The prediction is `_predict` at s_next = eps_next^PENALTY_ROOT, a step in
    the variable along which the solution is smooth.  It is used only if it
    is admissible at eps_next and its residual max-norm there is below that
    of u; otherwise u itself is the (warm) start.  Returns the start, how it
    was chosen and, for a prediction, its residual at eps_next.
    """
    # no tangent, or the penalty is inactive and the tangent is zero
    if point is None or not state.beta.any():
        return u, "warm_start", None
    pred = _predict(eps_next**PENALTY_ROOT, point, previous)
    # u's residual at eps_next differs from its state's only in the penalty
    warm = state.fval - state.psi - penalty(eps_next, state.z - prob.h_interior)[0]
    pres = residual(pred, prob, eps_next)
    if pres.admissible and np.abs(pres.values).max() < np.abs(warm).max():
        return pred, "predictor", pres
    return u, "warm_start", None


def continuation_solve(prob: Problem, schedule: PenaltySchedule | None = None,
                       cfg: NewtonConfig | None = None,
                       u0: np.ndarray | None = None) -> ContinuationResult:
    """Solve along the decreasing epsilon schedule by predictor-corrector
    continuation.

    The first epsilon starts from `u0` (or the default initializer).  Each
    later epsilon starts from the prediction of `_predicted_start`: an Euler
    step from the first solution, and from the third epsilon on the cubic
    Hermite extrapolation through the last two solutions.  Their tangents
    come out of the Newton solves, which factor each Jacobian once for the
    step and the tangent.  The previous solution itself is the start when
    the prediction is not better; the report records which in `start`.  A
    prediction's residual, evaluated for that comparison, is the Newton
    solve's start residual.  The state of one epsilon is released once the
    next start is chosen, its tangent after the start after that.  Solver
    errors carry the epsilon at which they occurred and the solutions and
    reports of the epsilons finished before it.
    """
    schedule = schedule or PenaltySchedule()
    cfg = cfg or NewtonConfig()
    eps_values = schedule.values()
    u = u0 if u0 is not None else default_initializer(prob)
    sols, reports = [], []
    state = point = previous = None
    for k, eps in enumerate(eps_values):
        start, res0 = "initial", None
        try:
            if k:
                u, start, res0 = _predicted_start(u, state, prob, eps, point, previous)
                state = None
            u, rep = newton_solve(u, prob, eps, cfg, res0)
        except Exception as exc:
            if isinstance(exc, MaxItersExceeded):
                exc.report.start = start
            exc.epsilon, exc.solutions, exc.reports = eps, sols, reports
            raise
        rep.start = start
        state, rep.final_state = rep.final_state, None
        previous, point = point, _path_point(u, rep.tangent, eps, prob.grid)
        rep.tangent = None
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
