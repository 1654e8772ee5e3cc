"""Damped Newton with admissibility safeguard, and predictor-corrector
continuation over a decreasing penalty schedule.

Each Newton step solves the exact sparse Jacobian for the Newton
direction by flexible GMRES preconditioned by one geometric multigrid
V-cycle, one V-cycle application per iteration, to the inexact-Newton
relative tolerance min(0.1, max(|F|_inf / sqrt(N), 0.5 tol / |F|_2)): the
second term stops a step once its linearised residual is below tol / 2,
which is all the Newton test on |F|_inf needs.  The V-cycle is set up once
per epsilon, from the first Newton step's Jacobian, and preconditions every
later step of that epsilon: GMRES runs on each step's own Jacobian and
checks its true residual, so only the preconditioner lags.
The continuation solves the path tangent du/deps of each epsilon but the
last with its last Newton step's Jacobian and V-cycle, to the fixed relative
residual TANGENT_RTOL: it only feeds the next epsilon's predictor.
GMRES and the V-cycle also solve the default initializer's harmonic lift;
they are the package's only sparse solver.  Newton backtracks with two
acceptance rules: (a) every interior point of the candidate stays inside
the cone with margin at least (1 - tau_ftb) times the current margin, and
(b) Armijo decrease of the squared residual norm.  The subsolution
supplies a safe start.  The first epsilon is solved by nested iteration
(Briggs, Henson and McCormick, A Multigrid Tutorial, 2nd ed., ch. 3) on
the grids of every other point that are levels of the V-cycle: the
coarsest solve runs from the injected start, and each finer level starts
from the cubic interpolant of the level below, when that is admissible and
closer than the start.  Each later epsilon starts from a prediction along
the solution path in s = eps^(1/3), the scale of the cubic penalty's
solutions ((u - h)_+ ~ eps^(1/3)): an Euler step from the first solution,
and from the second on the cubic Hermite extrapolation through the last two
solutions and their tangents.  The previous solution (warm start) is the
fallback when the prediction is inadmissible or no closer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    HessObsError,
    LineSearchStall,
    MaxItersExceeded,
    NoAdmissibleStart,
    NotAdmissible,
    SingularJacobian,
)
from .geometry import ChartGrid, MetricField, add_christoffel_term, derivative_to_chart, pin_boundary
from .operator import (
    PENALTY_ROOT,
    PROBE_EPSILON,
    Problem,
    StateEval,
    assemble_operator,
    linearize,
    operator_L,
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
    "laplace_beltrami_solve",
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


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-8  # max-norm
    max_iters: int = 60

    def __post_init__(self):
        if not 0.0 < self.tol_residual < np.inf or self.max_iters < 1:  # also NaN
            raise ValueError("0 < tol_residual < inf and max_iters >= 1 required")


@dataclass
class SolveReport:
    epsilon: float
    converged: bool
    iterations: int
    residual_history: list  # max-norm per iterate (including the start)
    residual_l2_history: list
    step_history: list  # accepted line-search steps
    margin_history: list  # its last entry is the returned iterate's margin
    subsolution_dominance: float | None  # min(u - subsolution) if available
    rejected_margin: int  # line-search trials rejected for cone margin
    rejected_armijo: int  # line-search trials rejected by the Armijo rule
    krylov_iterations: int  # GMRES iterations, with a continuation's tangent
    # how continuation_solve chose the start: "initial", "nested", "predictor"
    # or "warm_start"
    start: str = "initial"
    # of a "nested" start, the coarse solves it came from, coarsest first:
    # [m, Newton steps, Krylov iterations] per level, m the level's points per axis
    nested_levels: list = field(default_factory=list)
    # evaluated state of the returned iterate and, after convergence, the
    # last Newton step's (J, beta at the iterate J was taken at, V-cycle);
    # continuation_solve takes both for the predictor and releases them
    final_state: StateEval | None = field(default=None, repr=False, compare=False)
    last_step: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class ContinuationResult:
    epsilons: list
    solutions: list  # one full-grid field per epsilon
    reports: list  # SolveReport per epsilon
    start: np.ndarray  # the first epsilon's start, from default_initializer

    @property
    def final(self) -> np.ndarray:
        return self.solutions[-1]


def newton_solve(u0: np.ndarray, prob: Problem, epsilon: float,
                 cfg: NewtonConfig | None = None,
                 res0: StateEval | None = None) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton on the penalized residual at fixed epsilon.

    u0 must be admissible at every interior point and hold the Dirichlet data
    on the boundary layer; both are enforced here.  `res0`, when given, is
    the state of u0 at epsilon that the caller has evaluated with `residual`;
    it is taken as the start, so u0 must hold the Dirichlet data exactly.
    """
    cfg = cfg or NewtonConfig()
    grid = prob.grid
    u = pin_boundary(grid, u0, prob.phi)
    res = res0 if res0 is not None else residual(u, prob, epsilon)
    if not res.admissible:
        raise NotAdmissible(res.flagged_points(grid), "initial iterate not admissible")

    rnorm = float(np.abs(res.values).max())
    with np.errstate(over="ignore"):  # an overflowing residual squares to inf
        rl2sq = float((res.values ** 2).sum())
    hist = [rnorm]
    hist_l2 = [np.sqrt(rl2sq)]
    steps, margins = [], [res.margin]
    rejected_margin = rejected_armijo = krylov = 0
    cycle = None  # V-cycle of the first Newton step's Jacobian
    last_step = None

    for it in range(1, cfg.max_iters + 1):
        if rnorm <= cfg.tol_residual:
            break
        J = linearize(res, prob)
        if cycle is None:
            cycle = _v_cycle(J, grid.interior_shape)
        rtol = _forcing(rnorm, np.sqrt(rl2sq), J.shape[0], cfg.tol_residual)
        last_step = (J, res.beta, cycle)
        x, k = _linear_solve(J, cycle, -res.values, rtol)
        krylov += k
        delta = _on_grid(grid, x)

        margin_floor = (1.0 - FRACTION_TO_BOUNDARY) * res.margin
        t = 1.0
        accepted = None
        while t >= STALL_STEP:
            cand = u + t * delta
            cres = residual(cand, prob, epsilon)
            if cres.admissible and cres.margin >= margin_floor:
                with np.errstate(over="ignore"):
                    cl2sq = float((cres.values ** 2).sum())
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
    dom = None if prob.subsolution is None else float((u - prob.subsolution).min())
    report = SolveReport(
        epsilon=epsilon,
        converged=converged,
        iterations=len(steps),
        residual_history=hist,
        residual_l2_history=hist_l2,
        step_history=steps,
        margin_history=margins,
        subsolution_dominance=dom,
        rejected_margin=rejected_margin,
        rejected_armijo=rejected_armijo,
        krylov_iterations=krylov,
        final_state=res,
        last_step=last_step if converged else None,
    )
    if not converged:
        err = MaxItersExceeded(cfg.max_iters, rnorm)
        err.best_iterate = u
        err.report = report
        raise err
    return u, report


# linear solve: flexible GMRES preconditioned by one multigrid V-cycle, one
# V-cycle application per iteration.  A level with more than COARSE_N
# unknowns is coarsened, and the coarsest is solved directly, so on a grid
# of at most COARSE_N unknowns the V-cycle is the LU factor of the
# epsilon's first Jacobian: the exact solve of its first step and a
# preconditioner of its later ones.  Over the 2 to 6 Newton steps of
# one epsilon (one set-up, GMRES on each step's Jacobian; the first epsilon
# of ma_obstacle and of its 3d lift, 2-core box), the natural-order LU and a
# V-cycle with one coarsening break even at about 360 to 730 unknowns in 2d
# and 220 to 340 in 3d.  Natural order loses to COLAMD above about 1,000
# unknowns, so it suits a coarsest level of this size only.  Each level is
# smoothed by SMOOTHING_SWEEPS damped Jacobi sweeps (weight JACOBI_WEIGHT)
# before and after its coarse correction.  A Newton step with residual
# max-norm r and 2-norm r2 over N unknowns solves to relative residual
# min(FORCING_MAX, max(r / sqrt(N), FORCING_SAFEGUARD tol / r2)) (inexact
# Newton, with the safeguard of Eisenstat and Walker 1996 and Kelley 1995,
# section 6.3).  The safeguard term asks for no linearised residual below
# FORCING_SAFEGUARD tol in the 2-norm, which bounds the max-norm of the
# Newton test too; without it the last step of an epsilon would solve to
# about 1e-8 relative.  GMRES checks the true residual, so the step still
# gets what it asks for.  On the bundled sweeps and their 3d lift the
# safeguard kept the Newton steps per epsilon and cut a sweep's GMRES
# iterations by 20 to 30 %.  GMRES restarts every GMRES_RESTART iterations, at most GMRES_CYCLES
# times.  The default initializer's harmonic lift is solved to relative
# residual LIFT_RTOL, near roundoff, so that the start it gives is the
# direct solve's.  The path tangent only feeds the next epsilon's
# predictor, which need only land in Newton's basin, so it is solved to
# relative residual TANGENT_RTOL: on the bundled sweeps 1e-2 or looser
# changed the Newton steps per epsilon, while 1e-3 changed none and cut a
# sweep's GMRES iterations by about a fifth against the last Newton step's
# tolerance before the safeguard (about 1e-8).
COARSE_N = 500
SMOOTHING_SWEEPS = 2
JACOBI_WEIGHT = 0.7
FORCING_MAX = 0.1
FORCING_SAFEGUARD = 0.5
GMRES_RESTART = 20
GMRES_CYCLES = 10
LIFT_RTOL = 1e-12
TANGENT_RTOL = 1e-3


def _forcing(rnorm: float, rnorm_l2: float, n: int, tol: float) -> float:
    """Relative residual to which a Newton step solves its linear system,
    from the residual's max-norm and 2-norm over n unknowns and the Newton
    tolerance `tol`: min(FORCING_MAX, max(rnorm / sqrt(n),
    FORCING_SAFEGUARD tol / rnorm_l2))."""
    return min(FORCING_MAX, max(rnorm / np.sqrt(n), FORCING_SAFEGUARD * tol / rnorm_l2))


def _interpolation(k: int) -> sp.csr_matrix:
    """Linear interpolation from k // 2 coarse to k fine points of one axis
    (Dirichlet ends): coarse point j sits at fine point 2j + 1."""
    j = np.arange(k // 2)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    cols = np.concatenate([j, j, j])
    vals = np.concatenate([np.ones(j.size), np.full(2 * j.size, 0.5)])
    keep = rows < k
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(k, k // 2))


@functools.lru_cache(maxsize=8)
def _hierarchy(shape: tuple) -> tuple:
    """The multigrid levels below a grid block of C-ordered unknowns: one
    (coarse shape, P, R) per coarsening, with P the tensor product of the
    axes' linear interpolation and R = P^T / 2^n.  A level is coarsened
    while it has more than COARSE_N unknowns and every axis at least 3
    points.  It depends only on the shape (one per sweep), so it is cached
    and read-only."""
    levels = []
    while int(np.prod(shape)) > COARSE_N and min(shape) >= 3:
        P = functools.reduce(lambda a, b: sp.kron(a, b, format="csr"),
                             [_interpolation(k) for k in shape])
        R = (P.T / 2 ** len(shape)).tocsr()
        for M in (P, R):
            for a in (M.data, M.indices, M.indptr):
                a.flags.writeable = False
        shape = tuple(k // 2 for k in shape)
        levels.append((shape, P, R))
    return tuple(levels)


def _v_cycle(J, shape: tuple):
    """One V-cycle for J over the interior unknowns of a grid of `shape`, as
    a function of the right-hand side; `newton_solve` builds one per epsilon
    and preconditions that epsilon's later Jacobians with it.  Coarse
    operators are the Galerkin products R A P.  The coarsest level, J
    itself on a grid without levels, is factored by sparse LU in natural
    order: lexicographic order on a small structured grid is already banded,
    so a fill-reducing ordering costs more than it saves.  A zero or
    non-finite diagonal on a smoothed level, or a singular coarsest level,
    raises SingularJacobian."""
    transfers = _hierarchy(shape)
    ops = [J]
    for _, P, R in transfers:
        ops.append(R @ ops[-1] @ P)
    weights = []
    for A in ops[:-1]:
        d = A.diagonal()
        if not np.all(np.isfinite(d) & (d != 0.0)):
            raise SingularJacobian("zero or non-finite Jacobian diagonal")
        weights.append(JACOBI_WEIGHT / d)
    try:
        coarse = spla.splu(ops[-1].tocsc(), permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SingularJacobian(str(exc)) from exc

    levels = list(zip(ops, weights, transfers))

    def residual(A, x, b):
        # b - A x in the buffer of A x
        r = A @ x
        return np.subtract(b, r, out=r)

    def smooth(A, w, x, b):
        # x += w (b - A x), with no temporary besides A x
        r = residual(A, x, b)
        r *= w
        x += r

    def cycle(b):
        # down: pre-smooth from zero and restrict the residual, level by level
        down = []
        for A, w, (_, _, R) in levels:
            x = w * b
            for _ in range(SMOOTHING_SWEEPS - 1):
                smooth(A, w, x, b)
            down.append((x, b))
            b = R @ residual(A, x, b)
        x = coarse.solve(b)
        # up: add the prolonged correction and post-smooth
        for (A, w, (_, P, _)), (x_fine, b) in zip(levels[::-1], down[::-1]):
            x = P @ x
            x += x_fine
            for _ in range(SMOOTHING_SWEEPS):
                smooth(A, w, x, b)
        return x

    return cycle


def _linear_solve(J, cycle, b: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Solve J x = b over the interior unknowns to ||J x - b||_2 <= rtol
    ||b||_2; returns x and the GMRES iterations it took.

    Restarted flexible GMRES runs on J, preconditioned by the V-cycle
    `cycle` of `_v_cycle`, which may have been built from an earlier
    Jacobian, with one V-cycle application per iteration; a zero b gives
    zero without applying it.  J is not symmetric in general.  Each restart
    cycle of `_gmres_cycle` adds its correction to x and recomputes the true
    residual b - J x; the solve stops once that is at most rtol ||b||_2.
    With the V-cycle built from J on a grid without levels, it is the exact
    solve and one iteration solves.  A singular V-cycle or Hessenberg matrix, a
    floating-point error, a non-finite x or a true residual still above
    rtol ||b||_2 after GMRES_CYCLES cycles raises SingularJacobian.  The
    last is how a singular J under a V-cycle of an earlier Jacobian fails:
    no correction reaches the part of b outside J's range.
    """
    x = np.zeros(b.shape)
    iterations = 0
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            r, rnorm = b, np.linalg.norm(b)
            if rnorm == 0.0:
                return x, 0
            target = rtol * rnorm
            for _ in range(GMRES_CYCLES):
                dx, k = _gmres_cycle(J, cycle, r, rnorm, target)
                x += dx
                iterations += k
                r = b - J @ x
                rnorm = np.linalg.norm(r)
                if rnorm <= target:
                    break
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SingularJacobian(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularJacobian("non-finite Newton direction")
    if not rnorm <= target:
        raise SingularJacobian(f"GMRES missed relative residual {rtol:.1e}")
    return x, iterations


def _gmres_cycle(J, M, r: np.ndarray, rnorm: float, target: float) -> tuple[np.ndarray, int]:
    """One restart cycle of flexible GMRES (Saad 1993) on J with the
    preconditioner M from the residual r of norm rnorm: the correction Z y
    and the number of iterations, with one application of M per iteration.

    Arnoldi by modified Gram-Schmidt builds the basis V of J Z, with
    Z[k] = M(V[k]) kept, and Givens rotations keep the Hessenberg matrix
    triangular, with |g[k + 1]| the residual norm after k + 1 iterations.
    Since the correction is built from the Z that were multiplied by J,
    that is the true residual of Z y up to roundoff even when M is not
    exactly linear, so the cycle stops once it is at most `target`, or after
    GMRES_RESTART iterations.
    """
    m = GMRES_RESTART
    V = np.empty((m + 1, r.size))
    Z = np.empty((m, r.size))
    H = np.zeros((m, m))
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    V[0], g[0] = r / rnorm, rnorm
    tmp = np.empty(r.size)  # H[i, k] V[i], one work vector for the whole cycle
    for k in range(m):
        Z[k] = M(V[k])
        w = J @ Z[k]
        for i in range(k + 1):
            H[i, k] = V[i] @ w
            w -= np.multiply(V[i], H[i, k], out=tmp)
        h = np.linalg.norm(w)
        for i in range(k):
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    cs[i] * H[i + 1, k] - sn[i] * H[i, k])
        a = H[k, k]
        H[k, k] = np.hypot(a, h)
        cs[k], sn[k] = a / H[k, k], h / H[k, k]
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        if abs(g[k + 1]) <= target:
            break
        V[k + 1] = w / h
    y = scipy.linalg.solve_triangular(H[:k + 1, :k + 1], g[:k + 1])
    return y @ Z[:k + 1], k + 1


def _on_grid(grid, interior_values: np.ndarray) -> np.ndarray:
    """Full-grid field with the given interior values and a zero boundary layer."""
    out = np.zeros(grid.shape)
    out[grid.interior] = interior_values.reshape(grid.interior_shape)
    return out


def _path_tangent(rep: SolveReport, eps: float) -> np.ndarray | None:
    """The interior path tangent du/deps at the solution `rep` reports, or
    None without a Newton step: the residual moves with epsilon by beta /
    eps, so J du/deps = -beta / eps with the report's `last_step`, solved
    to TANGENT_RTOL.  The report counts its GMRES iterations."""
    if rep.last_step is None:
        return None
    J, beta, cycle = rep.last_step
    tangent, k = _linear_solve(J, cycle, -beta / eps, TANGENT_RTOL)
    rep.krylov_iterations += k
    return tangent


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


def _closer_start(u: np.ndarray, prob: Problem, epsilon: float,
                  fallback: np.ndarray) -> StateEval | None:
    """The state of the start u at epsilon if u is admissible there with a
    residual max-norm below that of the fallback's residual values, else None."""
    res = residual(u, prob, epsilon)
    return res if res.admissible and np.abs(res.values).max() < np.abs(fallback).max() else None


def _predicted_start(u: np.ndarray, state: StateEval, prob: Problem, eps_next: float,
                     point: tuple | None, previous: tuple | None
                     ) -> tuple[np.ndarray, str, StateEval | None]:
    """Start for eps_next from the solution u, its evaluated state and the
    path points (s, u, du/ds) of `_path_point` at its epsilon and the one
    before (each None without a tangent).

    The prediction is `_predict` at s_next = eps_next^PENALTY_ROOT, a step in
    the variable along which the solution is smooth.  It is used only if
    `_closer_start` takes it over u; otherwise u itself is the (warm) start.
    Returns the start, how it was chosen and, for a prediction, its state.
    """
    # no tangent, or the penalty is inactive and the tangent is zero
    if point is None or not state.beta.any():
        return u, "warm_start", None
    pred = _predict(eps_next**PENALTY_ROOT, point, previous)
    # u's residual at eps_next differs from its state's only in the penalty
    warm = state.fval - state.psi - penalty(eps_next, state.z - prob.h_interior)[0]
    pres = _closer_start(pred, prob, eps_next, warm)
    return (u, "warm_start", None) if pres is None else (pred, "predictor", pres)


def _nested_grid(grid: ChartGrid) -> ChartGrid | None:
    """The grid of every other point of `grid` when the first epsilon is
    solved there first, or None.  That is when every axis has an odd m of
    at least 7, so that the coarse grid keeps at least 4 points per axis,
    and the coarse interior holds more than COARSE_N unknowns: the interior
    of each such grid is a level of `_hierarchy` that the V-cycle smooths,
    and the V-cycle's coarsest level solves directly whatever lies below."""
    if any(mi % 2 == 0 or mi < 7 for mi in grid.m):
        return None
    coarse = grid.every_other()
    return coarse if coarse.n_interior > COARSE_N else None


def _inject(u: np.ndarray) -> np.ndarray:
    """A full-grid field at the points of `ChartGrid.every_other`."""
    return u[(slice(None, None, 2),) * u.ndim]


def _injected_problem(prob: Problem, coarse: ChartGrid) -> Problem:
    """`prob` on `coarse`, the grid of every other point of its grid: h, phi,
    the subsolution and the metric taken at the shared points, and the
    coordinates and the subsolution pin the constructor gives."""
    sub = None if prob.subsolution is None else _inject(prob.subsolution)
    return Problem(grid=coarse, metric=prob.metric.every_other(prob.grid), fspec=prob.fspec,
                   coeff=prob.coeff, h=_inject(prob.h), phi=_inject(prob.phi),
                   subsolution=sub)


def _prolong_cubic(u: np.ndarray) -> np.ndarray:
    """Full-grid field on the grid of 2k - 1 points per axis from one on its
    every other point, k >= 4 points per axis, by 4-point cubic
    interpolation along each axis in turn.  A midpoint with two coarse
    points on either side takes (-a + 9b + 9c - d) / 16 of them, the
    midpoint next to each end the one-sided (5a + 15b - 5c + d) / 16, a
    the end point; both are exact on cubics."""
    for axis in range(u.ndim):
        c = np.moveaxis(u, axis, 0)
        f = np.empty((2 * c.shape[0] - 1,) + c.shape[1:])
        f[::2] = c
        f[3:-3:2] = (9.0 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16.0
        f[1] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
        f[-2] = (5.0 * c[-1] + 15.0 * c[-2] - 5.0 * c[-3] + c[-4]) / 16.0
        u = np.moveaxis(f, 0, axis)
    return u


def _nested_start(u0: np.ndarray, prob: Problem, epsilon: float, cfg: NewtonConfig
                  ) -> tuple[np.ndarray, str, StateEval | None, list]:
    """Start at the first epsilon from the start u0 by nested iteration.

    On a grid with a `_nested_grid`, epsilon is solved on that grid first,
    from the injected u0 and its own nested start, and the solution is
    interpolated back by `_prolong_cubic` with phi pinned.  The interpolant
    is used only if `_closer_start` takes it over u0; otherwise, or when the
    coarse solve raises a library error, u0 itself is the start.  Returns
    the start, "nested" or "initial", its state at epsilon when evaluated
    here, and the coarse levels a nested start came from, [m, Newton steps,
    Krylov iterations] each, coarsest first.
    """
    coarse = _nested_grid(prob.grid)
    if coarse is None:
        return u0, "initial", None, []
    cprob = _injected_problem(prob, coarse)
    try:
        cu, _, cres, levels = _nested_start(_inject(u0), cprob, epsilon, cfg)
        cu, rep = newton_solve(cu, cprob, epsilon, cfg, cres)
    except HessObsError:
        return u0, "initial", None, []
    res0 = residual(u0, prob, epsilon)
    nested = pin_boundary(prob.grid, _prolong_cubic(cu), prob.phi)
    nres = _closer_start(nested, prob, epsilon, res0.values)
    if nres is None:
        return u0, "initial", res0, []
    return nested, "nested", nres, levels + [[list(coarse.m), rep.iterations, rep.krylov_iterations]]


def continuation_solve(prob: Problem, schedule: PenaltySchedule | None = None,
                       cfg: NewtonConfig | None = None) -> ContinuationResult:
    """Solve along the decreasing epsilon schedule by predictor-corrector
    continuation.

    The first epsilon starts from `default_initializer`; the result keeps
    that start, which the audit takes as its subsolution.  On a grid with
    coarse levels (`_nested_grid`) that start is first carried through
    them by `_nested_start`: epsilon is solved on the coarsest from the
    injected start, and each finer level starts from the cubic interpolant
    of the one below when it is admissible and closer than its own start.
    The report's `start` is then "nested" and `nested_levels` holds the
    coarse solves, while `iterations` and `krylov_iterations` stay the
    fine grid's; a coarse solve's library error only drops the nested
    start.  Each later epsilon starts from the prediction of
    `_predicted_start`: an Euler step from the first solution, and from the
    third epsilon on the cubic Hermite extrapolation through the last two
    solutions.  `_path_tangent` solves the tangents after the Newton solves
    of every epsilon but the last, which no prediction reads, and each last
    step is released; the coarse solves of a nested start solve none.  The
    previous solution itself is the start when the prediction is not
    better; the report records which in `start`.  A prediction's state,
    evaluated for that comparison, is the Newton solve's start state.  The
    state of one epsilon is released once the next start is chosen, its
    tangent after the start after that.  Solver errors carry the epsilon at
    which they occurred and the solutions and reports of the epsilons
    finished before it.
    """
    schedule = schedule or PenaltySchedule()
    cfg = cfg or NewtonConfig()
    eps_values = schedule.values()
    u = u0 = default_initializer(prob)
    sols, reports = [], []
    state = point = previous = None
    for k, eps in enumerate(eps_values):
        start, res0, levels = "initial", None, []
        try:
            if k:
                u, start, res0 = _predicted_start(u, state, prob, eps, point, previous)
                state = None
            else:
                u, start, res0, levels = _nested_start(u0, prob, eps, cfg)
            u, rep = newton_solve(u, prob, eps, cfg, res0)
            tangent = _path_tangent(rep, eps) if k + 1 < len(eps_values) else None
            rep.last_step = None
        except Exception as exc:
            if isinstance(exc, MaxItersExceeded):
                exc.report.start, exc.report.nested_levels = start, levels
            exc.epsilon, exc.solutions, exc.reports = eps, sols, reports
            raise
        rep.start, rep.nested_levels = start, levels
        state, rep.final_state = rep.final_state, None
        previous, point = point, _path_point(u, tangent, eps, prob.grid)
        sols.append(u)
        reports.append(rep)
    return ContinuationResult(epsilons=eps_values, solutions=sols, reports=reports,
                              start=u0)


def default_initializer(prob: Problem) -> np.ndarray:
    """Initial iterate matching the Dirichlet data.

    A supplied subsolution (Problem pins it) is returned as given; the first
    state that uses it checks it: the first epsilon's `newton_solve`, or
    `theta_certificate`, each raising NotAdmissible with the flagged points.
    Otherwise a paraboloid q(x) = a |x - x_c|^2 / 2 + b, b set so that
    q <= min(phi, h), is grown (a = 1, 2, 4, ..., 2^20) until it is
    admissible with f(lam(nabla^2 q + A[q])) >= psi[q] everywhere, and the
    Dirichlet mismatch is blended in once, with the Laplace-Beltrami lift
    of phi - q (`laplace_beltrami_solve`): the blend is lift(phi) + a w
    with one w for every a, so a larger a only scales w.  If no a
    qualifies or the blend is inadmissible, NoAdmissibleStart is raised
    (a subsolution is then required input).
    """
    if prob.subsolution is not None:
        return prob.subsolution

    grid = prob.grid
    pts = grid.points()
    center = np.array([(lo + hi) / 2.0 for lo, hi in zip(grid.lo, grid.hi)])
    rsq = ((pts - center) ** 2).sum(axis=-1)
    target = np.minimum(prob.phi, prob.h)
    a = 1.0
    while a <= 2.0**20:
        b = float((target - 0.5 * a * rsq).min()) - 1e-9
        q = 0.5 * a * rsq + b
        rq = residual(q, prob, PROBE_EPSILON)
        if rq.admissible and rq.values.min() >= 0.0:
            v = laplace_beltrami_solve(grid, prob.metric, prob.phi - q)
            u0 = pin_boundary(grid, q + v, prob.phi)
            if residual(u0, prob, PROBE_EPSILON).admissible:
                return u0
            break
        a *= 2.0
    raise NoAdmissibleStart("built-in paraboloid/blend initializer failed; supply a subsolution")


def laplace_beltrami_solve(grid: ChartGrid, metric: MetricField,
                           boundary_values: np.ndarray) -> np.ndarray:
    """The discrete harmonic lift of Dirichlet data: the full-grid field v
    that holds `boundary_values` exactly on the boundary layer and solves
    g^{ij} (nabla^2 v)_{ij} = 0 at the interior points.

    With w the data on a zero interior, the interior of v - w solves
    A x = -L w, A the assembled operator (g^{ij}, -g^{ij} Gamma^k_{ij}, 0)
    and L w its rows applied to w by `operator_L`, by `_linear_solve` under
    A's own V-cycle to relative residual LIFT_RTOL.
    """
    n = grid.n
    # g^{ij} = L^{-T} L^{-1} is the derivative of tr B = tr(L^{-1} X L^{-T}) in X
    ginv = derivative_to_chart(np.broadcast_to(np.eye(n), (grid.n_interior, n, n)), metric)
    c1 = add_christoffel_term(np.zeros((grid.n_interior, n)), ginv, metric)
    w = pin_boundary(grid, np.zeros(grid.shape), boundary_values)
    b = -operator_L(grid, ginv, c1, w)
    A = assemble_operator(grid, ginv, c1, 0.0)
    v, _ = _linear_solve(A, _v_cycle(A, grid.interior_shape), b, LIFT_RTOL)
    return w + _on_grid(grid, v)
