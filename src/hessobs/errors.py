"""Exception taxonomy shared across the solver stack."""


class HessObsError(Exception):
    """Base class for all library errors."""


class OutsideCone(HessObsError):
    """Eigenvalue tuple left the admissibility cone of the symmetric function."""

    def __init__(self, lam, sigmas, j_failed):
        self.lam = lam
        self.sigmas = sigmas
        self.j_failed = j_failed
        super().__init__(
            f"sigma_{j_failed} = {sigmas[j_failed]:.3e} <= 0 at lambda = {lam}"
        )


class StructureViolation(HessObsError):
    """A sampled structure condition failed; carries the witness point."""

    def __init__(self, condition, witness, detail=""):
        self.condition = condition
        self.witness = witness
        super().__init__(f"structure condition {condition} violated at {witness}: {detail}")


class NotSPD(HessObsError):
    """Matrix expected to be symmetric positive definite is not."""


class NotAdmissible(HessObsError):
    """State left the cone at some interior points; payload lists them."""

    def __init__(self, points, message="state not admissible"):
        self.points = points
        super().__init__(f"{message} at {len(points)} interior points (first: {points[:3]})")


class BadEpsilon(HessObsError):
    """Penalty parameter outside (0, 1)."""


class PsiNotPositive(HessObsError):
    """Right-hand side psi fell below the positivity floor or is not finite."""


class SolverError(HessObsError):
    """Base class for nonlinear-solver failures (CLI exit code 2)."""


class LineSearchStall(SolverError):
    def __init__(self, step, residual_norm, margin):
        self.step = step
        self.residual_norm = residual_norm
        self.margin = margin
        super().__init__(
            f"line search stalled at step {step:.2e} "
            f"(|r|_inf = {residual_norm:.3e}, admissibility margin = {margin:.3e})"
        )


class MaxItersExceeded(SolverError):
    def __init__(self, iters, residual_norm):
        self.iters = iters
        self.residual_norm = residual_norm
        super().__init__(f"no convergence in {iters} iterations (|r|_inf = {residual_norm:.3e})")


class SingularJacobian(SolverError):
    pass


class NoAdmissibleStart(SolverError):
    """The built-in start (`u = builtin`) found no admissible initial
    iterate; an inadmissible supplied subsolution raises NotAdmissible
    instead."""


class MonitorError(HessObsError):
    """A monitored invariant failed on a solved state."""


class ConfigError(HessObsError):
    """Configuration parse or validation failure with source location."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = f"[line {line}" + (f", col {col}" if col is not None else "") + "] " if line else ""
        super().__init__(loc + message)
