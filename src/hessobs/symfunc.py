"""Symmetric eigenvalue functions on Garding cones.

Implements the two operator families

    f(lam) = sigma_k(lam)^(1/k)                 on Gamma_k
    f(lam) = (sigma_k(lam)/sigma_l(lam))^(1/(k-l))   on Gamma_k, 1 <= l < k

together with first and second derivatives, numerical certification of the
structure conditions (monotonicity, concavity, positivity/boundary decay, the
Euler-type lower bound, the negative-component gradient bound, divergence
along the diagonal ray), and a sampling-based estimate of the uniform
constant in the supporting-hyperplane inequality used by the second-order
estimates.

Internally both families share one code path: the pure root family is the
quotient with l = 0 and sigma_0 = 1.  All derivative formulas run through
logarithmic differentiation, which stays stable for eigenvalues spanning many
orders of magnitude.  `f_and_grad_of_matrix` evaluates f and its derivative
on a batch of matrices through their Newton tensors, without eigenvalues.
Per-point data is reduced over its n or k columns as contiguous (N,)
arrays: sigma_j, the cone test, and row norms, sums and minima are column
expressions, never a numpy pass along a short trailing axis, and no row
norm or sum calls BLAS, whose dot products round per CPU core type.

Every cone test, of matrices, eigenvalue fields and samples alike, applies
one rule to the sigma margins, `_margin_ok`: each positive and finite.  The
samplers draw their private generator in a fixed order (see
`sample_cone_points`) and test the candidates in batches, so a seed names
the same points whatever the batching: the boundary phase, the last to
draw, may draw past its last accepted ray, and its points are still the
first inside ones in draw order.  `estimate_theta` skips the rows whose
normal cannot lie zeta from any normal of K and settles most normal gaps
in Gram form, with the all-pairs scan's numbers bit for bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import OutsideCone, StructureViolation
from .geometry import symmetric_eigenvalues

__all__ = [
    "SymmetricFunctionSpec",
    "ThetaCertificate",
    "StructureReport",
    "check_structure_conditions",
    "sample_cone_points",
    "estimate_theta",
    "f_and_grad_masked",
    "f_and_grad_of_matrix",
    "sigma_margins",
]

# cone sampler: radii log-uniform on [SAMPLE_RMIN, SAMPLE_RMAX], and the
# share of points pushed toward the boundary along exit rays
SAMPLE_RMIN = 1e-3
SAMPLE_RMAX = 1e3
BOUNDARY_FRACTION = 0.1
# the boundary phase draws this many rays per missing point in one batch, so
# that it rarely needs a second
PUSH_OVERDRAW = 3
# exit search: the ray is followed up to EXIT_T_CAP * (1 + |base|), then
# the crossing is bisected EXIT_BISECTIONS times
EXIT_T_CAP = 50.0
EXIT_BISECTIONS = 80
# boundary decay check: number of sampled rays and of halvings along each
DECAY_RAYS = 8
DECAY_HALVINGS = 40
# theta certificate: a bracket below -THETA_ZERO_GUARD * (1 + |f(lam)| + |f(mu)|)
# counts as a violation of the plain concavity inequality
THETA_ZERO_GUARD = 1e-10
# normal gaps: an absolute margin on the gap of two unit normals (at most 2)
# and on its square (at most 4), far above their round-off (about 1e-15)
GAP_ROUNDOFF = 1e-9
# pairs per block of the theta scan's elementwise work, sized to stay in cache
PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class SymmetricFunctionSpec:
    """Which symmetric function to use: dimension n, top index k, quotient
    index l (l = 0 selects the pure root family sigma_k^(1/k))."""

    n: int
    k: int
    l: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.l and not (1 <= self.l < self.k):
            raise ValueError(f"quotient index needs 1 <= l < k, got l={self.l}, k={self.k}")

    @property
    def degree(self) -> int:
        """Homogeneity denominator k - l (both families are degree-1 in lam)."""
        return self.k - self.l

    @property
    def family(self) -> str:
        return "sigma_k_root" if self.l == 0 else "sigma_quotient_root"

    def __str__(self):
        if self.l == 0:
            return f"sigma_{self.k}^(1/{self.k}) on Gamma_{self.k}, n={self.n}"
        return f"(sigma_{self.k}/sigma_{self.l})^(1/{self.degree}) on Gamma_{self.k}, n={self.n}"


@dataclass(frozen=True)
class ThetaCertificate:
    """Sampled lower bound for the constant in the supporting-hyperplane
    inequality.  `theta_hat is None` means the normal-gap premise was never
    satisfied (vacuous)."""

    theta_hat: float | None
    zeta: float
    sample_count: int
    pair_count: int
    violations_at_zero: int | None  # None when the scan read theta_hat only
    min_bracket: float | None

    @property
    def vacuous(self) -> bool:
        return self.theta_hat is None


# ---------------------------------------------------------------------------
# elementary symmetric polynomials (batched)
# ---------------------------------------------------------------------------

def elementary_symmetric(lam: np.ndarray, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of each row of lam, shape (N, kmax+1), as the
    transpose of a C-ordered array: each sigma_j is a contiguous column.

    Built by the one-variable-at-a-time recurrence e_j += lam_c * e_{j-1},
    O(n*kmax) per point, no combinatorial enumeration.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    e = np.zeros((kmax + 1, lam.shape[0]))
    e[0] = 1.0
    for c in range(lam.shape[1]):
        for j in range(min(kmax, c + 1), 0, -1):
            e[j] += lam[:, c] * e[j - 1]
    return e.T


def _sigma_removed(lam: np.ndarray, j: int, order: int) -> np.ndarray:
    """sigma_j of each row of lam without `order` distinct entries, by the
    `elementary_symmetric` recurrence over the kept columns: shape (N, n)
    for order 1, (N, n, n) with a zero diagonal for order 2."""
    npts, n = lam.shape
    out = np.zeros((npts,) + (n,) * order)
    if j >= 0:
        for removed in itertools.combinations(range(n), order):
            s = elementary_symmetric(np.delete(lam, removed, axis=1), j)[:, j]
            out[(slice(None),) + removed] = out[(slice(None),) + removed[::-1]] = s
    return out


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------

def sigma_margins(spec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """sigma_1..sigma_k of each row, shape (N, k)."""
    return elementary_symmetric(lam, spec.k)[:, 1:]


def _margin_ok(sig: np.ndarray) -> np.ndarray:
    """The cone rule, entrywise on sigma margins: 0 < sigma_j < inf.  A NaN
    margin, and one that overflowed to +inf, is outside."""
    return (sig > 0.0) & (sig < np.inf)


def _all_ok(columns) -> np.ndarray:
    """`_margin_ok` on each (N,) margin column, ANDed per row."""
    return functools.reduce(np.logical_and, map(_margin_ok, columns))


def _inside(spec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Rows of the (N, n) batch lam inside Gamma_k: `_margin_ok` on every margin."""
    return _all_ok(sigma_margins(spec, lam).T)


def _require_inside(spec: SymmetricFunctionSpec, lam: np.ndarray):
    """Raise OutsideCone unless every sigma_j, j <= k, of every row of the
    (N, n) batch lam meets `_margin_ok`; the error names the first bad row
    and its first failing j."""
    e = elementary_symmetric(lam, spec.k)
    inside = _all_ok(e.T[1:])
    if not inside.all():
        i = int(np.argmin(inside))
        raise OutsideCone(lam[i], e[i], int(np.argmin(_margin_ok(e[i, 1:]))) + 1)


# ---------------------------------------------------------------------------
# f, Df, D^2 f
# ---------------------------------------------------------------------------

def _f_batch(spec: SymmetricFunctionSpec, lam: np.ndarray):
    """(f, sig_k, sig_l) on rows of lam via log form; caller guarantees
    positivity of sigmas."""
    return _f_of_sigmas(spec, elementary_symmetric(lam, spec.k).T)


def _f_of_sigmas(spec: SymmetricFunctionSpec, e):
    """(f, sig_k, sig_l) from the (N,) columns sigma_0 = 1, sigma_1..sigma_k
    of e by the log form; log sigma_l enters only for a quotient (l > 0)."""
    sk, sl = e[spec.k], e[spec.l]
    return np.exp((np.log(sk) - np.log(sl) if spec.l else np.log(sk)) / spec.degree), sk, sl


def f_and_grad_of_matrix(spec: SymmetricFunctionSpec, B: np.ndarray):
    """Batched (sig, f, D, ok) of the eigenvalues of the (N, n, n) matrices
    B, without computing the eigenvalues.

    sigma_j(lam(B)) and the Newton tensors T_j of B come from the recursion

        T_0 = I,  sigma_j = tr(B T_{j-1}) / j,  T_j = sigma_j I - B T_{j-1},

    and d sigma_j = tr(T_{j-1} dB) (Reilly, J. Differential Geom. 8, 1973),
    entrywise on the (N,) columns B[:, i, c] and sigma_j.  sig stacks
    sigma_1..sigma_k (N, k), ok marks the rows where all meet `_margin_ok`.
    f takes the log form of `_f_of_sigmas`, and D = f/(k-l) (T_{k-1}/sigma_k -
    T_{l-1}/sigma_l) is its derivative in the sense df = tr(D dB); both are
    computed on every row and are NaN on the rows outside the cone.
    """
    n, sig = B.shape[1], [np.ones(B.shape[0])]  # sigma_0..sigma_k
    ij = list(np.ndindex(n, n))
    T = [{(i, c): float(i == c) for i, c in ij}]  # T_0 = I
    BT = b = {(i, c): B[:, i, c] for i, c in ij}  # B T_0 = B
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, spec.k + 1):
            sig.append(functools.reduce(np.add, [BT[i, i] for i in range(n)]) / j)
            if j < spec.k:  # the last step needs only the diagonal of B T_j
                T.append({(i, c): sig[j] - BT[i, c] if i == c else -BT[i, c] for i, c in ij})
                BT = {(i, c): functools.reduce(np.add, [b[i, m] * T[j][m, c] for m in range(n)])
                      for i, c in ij if i == c or j + 1 < spec.k}
        ok = _all_ok(sig[1:])
        f = _f_of_sigmas(spec, sig)[0]
        f[~ok] = np.nan
        fd, D = f / spec.degree, np.empty(B.shape)
        for i, c in ij:  # d log(sigma_k / sigma_l), scaled by f / (k - l)
            dlog = T[spec.k - 1][i, c] / sig[spec.k]
            if spec.l:
                dlog = dlog - T[spec.l - 1][i, c] / sig[spec.l]
            np.multiply(fd, dlog, out=D[:, i, c])
    return np.stack(sig[1:], axis=1), f, D, ok


def _grad_batch(spec: SymmetricFunctionSpec, lam: np.ndarray):
    """(f, Df) on rows of lam.  Df by logarithmic differentiation:

        f_i = f/(k-l) * ( sigma_{k-1}(lam|i)/sigma_k - sigma_{l-1}(lam|i)/sigma_l ).
    """
    lam = np.atleast_2d(lam)
    f, sk, sl = _f_batch(spec, lam)
    term = _sigma_removed(lam, spec.k - 1, 1) / sk[:, None]
    if spec.l:
        term = term - _sigma_removed(lam, spec.l - 1, 1) / sl[:, None]
    return f, f[:, None] * term / spec.degree


def _hess_batch(spec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """D^2 f on rows of lam, shape (N, n, n); caller guarantees positivity of
    the sigmas."""
    f, sk, sl = _f_batch(spec, lam)
    m = spec.degree

    def quotient_term(order, s_ord):
        # T_ij = d_j [ sigma_{order-1}(lam|i)/sigma_order ]
        s = _sigma_removed(lam, order - 1, 1) / s_ord[:, None]  # (N, n)
        r2 = _sigma_removed(lam, order - 2, 2)  # (N, n, n), zero diagonal
        return r2 / s_ord[:, None, None] - s[:, :, None] * s[:, None, :], s

    Tk, s_k = quotient_term(spec.k, sk)
    Tl, s_l = quotient_term(spec.l, sl) if spec.l else (0.0, 0.0)
    g = (s_k - s_l) / m
    H = f[:, None, None] * (g[:, :, None] * g[:, None, :] + (Tk - Tl) / m)
    return 0.5 * (H + np.swapaxes(H, 1, 2))


def f_and_grad_masked(spec: SymmetricFunctionSpec, lam: np.ndarray, sig: np.ndarray):
    """Batched (f, Df, ok) with NaN rows where lam is not strictly inside,
    given the rows' margins sig = sigma_margins(spec, lam).

    The non-raising entry point for eigenvalue fields (`operator.spectrum_gradient`);
    callers must honor the mask.  The batch is evaluated whole, with no
    gather or scatter, and the rows outside are then set to NaN.
    """
    ok = _all_ok(sig.T)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f, grad = _grad_batch(spec, lam)
    f[~ok] = grad[~ok] = np.nan
    return f, grad, ok


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_cone_points(spec: SymmetricFunctionSpec, count: int, seed: int) -> np.ndarray:
    """Pseudo-random strictly interior points of Gamma_k.

    Directions are an even mix of positive-orthant and unrestricted Gaussian
    draws (rejection against the cone), radius is log-uniform on
    [SAMPLE_RMIN, SAMPLE_RMAX].  A BOUNDARY_FRACTION share is pushed along
    random exit segments to 0.999 of the exit parameter, which supplies
    near-boundary eigenvalue tuples with strongly tilted normals.

    Draw order: a private generator seeded with `seed` gives each bulk
    candidate n normals, a uniform (orthant or not) and a uniform (radius),
    then each exit ray an integer (its bulk base) and n normals.  Bulk
    candidates are tested in batches no larger than the number still
    missing, so the bulk phase stops drawing at its last accepted candidate.
    Nothing draws after the boundary phase, so it draws PUSH_OVERDRAW times
    the rays it needs in one batch and may draw past its last accepted ray.
    Either way the points are the first inside ones in draw order, whatever
    the batching.
    """
    rng = np.random.default_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    n_boundary = int(count * BOUNDARY_FRACTION)
    n_bulk = count - n_boundary
    ratio = SAMPLE_RMAX / SAMPLE_RMIN

    def bulk(size):
        # only the draws run per candidate; the radius power stays a scalar op
        d = np.empty((size, spec.n))
        orthant, radius = [], []
        for row in d:
            normal(out=row)
            orthant.append(uniform() < 0.5)
            radius.append(SAMPLE_RMIN * ratio ** uniform())
        d[orthant] = np.abs(d[orthant]) + 1e-3
        return np.array(radius)[:, None] * (d / _row_norms(d)[:, None])

    pts = _first_inside(spec, n_bulk, bulk)

    def pushed(size):
        d = np.empty((PUSH_OVERDRAW * size, spec.n))
        picks = []
        for row in d:
            picks.append(rng.integers(0, n_bulk))
            normal(out=row)
        base = pts[picks]
        d /= _row_norms(d)[:, None]
        return base + 0.999 * _exit_parameters(spec, base, d)[:, None] * d

    return np.concatenate([pts, _first_inside(spec, n_boundary, pushed)])


def _row_norms(x):
    """np.linalg.norm(x, axis=1) bit for bit, as a sum of (N,) columns: no BLAS."""
    return np.sqrt(sum(c * c for c in x.T))


def _first_inside(spec, count, draw):
    """The first `count` rows inside Gamma_k, in draw order, of batches
    draw(missing), where missing is the number of rows still missing; a
    batch may hold more rows than that."""
    pts = np.empty((0, spec.n))
    drawn = 0
    while len(pts) < count:
        if drawn > 500 * count:
            raise RuntimeError("cone sampler failed to reach requested count")
        lam = draw(count - len(pts))
        drawn += len(lam)
        pts = np.concatenate([pts, lam[_inside(spec, lam)]])
    return pts[:count]


def _exit_parameters(spec, base, d):
    """Smallest t with base + t*d outside Gamma_k for each row d of an (N, n)
    batch of rays from one base or one base per row; NaN where the ray
    stays inside up to EXIT_T_CAP * (1 + |base|).  t doubles from
    1e-3 * (1 + |base|) to the first point outside, then at most
    EXIT_BISECTIONS bisections of [0, t] close in on the crossing; they stop
    at the fixed point, once a bisection moves no bracket end (a NaN end
    stays NaN), since every later one would repeat it."""
    base = np.broadcast_to(base, d.shape)
    scale = EXIT_T_CAP * (1.0 + _row_norms(base))
    t = 1e-3 * scale / EXIT_T_CAP
    t_hi = np.full(len(d), np.nan)
    searching = t <= scale
    while searching.any():
        out = searching & ~_inside(spec, base + t[:, None] * d)
        t_hi[out] = t[out]
        t *= 2.0
        searching &= ~out & (t <= scale)
    t_lo = np.zeros(len(d))
    for _ in range(EXIT_BISECTIONS):
        mid = 0.5 * (t_lo + t_hi)
        inside = _inside(spec, base + mid[:, None] * d)
        lo, hi = np.where(inside, mid, t_lo), np.where(inside, t_hi, mid)
        if np.array_equal(lo, t_lo) and np.array_equal(hi, t_hi, equal_nan=True):
            break
        t_lo, t_hi = lo, hi
    return t_hi


# ---------------------------------------------------------------------------
# structure-condition certification
# ---------------------------------------------------------------------------

@dataclass
class StructureReport:
    min_grad_component: float
    max_hess_eig_scaled: float  # lambda_max(D^2 f) / (1 + |D^2 f|_inf), worst case
    min_f: float
    boundary_decay_ratios: list  # f_last/f_first per sampled boundary ray
    min_euler_bound: float  # min of sum f_i lam_i + K0 (1 + sum f_i)
    nu0_hat: float | None  # min f_j/(1+sum f_i) over samples with lam_j < 0
    ladder_values: list  # f(2^s * 1), s = 0..40, strictly increasing


def check_structure_conditions(
    spec: SymmetricFunctionSpec,
    sample_count: int,
    seed: int,
    K0: float = 0.0,
) -> StructureReport:
    """Certify the structure conditions on pseudo-random interior samples.

    Checks, in order: positivity of every gradient component; concavity via
    the largest Hessian eigenvalue; positivity of f with decay to zero along
    sampled rays to the cone boundary; the Euler-type lower bound
    sum f_i lam_i + K0 (1 + sum f_i) >= 0; the empirical gradient bound at
    samples with a negative component; divergence of f along R * (1,..,1)
    for R on a doubling ladder up to 2^40.

    Raises StructureViolation with the witness point on the first failure.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    lam = sample_cone_points(spec, sample_count, seed)
    f, grad = _grad_batch(spec, lam)

    min_grad = float(grad.min())
    if not min_grad > 0.0:
        idx = np.unravel_index(np.argmin(grad), grad.shape)[0]
        raise StructureViolation("monotonicity f_i > 0", lam[idx], f"min f_i = {min_grad:.3e}")

    H = _hess_batch(spec, lam)
    scaled = symmetric_eigenvalues(H)[:, 0] / (1.0 + np.abs(H).max(axis=(1, 2)))
    worst = int(np.argmax(scaled))
    worst_scaled = float(scaled[worst])
    if not worst_scaled <= 1e-8:
        raise StructureViolation("concavity of f", lam[worst], f"lambda_max(D^2 f) slack {worst_scaled:.3e}")

    min_f = float(f.min())
    if not min_f > 0.0:
        raise StructureViolation("positivity f > 0", lam[np.argmin(f)], f"min f = {min_f:.3e}")

    decay = _boundary_decay(spec, seed + 1)

    with np.errstate(over="ignore"):  # a bound past the float range is +-inf
        euler = np.einsum("ij,ij->i", grad, lam) + K0 * (1.0 + grad.sum(axis=1))
    min_euler = float(euler.min())
    if not min_euler >= 0.0:
        raise StructureViolation(
            "Euler-type bound sum f_i lam_i + K0 (1+sum f_i) >= 0",
            lam[np.argmin(euler)],
            f"value {min_euler:.3e} with K0 = {K0}",
        )

    neg = lam < 0.0
    if np.any(neg):
        denom = 1.0 + grad.sum(axis=1)
        ratios = np.where(neg, grad, np.inf) / denom[:, None]
        nu0 = float(ratios.min())
        if not nu0 > 0.0:
            bad = np.unravel_index(np.argmin(ratios), ratios.shape)[0]
            raise StructureViolation("gradient bound at negative components", lam[bad], f"nu0 = {nu0:.3e}")
    else:
        nu0 = None

    ladder = _f_batch(spec, np.ldexp(np.ones(spec.n), np.arange(41)[:, None]))[0].tolist()
    if not (all(b > a for a, b in zip(ladder, ladder[1:])) and ladder[-1] > 1e9 * ladder[0]):
        raise StructureViolation("divergence of f(R*1)", 2.0**40 * np.ones(spec.n), "ladder not monotone divergent")

    return StructureReport(
        min_grad_component=min_grad,
        max_hess_eig_scaled=worst_scaled,
        min_f=min_f,
        boundary_decay_ratios=decay,
        min_euler_bound=min_euler,
        nu0_hat=nu0,
        ladder_values=ladder,
    )


def _boundary_decay(spec, seed):
    """f along segments halving the distance to sampled boundary points.

    Near a generic boundary point f vanishes like delta^(1/(k-l)), so over
    the last ten halvings the value must drop by about 2^(-10/(k-l));
    that rate is checked with a 4x band (scale-free, so prefactors from the
    exit geometry cannot pollute it), together with tail monotonicity and
    absolute smallness of the final sample.  Returns the decade rates.
    The rays, unit normal draws of a generator seeded with `seed`, are
    followed in batches and examined in draw order.
    """
    rng = np.random.default_rng(seed)
    anchor = np.ones(spec.n)
    shrink = 1.0 - np.ldexp(1.0, -np.arange(DECAY_HALVINGS + 1))
    rates = []
    tries = 0
    target_rate = 4.0 * 2.0 ** (-10.0 / spec.degree)
    while len(rates) < DECAY_RAYS:
        d = rng.standard_normal((2 * (DECAY_RAYS - len(rates)), spec.n))
        d /= _row_norms(d)[:, None]
        t_exit = _exit_parameters(spec, anchor, d)
        lam = anchor + (t_exit[:, None] * shrink)[:, :, None] * d[:, None, :]
        ok = _inside(spec, lam.reshape(-1, spec.n)).reshape(lam.shape[:2])
        f = np.zeros(ok.shape)
        f[ok] = _f_batch(spec, lam[ok])[0]
        n_in = ok.cumprod(axis=1).sum(axis=1)  # halvings before the first one outside
        for ray in range(len(d)):
            tries += 1
            if tries > 200 * DECAY_RAYS:
                raise RuntimeError("no exiting rays found")
            vals = f[ray, : n_in[ray]]
            if len(vals) < 12:
                continue
            witness = anchor + t_exit[ray] * d[ray]
            tail = vals[-5:]
            if not all(b < a for a, b in zip(tail, tail[1:])):
                raise StructureViolation("decay of f toward the cone boundary", witness,
                                         "tail not decreasing")
            rate = float(vals[-1] / vals[-11])
            if rate > target_rate:
                raise StructureViolation("decay of f toward the cone boundary", witness,
                                         f"decade rate {rate:.3e} > target {target_rate:.3e}")
            if vals[-1] > 0.05 * vals.max():
                raise StructureViolation("decay of f toward the cone boundary", witness,
                                         f"final value {vals[-1]:.3e} not small against max {vals.max():.3e}")
            rates.append(rate)
            if len(rates) == DECAY_RAYS:
                break
    return rates


# ---------------------------------------------------------------------------
# supporting-hyperplane constant
# ---------------------------------------------------------------------------

def estimate_theta(
    spec: SymmetricFunctionSpec,
    K_samples: np.ndarray,
    zeta: float,
    lambda_samples: np.ndarray,
    grad: np.ndarray | None = None,
    all_pairs: bool = True,
) -> ThetaCertificate:
    """Sampled minimum of the normalized supporting-hyperplane excess.

    Over all pairs (mu, lam) with |nu_mu - nu_lam| >= zeta, returns

        theta_hat = min [ sum_i f_i(lam)(mu_i - lam_i) - f(mu) + f(lam) ]
                        / (1 + sum_i f_i(lam)).

    Vacuous (theta_hat = None) when no sampled pair meets the normal-gap
    premise.  Every pair, gap or not, is also checked against the plain
    concavity inequality (the bracket must be >= 0 up to round-off); failures
    are counted in `violations_at_zero` and indicate an implementation bug.

    Rows that cannot meet the gap are skipped: with c the mean of the nu_mu
    and R = max_j |nu_mu_j - c|, the triangle inequality bounds every gap of
    a row by |nu_lam - c| + R, so a row whose bound is below zeta by more
    than GAP_ROUNDOFF forms no pair.  `_gap_mask` decides the gaps of the
    others.  With all_pairs=False the scan forms brackets for those others
    only, and no pair matrix when there are none, and returns theta_hat and
    pair_count alone (violations_at_zero and min_bracket are None).  `grad`
    may hold Df of the lambda rows, as `f_and_grad_masked` gives it, in
    place of recomputing it.
    """
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    K = np.atleast_2d(np.asarray(K_samples, dtype=float))
    lams = np.atleast_2d(np.asarray(lambda_samples, dtype=float))
    _require_inside(spec, K)
    _require_inside(spec, lams)

    f_lam, g_lam = _grad_batch(spec, lams) if grad is None else (_f_batch(spec, lams)[0], grad)
    f_mu, g_mu = _grad_batch(spec, K)
    nu_lam = g_lam / _row_norms(g_lam)[:, None]
    nu_mu = g_mu / _row_norms(g_mu)[:, None]
    denom = 1.0 + sum(g_lam.T)
    lam_dot = np.einsum("ij,ij->i", g_lam, lams)

    centre = nu_mu.mean(axis=0)
    reach = _row_norms(nu_lam - centre) + _row_norms(nu_mu - centre).max()
    near = reach >= zeta - GAP_ROUNDOFF
    rows = np.arange(len(lams)) if all_pairs else np.flatnonzero(near)
    if not (all_pairs or len(rows)):
        return ThetaCertificate(None, zeta, lams.shape[0], 0, None, None)

    theta = np.inf
    worst = None
    pair_count = 0
    violations = 0
    min_bracket = np.inf
    # chunk over K to bound the pair matrices
    chunk = max(1, int(2e6 / max(1, lams.shape[0])))
    for s in range(0, K.shape[0], chunk):
        blk = slice(s, s + chunk)
        # the product runs over every lambda row, since BLAS rounds an entry
        # differently with the matrix shape; the rest runs on row blocks
        # that stay in cache
        product = g_lam @ K[blk].T
        step = max(1, PAIR_BLOCK // product.shape[1])
        for r in range(0, len(rows), step):
            t = rows[r : r + step]
            # bracket[t, j] for lam_t, mu_j
            bracket = product[t]
            bracket -= lam_dot[t, None]
            bracket -= f_mu[None, blk]
            bracket += f_lam[t, None]
            if all_pairs:
                scale = 1.0 + np.abs(f_lam[t])[:, None] + np.abs(f_mu[blk])[None, :]
                violations += int(np.count_nonzero(bracket < -THETA_ZERO_GUARD * scale))
                min_bracket = min(min_bracket, float(bracket.min()))
            if not near[t].any():
                continue
            mask = _gap_mask(nu_lam[t], nu_mu[blk], zeta)
            pair_count += int(np.count_nonzero(mask))
            ratios = np.divide(bracket, denom[t, None], out=bracket, where=mask)
            low = float(np.min(ratios, where=mask, initial=np.inf))
            if low < theta:
                theta = low
                if low <= 0.0:  # the witness of a violated lemma
                    idx = np.unravel_index(np.argmin(np.where(mask, ratios, np.inf)), ratios.shape)
                    worst = (K[blk][idx[1]].copy(), lams[t[idx[0]]].copy())

    if not all_pairs:
        violations = min_bracket = None
    if pair_count == 0:
        return ThetaCertificate(None, zeta, lams.shape[0], 0, violations, min_bracket)
    if theta <= 0.0:
        raise StructureViolation(
            "supporting-hyperplane constant",
            worst,
            f"theta_hat = {theta:.3e} <= 0 despite normal gap >= {zeta}",
        )
    return ThetaCertificate(theta, zeta, lams.shape[0], pair_count, violations, min_bracket)


def _gap_mask(nu_a: np.ndarray, nu_b: np.ndarray, zeta: float) -> np.ndarray:
    """|nu_a_t - nu_b_j| >= zeta for every pair of rows, decided as the
    per-axis expression sqrt(sum_i (a_i - b_i)^2) decides it.  The Gram form
    |a|^2 + |b|^2 - 2 a.b settles the pairs whose squared gap is more than
    GAP_ROUNDOFF from zeta^2; the rest are recomputed by that expression."""
    d2 = (-2.0 * nu_a) @ nu_b.T
    d2 += (np.einsum("ij,ij->i", nu_a, nu_a) - zeta * zeta)[:, None]
    d2 += np.einsum("ij,ij->i", nu_b, nu_b)[None, :]
    mask = d2 >= GAP_ROUNDOFF
    unsure = d2 > -GAP_ROUNDOFF
    unsure ^= mask
    if unsure.any():
        t, j = np.nonzero(unsure)
        exact = np.sqrt(sum((nu_a[t, i] - nu_b[j, i]) ** 2 for i in range(nu_a.shape[1])))
        mask[t, j] = exact >= zeta
    return mask
