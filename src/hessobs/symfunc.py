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
on a batch of matrices through their Newton tensors, without eigenvalues:
entrywise on the batch's (N,) columns, with no masked indexing.

Every cone test in the sampling and decay code is one batched mask,
`_inside`.  The samplers draw their private generator in a fixed order (see
`sample_cone_points`) and test the candidates in batches, so a seed names
the same points whatever the batching.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import OutsideCone, StructureViolation

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
    violations_at_zero: int
    min_bracket: float

    @property
    def vacuous(self) -> bool:
        return self.theta_hat is None


# ---------------------------------------------------------------------------
# elementary symmetric polynomials (batched)
# ---------------------------------------------------------------------------

def elementary_symmetric(lam: np.ndarray, kmax: int) -> np.ndarray:
    """sigma_0..sigma_kmax of each row of lam, shape (N, kmax+1).

    Built by the one-variable-at-a-time recurrence e_j += lam_c * e_{j-1},
    O(n*kmax) per point, no combinatorial enumeration.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    npts, n = lam.shape
    e = np.zeros((npts, kmax + 1))
    e[:, 0] = 1.0
    for c in range(n):
        jtop = min(kmax, c + 1)
        for j in range(jtop, 0, -1):
            e[:, j] += lam[:, c] * e[:, j - 1]
    return e


def _sigma_removed(lam: np.ndarray, j: int, order: int) -> np.ndarray:
    """sigma_j of each row of lam without `order` distinct entries, by the
    `elementary_symmetric` recurrence over the kept columns: shape (N, n)
    for order 1, (N, n, n) with a zero diagonal for order 2."""
    npts, n = lam.shape
    out = np.zeros((npts,) + (n,) * order)
    if j >= 0:
        for removed in itertools.permutations(range(n), order):
            keep = [c for c in range(n) if c not in removed]
            out[(slice(None),) + removed] = elementary_symmetric(lam[:, keep], j)[:, j]
    return out


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------

def sigma_margins(spec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """sigma_1..sigma_k of each row, shape (N, k)."""
    return elementary_symmetric(lam, spec.k)[:, 1:]


def _inside(spec: SymmetricFunctionSpec, lam: np.ndarray) -> np.ndarray:
    """Strict membership of each row of the (N, n) batch lam in Gamma_k: all
    sigma margins > 0 (False on NaN rows)."""
    return np.all(sigma_margins(spec, lam) > 0.0, axis=1)


def _require_inside(spec: SymmetricFunctionSpec, lam: np.ndarray):
    """Raise OutsideCone unless every sigma_j, j <= k, is strictly positive on
    every row of the (N, n) batch lam (a single tuple is one row); the error
    names the first bad row and its first failing j."""
    lam = np.atleast_2d(lam)
    e = elementary_symmetric(lam, spec.k)
    bad = e[:, 1:] <= 0.0
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise OutsideCone(lam[i], e[i], int(np.argmax(bad[i])) + 1)


# ---------------------------------------------------------------------------
# f, Df, D^2 f
# ---------------------------------------------------------------------------

def _f_batch(spec: SymmetricFunctionSpec, lam: np.ndarray):
    """(f, sig_k, sig_l) on rows of lam via log form; caller guarantees
    positivity of sigmas."""
    return _f_of_sigmas(spec, elementary_symmetric(lam, spec.k))


def _f_of_sigmas(spec: SymmetricFunctionSpec, e: np.ndarray):
    """(f, sig_k, sig_l) from the rows sigma_0 = 1, sigma_1..sigma_k of e by
    the log form, which covers both families (sigma_0 = 1 for l = 0)."""
    sk, sl = e[:, spec.k], e[:, spec.l]
    return np.exp((np.log(sk) - np.log(sl)) / spec.degree), sk, sl


def f_and_grad_of_matrix(spec: SymmetricFunctionSpec, B: np.ndarray):
    """Batched (sig, f, D, ok) of the eigenvalues of the (N, n, n) matrices
    B, without computing the eigenvalues.

    sigma_j(lam(B)) and the Newton tensors T_j of B come from the recursion

        T_0 = I,  sigma_j = tr(B T_{j-1}) / j,  T_j = sigma_j I - B T_{j-1},

    and d sigma_j = tr(T_{j-1} dB) (Reilly, J. Differential Geom. 8, 1973),
    entrywise on the (N,) columns B[:, i, c]: no (N, n, n) temporary.  sig
    holds sigma_1..sigma_k (N, k), ok marks the rows where all are positive.
    f takes the log form of `_f_of_sigmas`, and D = f/(k-l) (T_{k-1}/sigma_k -
    T_{l-1}/sigma_l) is its derivative in the sense df = tr(D dB); both are
    computed on every row and are NaN on the rows outside the cone.
    """
    n, e = B.shape[1], np.ones((B.shape[0], spec.k + 1))
    ij = list(np.ndindex(n, n))
    T = [{(i, c): float(i == c) for i, c in ij}]  # T_0 = I
    BT = b = {(i, c): B[:, i, c] for i, c in ij}  # B T_0 = B
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, spec.k + 1):
            e[:, j] = functools.reduce(np.add, [BT[i, i] for i in range(n)]) / j
            if j < spec.k:  # the last step needs only the diagonal of B T_j
                T.append({(i, c): e[:, j] - BT[i, c] if i == c else -BT[i, c] for i, c in ij})
                BT = {(i, c): functools.reduce(np.add, [b[i, m] * T[j][m, c] for m in range(n)])
                      for i, c in ij if i == c or j + 1 < spec.k}
        ok = np.all(e[:, 1:] > 0.0, axis=1)
        f = np.where(ok, _f_of_sigmas(spec, e)[0], np.nan)
        fd, D = f / spec.degree, np.empty(B.shape)
        for i, c in ij:  # d log(sigma_k / sigma_l), scaled by f / (k - l)
            dlog = T[spec.k - 1][i, c] / e[:, spec.k]
            if spec.l:
                dlog = dlog - T[spec.l - 1][i, c] / e[:, spec.l]
            np.multiply(fd, dlog, out=D[:, i, c])
    return e[:, 1:], f, D, ok


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

    The non-raising entry point for eigenvalue fields (`operator.spectrum`);
    callers must honor the mask.
    """
    ok = np.all(sig > 0.0, axis=1)
    f = np.full(lam.shape[0], np.nan)
    grad = np.full(lam.shape, np.nan)
    if np.any(ok):
        f[ok], grad[ok] = _grad_batch(spec, lam[ok])
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
    then each exit ray an integer (its bulk base) and n normals.  Candidates
    are tested in batches no larger than the number still missing, and the
    accepted ones are kept in draw order, so the points do not depend on
    the batching.
    """
    rng = np.random.default_rng(seed)
    n_boundary = int(count * BOUNDARY_FRACTION)
    n_bulk = count - n_boundary

    def bulk(size):
        lam = np.empty((size, spec.n))
        for row in lam:
            d = rng.standard_normal(spec.n)
            if rng.random() < 0.5:
                d = np.abs(d) + 1e-3
            radius = SAMPLE_RMIN * (SAMPLE_RMAX / SAMPLE_RMIN) ** rng.random()
            row[:] = radius * (d / np.linalg.norm(d))
        return lam

    pts = _first_inside(spec, n_bulk, bulk)

    def pushed(size):
        base = np.empty((size, spec.n))
        d = np.empty((size, spec.n))
        for i in range(size):
            base[i] = pts[rng.integers(0, n_bulk)]
            d[i] = rng.standard_normal(spec.n)
        d /= _norms(d)[:, None]
        return base + 0.999 * _exit_parameters(spec, base, d)[:, None] * d

    return np.concatenate([pts, _first_inside(spec, n_boundary, pushed)])


def _norms(x):
    """np.linalg.norm of each row, bit for bit: vecdot runs the same dot
    kernel as the norm of one tuple (a row-wise add.reduce does not)."""
    return np.sqrt(np.vecdot(x, x))


def _first_inside(spec, count, draw):
    """The first `count` rows inside Gamma_k, in draw order, of batches
    draw(size) each as large as the number of rows still missing."""
    pts = np.empty((0, spec.n))
    drawn = 0
    while len(pts) < count:
        if drawn > 500 * count:
            raise RuntimeError("cone sampler failed to reach requested count")
        lam = draw(count - len(pts))
        drawn += len(lam)
        pts = np.concatenate([pts, lam[_inside(spec, lam)]])
    return pts


def _exit_parameters(spec, base, d):
    """Smallest t with base + t*d outside Gamma_k for each row d of an (N, n)
    batch of rays from one base or one base per row; NaN where the ray
    stays inside up to EXIT_T_CAP * (1 + |base|).  t doubles from
    1e-3 * (1 + |base|) to the first point outside, then EXIT_BISECTIONS
    bisections of [0, t] close in on the crossing."""
    base = np.broadcast_to(base, d.shape)
    scale = EXIT_T_CAP * (1.0 + _norms(base))
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
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
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
    ladder_values: list  # f(2^s * 1), s = 0..40
    ladder_monotone: bool


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
    scaled = np.linalg.eigvalsh(H)[:, -1] / (1.0 + np.abs(H).max(axis=(1, 2)))
    worst = int(np.argmax(scaled))
    worst_scaled = float(scaled[worst])
    if not worst_scaled <= 1e-8:
        raise StructureViolation("concavity of f", lam[worst], f"lambda_max(D^2 f) slack {worst_scaled:.3e}")

    min_f = float(f.min())
    if not min_f > 0.0:
        raise StructureViolation("positivity f > 0", lam[np.argmin(f)], f"min f = {min_f:.3e}")

    decay = _boundary_decay(spec, seed + 1)

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
    monotone = all(b > a for a, b in zip(ladder, ladder[1:])) and ladder[-1] > 1e9 * ladder[0]
    if not monotone:
        raise StructureViolation("divergence of f(R*1)", 2.0**40 * np.ones(spec.n), "ladder not monotone divergent")

    return StructureReport(
        min_grad_component=min_grad,
        max_hess_eig_scaled=worst_scaled,
        min_f=min_f,
        boundary_decay_ratios=decay,
        min_euler_bound=min_euler,
        nu0_hat=nu0,
        ladder_values=ladder,
        ladder_monotone=monotone,
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
        d /= _norms(d)[:, None]
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
) -> ThetaCertificate:
    """Sampled minimum of the normalized supporting-hyperplane excess.

    Over all pairs (mu, lam) with |nu_mu - nu_lam| >= zeta, returns

        theta_hat = min [ sum_i f_i(lam)(mu_i - lam_i) - f(mu) + f(lam) ]
                        / (1 + sum_i f_i(lam)).

    Vacuous (theta_hat = None) when no sampled pair meets the normal-gap
    premise.  Every pair, gap or not, is also checked against the plain
    concavity inequality (the bracket must be >= 0 up to round-off); failures
    are counted in `violations_at_zero` and indicate an implementation bug.
    """
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    K = np.atleast_2d(np.asarray(K_samples, dtype=float))
    lams = np.atleast_2d(np.asarray(lambda_samples, dtype=float))
    _require_inside(spec, K)
    _require_inside(spec, lams)

    f_lam, g_lam = _grad_batch(spec, lams)
    f_mu, g_mu = _grad_batch(spec, K)
    nu_lam = g_lam / np.linalg.norm(g_lam, axis=1, keepdims=True)
    nu_mu = g_mu / np.linalg.norm(g_mu, axis=1, keepdims=True)
    denom = 1.0 + g_lam.sum(axis=1)

    theta = np.inf
    worst = None
    pair_count = 0
    violations = 0
    min_bracket = np.inf
    # chunk over K to bound the pair matrices
    chunk = max(1, int(2e6 / max(1, lams.shape[0])))
    for s in range(0, K.shape[0], chunk):
        mu_blk = K[s : s + chunk]
        # bracket[t, j] for lam_t, mu_j
        bracket = g_lam @ mu_blk.T - np.einsum("ij,ij->i", g_lam, lams)[:, None] \
            - f_mu[s : s + chunk][None, :] + f_lam[:, None]
        scale = 1.0 + np.abs(f_lam)[:, None] + np.abs(f_mu[s : s + chunk])[None, :]
        violations += int(np.count_nonzero(bracket < -THETA_ZERO_GUARD * scale))
        min_bracket = min(min_bracket, float(bracket.min()))
        # |nu_lam - nu_mu| one axis at a time, without an (N, M, n) difference array
        gaps = np.sqrt(sum((nu_lam[:, i, None] - nu_mu[None, s : s + chunk, i]) ** 2
                           for i in range(K.shape[1])))
        mask = gaps >= zeta
        pair_count += int(np.count_nonzero(mask))
        if np.any(mask):
            ratios = np.where(mask, bracket / denom[:, None], np.inf)
            idx = np.unravel_index(np.argmin(ratios), ratios.shape)
            if ratios[idx] < theta:
                theta = float(ratios[idx])
                worst = (mu_blk[idx[1]].copy(), lams[idx[0]].copy())

    if pair_count == 0:
        return ThetaCertificate(None, zeta, lams.shape[0], 0, violations, min_bracket)
    if theta <= 0.0:
        raise StructureViolation(
            "supporting-hyperplane constant",
            worst,
            f"theta_hat = {theta:.3e} <= 0 despite normal gap >= {zeta}",
        )
    return ThetaCertificate(theta, zeta, lams.shape[0], pair_count, violations, min_bracket)
