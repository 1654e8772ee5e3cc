"""Grid, metric, covariant Hessian and pencil-eigenvalue tests."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from hessobs.errors import NotSPD
from hessobs.geometry import (
    ChartGrid,
    add_christoffel_term,
    christoffel_from_metric,
    covariant_hessian,
    derivative_to_chart,
    eigen_wrt_metric_field,
    flat_metric,
    _second_differences,
    gradient_centered,
    hessian_centered,
    metric_from_field,
    pin_boundary,
    stencil_scale,
    stencil_table,
    symmetric_eigenvalues,
    to_metric_frame,
)
from hessobs.config import build_runsetup, parse_config
from hessobs.newton import continuation_solve
from hessobs.operator import evaluate_state, spectrum
from hessobs.problems import bundled_config_text
from oracles import (
    LAPACK_EPS,
    dlae2_reference,
    eigvalsh2_reference,
    gradient_centered_reference,
    hessian_centered_reference,
    metric_from_callable,
)


def grid2(m=17, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return ChartGrid.box(lo, hi, m)


# -------------------------------------------------- grid plumbing

def test_grid_validation():
    with pytest.raises(ValueError, match="3 points per axis"):
        ChartGrid.box((0, 0), (1, 1), 2)
    with pytest.raises(ValueError):
        ChartGrid.box((0,), (1,), 5)
    with pytest.raises(ValueError):
        ChartGrid.box((0, 0), (0, 1), 5)


def test_pin_boundary():
    g = grid2(9)
    phi = g.sample(lambda x: x[..., 0] + 2.0 * x[..., 1])
    u = np.zeros(g.shape)
    pinned = pin_boundary(g, u, phi)
    assert np.array_equal(pinned[g.boundary_mask()], phi[g.boundary_mask()])
    assert np.all(pinned[g.interior] == 0.0)


# -------------------------------------------------- christoffel

def test_christoffel_constant_metric_zero():
    g = grid2(9)
    geo = metric_from_callable(g, lambda x: np.diag([2.0, 3.0]))
    assert np.abs(geo.christoffel).max() == 0.0


def test_christoffel_conformal_symbolic():
    # g = e^{2 x1} I in 2d: Gamma^k_ij = d_i phi delta_kj + d_j phi delta_ki - d_k phi delta_ij
    # with phi = x1: Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = 1, others 0.
    g = grid2(33)
    geo = metric_from_callable(g, lambda x: np.exp(2.0 * x[0]) * np.eye(2))
    gam = geo.christoffel
    assert np.abs(gam[:, 0, 0, 0] - 1.0).max() < 5e-3
    assert np.abs(gam[:, 0, 1, 1] + 1.0).max() < 5e-3
    assert np.abs(gam[:, 1, 0, 1] - 1.0).max() < 5e-3
    assert np.abs(gam[:, 1, 1, 1]).max() < 5e-3


def test_christoffel_symmetry_in_lower_indices():
    g = ChartGrid.box((-1, -1, -1), (1, 1, 1), 7)
    geo = metric_from_callable(
        g, lambda x: np.diag([1.0 + 0.3 * x[0] ** 2, 2.0 + 0.1 * x[1] ** 2, 1.5]) + 0.05 * np.ones((3, 3))
    )
    gam = geo.christoffel
    assert np.abs(gam - np.swapaxes(gam, -1, -2)).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_flat_metric_is_read_only_identity(n):
    g = ChartGrid.box((-1.0,) * n, (1.0,) * n, 5)
    geo = flat_metric(g)
    assert geo.is_flat
    assert geo.g.shape == geo.linv.shape == (g.n_interior, n, n)
    assert geo.christoffel.shape == (g.n_interior, n, n, n)
    assert np.array_equal(geo.g, np.broadcast_to(np.eye(n), geo.g.shape))
    assert np.array_equal(geo.linv, geo.g)
    assert not geo.christoffel.any()
    for arr in (geo.g, geo.linv, geo.christoffel):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_metric_not_spd_raises():
    g = grid2(5)
    with pytest.raises(NotSPD):
        metric_from_callable(g, lambda x: np.diag([1.0, -1.0]))


# -------------------------------------------------- covariant hessian

def test_flat_quadratic_hessian_exact():
    g = grid2(9)
    geo = flat_metric(g)
    u = g.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    H = covariant_hessian(u, geo, g, gradient_centered(u, g))
    assert np.abs(H - np.eye(2)).max() < 1e-13


def test_flat_general_quadratic_exact():
    g = grid2(11)
    geo = flat_metric(g)
    u = g.sample(lambda x: x[..., 0] ** 2 + 3.0 * x[..., 0] * x[..., 1] - 0.5 * x[..., 1] ** 2)
    H = covariant_hessian(u, geo, g, gradient_centered(u, g))
    expect = np.array([[2.0, 3.0], [3.0, -1.0]])
    assert np.abs(H - expect).max() < 1e-12


def test_hessian_linearity():
    g = grid2(13)
    geo = metric_from_callable(g, lambda x: np.exp(2.0 * x[0]) * np.eye(2))
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=g.shape), rng.normal(size=g.shape)
    Hu, Hv, Hcomb = (covariant_hessian(w, geo, g, gradient_centered(w, g))
                     for w in (u, v, 2.0 * u - 3.0 * v))
    assert np.abs(Hcomb - (2.0 * Hu - 3.0 * Hv)).max() < 1e-10


def test_metric_correction_hand_computed():
    # g = diag(e^{2 x1}, 1), u = x1: d_ij u = 0, so (nabla^2 u)_ij = -Gamma^1_ij.
    # Gamma^1_11 = 1 and Gamma^1_22 = -e^{-2 x1} * (-(1/2) d_1 g_22) = 0 here?
    # From the Levi-Civita formula: Gamma^1_11 = 1, Gamma^1_22 = 0, Gamma^1_12 = 0.
    g = grid2(33)
    geo = metric_from_callable(g, lambda x: np.diag([np.exp(2.0 * x[0]), 1.0]))
    u = g.sample(lambda x: x[..., 0])
    H = covariant_hessian(u, geo, g, gradient_centered(u, g))
    assert np.abs(H[..., 0, 0] + 1.0).max() < 5e-3
    assert np.abs(H[..., 0, 1]).max() < 5e-3
    assert np.abs(H[..., 1, 1]).max() < 5e-3


def test_hessian_convergence_order():
    errs = []
    for m in (17, 33, 65):
        g = grid2(m)
        geo = flat_metric(g)
        u = g.sample(lambda x: np.sin(x[..., 0]) * np.sin(x[..., 1]))
        H = covariant_hessian(u, geo, g, gradient_centered(u, g))
        x = g.interior_points()
        s0, s1 = np.sin(x[..., 0]), np.sin(x[..., 1])
        c0, c1 = np.cos(x[..., 0]), np.cos(x[..., 1])
        exact = np.empty(H.shape)
        exact[..., 0, 0] = -s0 * s1
        exact[..., 1, 1] = -s0 * s1
        exact[..., 0, 1] = exact[..., 1, 0] = c0 * c1
        errs.append(np.abs(H - exact).max())
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_gradient_centered_exact_on_linear():
    g = ChartGrid.box((-1, -1, -1), (1, 1, 1), 5)
    u = g.sample(lambda x: 2.0 * x[..., 0] - x[..., 1] + 0.5 * x[..., 2])
    du = gradient_centered(u, g)
    assert np.abs(du - np.array([2.0, -1.0, 0.5])).max() < 1e-13


# -------------------------------------------------- pencil eigenvalues

def constant_field(grid, block):
    return np.broadcast_to(np.asarray(block, dtype=float), grid.shape + np.shape(block)).copy()


def constant_blocks(grid, block):
    return np.broadcast_to(np.asarray(block, dtype=float),
                           (grid.n_interior,) + np.shape(block)).copy()


def test_eigen_identity_metric():
    g = grid2(5)
    X = constant_blocks(g, np.diag([3.0, 1.0]))
    want = constant_blocks(g, [3.0, 1.0])
    for geo in (flat_metric(g), metric_from_field(g, constant_field(g, np.eye(2)))):
        assert np.array_equal(eigen_wrt_metric_field(X, geo), want)


def test_eigen_diag_pencil():
    # det(X - lam g) = 0 with X = diag(4,2), g = diag(4,1): lam = {1, 2} descending
    g = grid2(5)
    geo = metric_from_field(g, constant_field(g, np.diag([4.0, 1.0])))
    lam = eigen_wrt_metric_field(constant_blocks(g, np.diag([4.0, 2.0])), geo)
    assert np.abs(lam - np.array([2.0, 1.0])).max() < 1e-15


def random_metric_and_field(n, m, seed):
    """A sampled anisotropic SPD metric on the grid and a random field of
    symmetric (N, n, n) blocks."""
    grid = ChartGrid.box((-1.0,) * n, (1.0,) * n, m)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=grid.shape + (n, n))
    X = rng.normal(size=(grid.n_interior, n, n))
    return grid, A @ np.swapaxes(A, -1, -2) + 3.0 * np.eye(n), 0.5 * (X + np.swapaxes(X, -1, -2))


@pytest.mark.parametrize("n", [2, 3])
def test_eigen_field_matches_scipy_eigh(n):
    grid, g, X = random_metric_and_field(n, 6, seed=n)
    geo = metric_from_field(grid, g)
    lam = eigen_wrt_metric_field(X, geo)
    ref = np.array([scipy.linalg.eigh(x, b, eigvals_only=True)[::-1] for x, b in zip(X, geo.g)])
    assert np.all(np.diff(lam, axis=1) <= 0.0)
    assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3])
def test_derivative_to_chart_is_the_adjoint_of_to_metric_frame(n):
    # df = tr(D dB) with dB = L^{-1} dX L^{-T} equals tr(F dX) for F = L^{-T} D L^{-1}
    grid, g, X = random_metric_and_field(n, 5, seed=10 + n)
    geo = metric_from_field(grid, g)
    D = np.random.default_rng(n).normal(size=X.shape)
    lhs = np.einsum("...ij,...ji->...", D, to_metric_frame(X, geo))
    rhs = np.einsum("...ij,...ji->...", derivative_to_chart(D, geo), X)
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()
    flat = flat_metric(grid)
    assert to_metric_frame(X, flat) is X and derivative_to_chart(D, flat) is D


def test_metric_field_not_spd_raises():
    g = grid2(5)
    with pytest.raises(NotSPD, match="not positive definite"):
        metric_from_field(g, constant_field(g, np.diag([1.0, -2.0])))


def test_metric_field_with_infinite_christoffel_raises():
    # finite and SPD, but its one-sided derivatives overflow; no numpy warning
    g = grid2(5)
    with pytest.raises(NotSPD, match="Christoffel"):
        metric_from_field(g, constant_field(g, np.diag([1e308, 1e308])))


# -------------------------------------------------- eigenvalues of 2x2 blocks

def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def assert_eigvalsh_bits(B):
    # the closed form gives eigvalsh's bits on every row, the sign of zero included
    assert np.array_equal(bits(symmetric_eigenvalues(B)), bits(np.linalg.eigvalsh(B)[..., ::-1]))


# ties and signed zeros
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -3.5]


def lower_blocks(a, b, c):
    """(N, 2, 2) blocks with diagonal (a, c), lower entry b and a NaN upper
    entry, which neither eigvalsh nor the closed form reads."""
    B = np.empty((len(a), 2, 2))
    B[:, 0, 0], B[:, 1, 0], B[:, 1, 1], B[:, 0, 1] = a, b, c, np.nan
    return B


@pytest.mark.parametrize("metric", ["kind = flat", 'kind = conformal\n  phi = "0.05*x1"'])
def test_symmetric_eigenvalues_are_eigvalsh_on_solved_states(metric):
    text = bundled_config_text("ma_obstacle").replace("kind = flat", metric)
    rs = build_runsetup(parse_config(text).override(grid_m=25))
    prob = rs.problem
    res = continuation_solve(prob, rs.config.schedule, rs.config.newton)
    for eps, u in zip(res.epsilons, res.solutions):
        st = evaluate_state(u, prob, eps)
        B = to_metric_frame(st.U, prob.metric)
        assert_eigvalsh_bits(B)
        assert np.array_equal(bits(spectrum(st, prob)), bits(np.linalg.eigvalsh(B)[:, ::-1]))


def test_symmetric_eigenvalues_are_eigvalsh_on_random_blocks():
    rng = np.random.default_rng(0)
    N = 100_000
    a, b, c = rng.normal(size=(3, N))
    assert_eigvalsh_bits(lower_blocks(a, b, c))
    # scales across the unscaled range, and b at dsterf's split thresholds
    scale = np.ldexp(1.0, rng.integers(-400, 480, size=N))
    assert_eigvalsh_bits(lower_blocks(a * scale, b * scale, c * scale))
    at_split = np.sqrt(np.abs(a * c)) * LAPACK_EPS * rng.uniform(0.5, 2.0, size=N)
    assert_eigvalsh_bits(lower_blocks(a, at_split, c))
    # magnitudes e^+-700, most rows outside the unscaled range
    wide = np.exp(rng.uniform(-700.0, 700.0, size=(3, N)))
    assert_eigvalsh_bits(lower_blocks(a * wide[0], b * wide[1], c * wide[2]))


def test_symmetric_eigenvalues_on_ties_and_signed_zeros():
    a, b, c = np.array(list(itertools.product(TIE_VALUES, repeat=3))).T
    assert_eigvalsh_bits(lower_blocks(a, b, c))


def threshold_blocks(anrm):
    """Random blocks scaled so that their largest |entry| is anrm exactly."""
    X = np.random.default_rng(3).normal(size=(1000, 3))
    X = X / np.abs(X).max(axis=1, keepdims=True) * anrm
    assert np.all(np.abs(X).max(axis=1) == anrm)
    return lower_blocks(*X.T)


def closed_form(B):
    return np.array([eigvalsh2_reference(*row)[::-1] for row in B[:, [0, 1, 1], [0, 0, 1]]])


@pytest.mark.parametrize("anrm", [2.0**-405, 2.0**485])
def test_symmetric_eigenvalues_at_the_rescaling_thresholds(anrm):
    # at the ends of the range neither dsyevd nor dsterf rescales, and the
    # closed form is eigvalsh; one ulp beyond they do, and it is not
    inside = threshold_blocks(anrm)
    assert_eigvalsh_bits(inside)
    assert np.array_equal(bits(closed_form(inside)), bits(np.linalg.eigvalsh(inside)[:, ::-1]))
    beyond = threshold_blocks(np.nextafter(anrm, 0.0 if anrm < 1.0 else np.inf))
    assert_eigvalsh_bits(beyond)
    assert not np.array_equal(bits(closed_form(beyond)), bits(np.linalg.eigvalsh(beyond)[:, ::-1]))


def test_symmetric_eigenvalues_of_nonfinite_rows_are_eigvalsh():
    nan, inf = np.nan, np.inf
    B = lower_blocks(np.array([nan, 1.0, inf, -inf, 1.0, 1.0, inf]),
                     np.array([1.0, nan, 1.0, 1.0, inf, -inf, inf]),
                     np.array([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, -inf]))
    assert_eigvalsh_bits(np.concatenate([B, lower_blocks(*np.ones((3, 4)))]))


def test_symmetric_eigenvalues_match_the_lapack_port():
    # the port is held to the kernel on rows of the unscaled range, without
    # calling LAPACK: random, near-split, tie and signed-zero rows
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=(3, 3000))
    b[1000:2000] = np.sqrt(np.abs(a * c))[1000:2000] * LAPACK_EPS * rng.uniform(0.5, 2.0, size=1000)
    b[2000:] = 0.0
    ties = np.array(list(itertools.product(TIE_VALUES, repeat=3))).T
    B = np.concatenate([lower_blocks(a, b, c), lower_blocks(*ties)])
    assert np.array_equal(bits(symmetric_eigenvalues(B)), bits(closed_form(B)))


def test_dlae2_is_symmetric_in_its_diagonal():
    # why the kernel needs no QR order: dsterf hands DLAE2 (c, a) when
    # |c| < |a| and stores its roots swapped, and DLAE2's roots do not
    # depend on the order of a and c, so the sort erases the swap
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(5000, 3)) * np.exp(rng.uniform(-300.0, 300.0, size=(5000, 3)))
    rows = np.concatenate([rows, list(itertools.product(TIE_VALUES, repeat=3))])
    for a, b, c in rows:
        rte = math.sqrt(b * b)
        assert bits(dlae2_reference(a, rte, c)).tolist() == bits(dlae2_reference(c, rte, a)).tolist()


# -------------------------------------------------- the Christoffel term

def anisotropic_metric(grid):
    """A smooth SPD metric with nonzero off-diagonal entries and varying
    eigenvalues, sampled on the whole grid."""
    n, x = grid.n, grid.points()
    g = np.eye(n) * (1.0 + 0.3 * x[..., :1, None] ** 2) + 0.1 * np.sin(
        x[..., :, None] + 2.0 * x[..., None, :])
    return 0.5 * g + 0.5 * np.swapaxes(g, -1, -2)


def looped_christoffel(g, grid):
    """The bracket d_i g_jl + d_j g_il - d_l g_ij index by index."""
    n = grid.n
    dg = np.stack([np.gradient(g, grid.spacing[d], axis=d, edge_order=2) for d in range(n)],
                  axis=-3)
    bracket = np.empty_like(dg)
    for l in range(n):
        for i in range(n):
            for j in range(n):
                bracket[..., l, i, j] = dg[..., i, j, l] + dg[..., j, i, l] - dg[..., l, i, j]
    return 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(g), bracket)


@pytest.mark.parametrize("n", [2, 3])
def test_christoffel_bracket_by_axes_equals_the_loop(n):
    grid = ChartGrid.box((-1.0,) * n, (1.0,) * n, 7)
    g = anisotropic_metric(grid)
    assert np.array_equal(christoffel_from_metric(g, grid), looped_christoffel(g, grid))


def test_christoffel_term():
    # g = e^{2 x1} I: Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = Gamma^2_21 = 1, so
    # -F^{ij} Gamma^k_ij = (F_22 - F_11, -2 F_12) up to the metric's difference error
    g = grid2(33)
    geo = metric_from_callable(g, lambda x: np.exp(2.0 * x[0]) * np.eye(2))
    A = np.random.default_rng(0).normal(size=(g.n_interior, 2, 2))
    F, c1 = A + np.swapaxes(A, 1, 2), np.ones((g.n_interior, 2))
    want = c1 + np.stack([F[:, 1, 1] - F[:, 0, 0], -2.0 * F[:, 0, 1]], axis=1)
    assert np.abs(add_christoffel_term(c1, F, geo) - want).max() < 5e-3 * np.abs(F).max()
    assert add_christoffel_term(c1, F, flat_metric(g)) is c1


# -------------------------------------------------- the per-point layout

def at_index(grid, i):
    """The full-grid multi-index of row i of a per-point block."""
    return tuple(int(j) + 1 for j in np.unravel_index(i, grid.interior_shape))


@pytest.mark.parametrize("n, m", [(2, (6, 9)), (3, (5, 6, 4))])
def test_per_point_outputs_are_blocks_in_interior_ravel_order(n, m):
    grid = ChartGrid.box((-1.0,) * n, (1.0,) * n, m)
    N, h = grid.n_interior, grid.spacing
    u = np.random.default_rng(n).normal(size=grid.shape)
    x = grid.interior_points()
    du = gradient_centered(u, grid)
    H = hessian_centered(u, grid)
    assert x.shape == du.shape == (N, n) and H.shape == (N, n, n)
    pts = grid.points()
    assert np.array_equal(x[:, 0], pts[..., 0][grid.interior].ravel())
    assert np.array_equal(u[grid.interior].ravel(), [u[at_index(grid, i)] for i in range(N)])
    for i in (0, 1, N // 2, N - 1):
        c = at_index(grid, i)
        assert np.array_equal(x[i], pts[c])
        for d in range(n):
            up, dn = list(c), list(c)
            up[d] += 1
            dn[d] -= 1
            assert du[i, d] == (u[tuple(up)] - u[tuple(dn)]) / (2.0 * h[d])
            assert H[i, d, d] == (u[tuple(up)] - 2.0 * u[c] + u[tuple(dn)]) / h[d] ** 2
    assert covariant_hessian(u, flat_metric(grid), grid, du).shape == (N, n, n)
    # a transposed view would change the last bit of einsums that read them
    assert du.flags.c_contiguous and H.flags.c_contiguous


# -------------------------------------------------- the Hessian as one cached product

SPECIAL = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 1e-200, -1e-200, 0.0, -0.0])


def stencil_fields(shape, seed):
    """Normal draws; the same with half the points NaN, +-inf, +-1e200,
    +-1e-200 or +-0.0; and signed zeros only."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape)
    special = u.copy()
    mask = rng.random(shape) < 0.5
    special[mask] = rng.choice(SPECIAL, mask.sum())
    return u, special, rng.choice([0.0, -0.0], shape)


@pytest.mark.parametrize("m", [(3, 3), (3, 7), (9, 14, 7)])
@pytest.mark.parametrize("anisotropic", [False, True])
@np.errstate(all="ignore")
def test_hessian_matches_the_slice_reference_bit_for_bit(m, anisotropic):
    n = len(m)
    lo, hi = ((-1.0, 0.0, 2.0)[:n], (1.0, 3.0, 2.5)[:n]) if anisotropic else ((-1.0,) * n, (1.0,) * n)
    grid = ChartGrid.box(lo, hi, m)
    for k, u in enumerate(stencil_fields(m, len(m) + anisotropic)):
        got, want = hessian_centered(u, grid), hessian_centered_reference(u, grid)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want, equal_nan=True)
        differ = got.view(np.uint64) != want.view(np.uint64)
        # the one exception: a -0.0 of the slice form reads +0.0
        assert (got[differ] == 0.0).all() and np.signbit(want[differ]).all()
        assert not np.signbit(got[differ]).any()
        if k == 1:
            assert not np.isfinite(want).all()
        grad = gradient_centered(u, grid)
        assert grad.flags.c_contiguous
        assert grad.tobytes() == gradient_centered_reference(u, grid).tobytes()


def test_hessian_reads_plus_zero_where_the_slice_form_reads_minus_zero():
    # -0.0 at both x1-neighbours of a +0.0 centre: the slice form's
    # (-0.0 - 2 * 0.0) + -0.0 is -0.0, while the product sums from +0.0
    grid = ChartGrid.box((-1.0, -1.0), (1.0, 1.0), 3)
    u = np.zeros(grid.shape)
    u[0, 1] = u[2, 1] = -0.0
    got, want = hessian_centered(u, grid), hessian_centered_reference(u, grid)
    assert np.array_equal(got, want)
    assert np.signbit(want[0, 0, 0]) and not np.signbit(got[0, 0, 0])
    assert got.view(np.uint64)[0, 1:].tolist() == want.view(np.uint64)[0, 1:].tolist()


def test_second_differences_are_cached_per_shape_and_read_only():
    # the operator is built once per shape from the stencil table, built
    # once per n; the table is tuples all through, so it hashes
    _second_differences.cache_clear()
    stencil_table.cache_clear()
    a = ChartGrid.box((-1, -1), (1, 1), 9)
    b = ChartGrid.box((0, -3), (2, 5), 9)  # the same shape, another spacing
    for grid in (a, b):
        hessian_centered(np.ones(grid.shape), grid)
    info = _second_differences.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert stencil_table.cache_info().misses == 1
    hash(stencil_table(2))
    pairs, A = _second_differences(a.shape)
    assert pairs == ((0, 0), (1, 1), (0, 1))
    for arr in (A.data, A.indices, A.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[1]


@pytest.mark.parametrize("n", [2, 3])
def test_stencil_table_is_exact_on_quadratics(n):
    # at unit spacing, each entry's weighted sum of a monomial of degree
    # <= 2 over the entry's offsets, divided by its scale, is the
    # monomial's derivative at 0
    table = stencil_table(n)
    assert [d for d, _ in table] == ([(d, d) for d in range(n)]
                                     + list(itertools.combinations(range(n), 2))
                                     + [(d,) for d in range(n)])
    monomials = [(), *((k,) for k in range(n)), *itertools.combinations_with_replacement(range(n), 2)]
    for derivative, terms in table:
        for mono in monomials:
            got = sum(w * math.prod(o[k] for k in mono) for o, w in terms)
            want = (mono == derivative) * (2 if mono == (derivative[0],) * 2 else 1)
            assert got / stencil_scale(derivative, np.ones(n)) == want


@pytest.mark.parametrize("n", [2, 3])
def test_metric_arrays_are_interior_blocks(n):
    grid = ChartGrid.box((-1.0,) * n, (1.0,) * n, 6)
    N = grid.n_interior
    g = anisotropic_metric(grid)
    for geo in (flat_metric(grid), metric_from_field(grid, g)):
        assert geo.g.shape == geo.linv.shape == (N, n, n)
        assert geo.christoffel.shape == (N, n, n, n)
    geo = metric_from_field(grid, g)
    assert np.array_equal(geo.g, g[grid.interior].reshape(-1, n, n))
    assert np.abs(geo.linv @ geo.g @ np.swapaxes(geo.linv, -1, -2) - np.eye(n)).max() < 1e-14
    for arr in (geo.g, geo.linv, geo.christoffel):
        assert arr.flags.c_contiguous


@pytest.mark.parametrize("n, m", [(2, 13), (3, 7)])
def test_curved_metric_products_equal_the_full_grid_reference_bit_for_bit(n, m):
    # the blocks give the numbers the full-grid arrays, sliced to the
    # interior at each call, gave
    grid = ChartGrid.box((-1.0,) * n, (1.0,) * n, m)
    g = anisotropic_metric(grid)
    geo = metric_from_field(grid, g)
    gamma = christoffel_from_metric(g, grid)[grid.interior]  # interior-grid view
    Li = np.linalg.inv(np.linalg.cholesky(g))[grid.interior].reshape(-1, n, n)
    rng = np.random.default_rng(n)
    u = rng.normal(size=grid.shape)
    shape = grid.interior_shape
    H = hessian_centered(u, grid).reshape(shape + (n, n))
    du = gradient_centered(u, grid).reshape(shape + (n,))
    cov = (H - np.einsum("...kij,...k->...ij", gamma, du)).reshape(-1, n, n)
    assert np.array_equal(covariant_hessian(u, geo, grid, gradient_centered(u, grid)), cov)
    X = rng.normal(size=(grid.n_interior, n, n))
    X = X + np.swapaxes(X, -1, -2)
    LiT = np.swapaxes(Li, -1, -2).copy()
    assert np.array_equal(to_metric_frame(X, geo), Li @ X @ LiT)
    assert np.array_equal(derivative_to_chart(X, geo), LiT @ X @ Li)
    c1 = rng.normal(size=(grid.n_interior, n))
    want = c1 - np.einsum("...ij,...kij->...k", X, gamma.reshape(-1, n, n, n))
    assert np.array_equal(add_christoffel_term(c1, X, geo), want)
