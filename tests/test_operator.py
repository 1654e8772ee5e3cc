"""Penalty, residual, linearization and linear-operator tests."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hessobs.config import build_runsetup, parse_config
from hessobs.errors import BadEpsilon, NotAdmissible, PsiNotPositive
from hessobs.geometry import (
    ChartGrid,
    covariant_hessian,
    flat_metric,
    interior_shift,
)
from hessobs.monitors import solved_state, theta_certificate
from hessobs.newton import COARSE_N, laplace_beltrami_solve
from hessobs.operator import (
    Problem,
    _stencil_pattern,
    assemble_operator,
    certify_coefficients,
    evaluate_state,
    linearize,
    operator_L,
    penalty,
    residual,
)
from hessobs.problems import bundled_config_text
from hessobs.symfunc import SymmetricFunctionSpec
from oracles import coefficients_from_expressions, metric_from_callable


def make_problem(m=17, fspec=None, psi="2", a_mode="zero", a_param=None,
                 h_fn=None, phi_fn=None, lo=(-1, -1), hi=(1, 1)):
    grid = ChartGrid.box(lo, hi, m)
    metric = flat_metric(grid)
    fspec = fspec or SymmetricFunctionSpec(2, 1)
    coeff = coefficients_from_expressions(grid.n, psi, a_mode, a_param)
    pts = grid.points()
    h = h_fn(pts) if h_fn else np.full(grid.shape, 1e6)
    phi = phi_fn(pts) if phi_fn else np.zeros(grid.shape)
    return Problem(grid=grid, metric=metric, fspec=fspec, coeff=coeff, h=h, phi=phi)


def test_problem_pins_supplied_subsolution():
    # the subsolution's boundary layer is replaced by phi, its interior kept
    prob = make_problem(phi_fn=lambda pts: pts[..., 0] ** 2)
    sub = np.full(prob.grid.shape, 5.0)
    prob = Problem(grid=prob.grid, metric=prob.metric, fspec=prob.fspec, coeff=prob.coeff,
                   h=prob.h, phi=prob.phi, subsolution=sub)
    edge = prob.grid.boundary_mask()
    assert np.array_equal(prob.subsolution[edge], prob.phi[edge])
    assert (prob.subsolution[~edge] == 5.0).all()
    assert (sub == 5.0).all()  # the caller's array is not modified


# -------------------------------------------------- penalty

def test_penalty_negative_branch():
    assert penalty(0.5, -1.0) == (0.0, 0.0)


def test_penalty_value_cubic_branch():
    v, d1 = penalty(1e-3, 0.1)
    assert v == pytest.approx(1.0)
    assert d1 == pytest.approx(30.0)


def test_penalty_bad_epsilon():
    for eps in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(BadEpsilon):
            penalty(eps, 0.1)


def test_penalty_properties_grid():
    zs = np.linspace(-1.0, 1.0, 201)
    prev = None
    for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        v, d1 = penalty(eps, zs)
        assert np.all(v >= 0) and np.all(d1 >= 0)
        assert np.all(v[zs <= 0.0] == 0.0)
        if prev is not None:
            grow = zs > 0.0
            assert np.all(v[grow] > prev[grow])  # strictly increasing in 1/eps
        prev = v


def test_penalty_c2_at_zero():
    v, d1 = penalty(1e-2, np.array([-1e-9, 0.0, 1e-9]))
    assert np.abs(v).max() < 1e-20
    assert np.abs(d1).max() < 1e-12
    assert np.abs(np.diff(d1) / 1e-9).max() < 1e-6  # the second derivative, by difference


# -------------------------------------------------- residual

def test_residual_trivial_sigma1():
    # u = |x|^2/2, psi = n, huge obstacle: residual vanishes identically
    prob = make_problem(m=13, psi="2")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    r = residual(u, prob, 1e-2)
    assert r.admissible
    assert np.abs(r.values).max() < 1e-12


def test_residual_flags_inadmissible():
    prob = make_problem(m=9, fspec=SymmetricFunctionSpec(2, 2), psi="1")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2))
    r = residual(u, prob, 1e-2)
    assert not r.admissible
    assert np.isnan(r.values[~r.ok]).all()
    assert len(r.flagged_points(prob.grid)) == (~r.ok).sum()


def test_monitors_name_the_flagged_points():
    # the saddle above: solved_state and the audit's subsolution check raise
    # NotAdmissible with the points outside the cone
    prob = make_problem(m=9, fspec=SymmetricFunctionSpec(2, 2), psi="1")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2))
    flagged = residual(u, prob, 1e-2).flagged_points(prob.grid)
    assert flagged
    for check in (solved_state,
                  lambda u, prob, eps: theta_certificate(u, prob, theta_samples=10, seed=0)):
        with pytest.raises(NotAdmissible) as exc:
            check(u, prob, 1e-2)
        assert exc.value.points == flagged


def test_residual_subsolution_sign():
    # strict subsolution below the obstacle: residual >= 0 pointwise
    prob = make_problem(m=15, psi="1", h_fn=lambda x: np.full(x.shape[:-1], 10.0))
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)  # laplacian 4 >= 1
    r = residual(u, prob, 1e-2)
    assert r.values.min() >= 3.0 - 1e-12


def test_residual_psi_floor():
    prob = make_problem(m=9, psi="x1")  # psi <= 0 on half the square
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    with pytest.raises(PsiNotPositive):
        residual(u, prob, 1e-2)


def test_residual_manufactured_order():
    # n=2 Monge-Ampere: u* = exp(r^2/2), psi = sqrt(det D^2 u*)
    errs = []
    for m in (17, 33, 65):
        prob = make_problem(
            m=m,
            fspec=SymmetricFunctionSpec(2, 2),
            psi="exp((x1^2+x2^2)/2)*sqrt(1+x1^2+x2^2)",
            h_fn=lambda x: np.exp((x[..., 0] ** 2 + x[..., 1] ** 2) / 2) + 1.0,
        )
        u = prob.grid.sample(lambda x: np.exp((x[..., 0] ** 2 + x[..., 1] ** 2) / 2))
        r = residual(u, prob, 1e-2)
        assert r.admissible
        errs.append(np.abs(r.values).max())
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert orders[-1] >= 1.9  # asymptotic pair
    assert min(orders) >= 1.8  # coarse pair is still pre-asymptotic


# -------------------------------------------------- linearize

def test_linearize_sigma1_is_discrete_laplacian():
    prob = make_problem(m=9, psi="1")
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    st = evaluate_state(u, prob, 1e-2)
    assert np.abs(st.Fij - np.eye(2)).max() < 1e-12
    # matrix row for an interior point away from the boundary: 5-point laplacian
    grid = prob.grid
    idx = np.full(grid.shape, -1)
    idx[grid.interior] = np.arange(grid.n_interior).reshape(grid.interior_shape)
    center = idx[4, 4]
    row = linearize(st, prob).getrow(center).toarray().ravel()
    h2 = grid.spacing[0] ** 2
    assert row[center] == pytest.approx(-4.0 / h2)
    for nb in (idx[3, 4], idx[5, 4], idx[4, 3], idx[4, 5]):
        assert row[nb] == pytest.approx(1.0 / h2)


def test_linearize_requires_admissible():
    prob = make_problem(m=9, fspec=SymmetricFunctionSpec(2, 2), psi="1")
    u = prob.grid.sample(lambda x: 0.5 * (x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2))
    with pytest.raises(NotAdmissible):
        linearize(evaluate_state(u, prob, 1e-2), prob)


def test_linearize_fij_positive_definite():
    prob = make_problem(m=13, fspec=SymmetricFunctionSpec(2, 2), psi="1",
                        a_mode="kappa_zg", a_param=0.5)
    u = prob.grid.sample(
        lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.2 * np.sin(x[..., 0]) + 3.0
    )
    assert np.linalg.eigvalsh(evaluate_state(u, prob, 1e-2).Fij).min() > 0.0


@pytest.mark.parametrize("fspec", [SymmetricFunctionSpec(2, 1), SymmetricFunctionSpec(2, 2),
                                   SymmetricFunctionSpec(2, 2, 1)], ids=str)
def test_jacobian_matches_directional_fd(fspec):
    # flat metric, A = kappa z g, psi with p dependence; obstacle active
    prob = make_problem(
        m=11, fspec=fspec, psi="1 + 0.1*(p1 + 2*p2) + 0.05*z",
        a_mode="kappa_zg", a_param=0.5,
        h_fn=lambda x: np.full(x.shape[:-1], 5.2),
    )
    rng = np.random.default_rng(8)
    base = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 5.0)
    bump = np.zeros(prob.grid.shape)
    bump[prob.grid.interior] = 0.002 * rng.standard_normal(prob.grid.interior_shape)
    u = base + bump  # interior-perturbed admissible state, violates h slightly
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    t = 1e-6
    worst = 0.0
    for _ in range(20):
        d = np.zeros(prob.grid.shape)
        d[prob.grid.interior] = rng.standard_normal(prob.grid.interior_shape)
        Jd = J @ d[prob.grid.interior].ravel()
        r1 = residual(u + t * d, prob, eps).values.ravel()
        fd = (r1 - r0) / t
        rel = np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_jacobian_fd_scalar_metric_p_dependent():
    # A = s g with s depending on z and p exercises the A_p column of the stencil
    prob = make_problem(m=11, fspec=SymmetricFunctionSpec(2, 2), psi="1 + 0.05*p2",
                        a_mode="scalar_metric", a_param="0.2*z + 0.05*(p1^2 + p1*p2)")
    rng = np.random.default_rng(3)
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 0.3 * x[..., 0] + 2.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    t = 1e-6
    for _ in range(5):
        d = np.zeros(prob.grid.shape)
        d[prob.grid.interior] = rng.standard_normal(prob.grid.interior_shape)
        Jd = J @ d[prob.grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


@pytest.mark.parametrize("a_mode, a_param, want_s, want_s_z, want_s_p", [
    ("zero", None, lambda z, p: 0 * z, lambda z, p: 0 * z, lambda z, p: 0 * p),
    ("kappa_zg", -0.5, lambda z, p: -0.5 * z, lambda z, p: -0.5 + 0 * z, lambda z, p: 0 * p),
    ("scalar_metric", "z^2 + 3*p2", lambda z, p: z**2 + 3 * p[:, 1], lambda z, p: 2 * z,
     lambda z, p: np.stack([0 * z, 3 + 0 * z], axis=1)),
], ids=["zero", "kappa_zg", "scalar_metric"])
def test_coefficients_are_scalar_multiples_of_metric(a_mode, a_param, want_s, want_s_z,
                                                     want_s_p):
    # A = s g: the field returns the scalars s, psi and their z and p derivatives
    rng = np.random.default_rng(0)
    x, p = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    z = rng.standard_normal(6)
    coeff = coefficients_from_expressions(2, "2 + x1*z + p1^2", a_mode, a_param)
    (s, psi), (s_z, psi_z), (s_p, psi_p) = (coeff.at(x, z, p, wrt=w) for w in (None, "z", "p"))
    assert [a.shape for a in (s, psi, s_z, psi_z, s_p, psi_p)] == [(6,)] * 4 + [(6, 2)] * 2
    np.testing.assert_allclose(s, want_s(z, p))
    np.testing.assert_allclose(s_z, want_s_z(z, p))
    np.testing.assert_allclose(s_p, want_s_p(z, p))
    np.testing.assert_allclose(psi, 2 + x[:, 0] * z + p[:, 0] ** 2)
    np.testing.assert_allclose(psi_z, x[:, 0])
    np.testing.assert_allclose(psi_p, np.stack([2 * p[:, 0], 0 * z], axis=1))


def test_jacobian_fd_conformal_metric():
    grid = ChartGrid.box((-1, -1), (1, 1), 11)
    metric = metric_from_callable(grid, lambda x: np.exp(0.4 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 1),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(3)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


def test_jacobian_fd_sigma2_anisotropic_metric():
    # F^{ij} = D g^{-1} on a metric with off-diagonal entries
    grid = ChartGrid.box((-1, -1), (1, 1), 11)
    metric = metric_from_callable(
        grid, lambda x: np.array([[1.5 + 0.3 * x[0], 0.4 * np.sin(x[1])],
                                  [0.4 * np.sin(x[1]), 1.0 + 0.2 * x[0] * x[1]]]))
    coeff = coefficients_from_expressions(2, "1 + 0.05*p1", "kappa_zg", 0.2)
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 2),
                   coeff=coeff, h=np.full(grid.shape, 3.1), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: x[..., 0] ** 2 + 1.5 * x[..., 1] ** 2 + 0.3 * x[..., 0] * x[..., 1] + 3.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(4)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


def test_linearize_sigma1_curved_fij_is_metric_inverse():
    grid = ChartGrid.box((-1, -1), (1, 1), 9)
    metric = metric_from_callable(grid, lambda x: np.exp(0.6 * x[0]) * np.eye(2))
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=metric, fspec=SymmetricFunctionSpec(2, 1),
                   coeff=coeff, h=np.full(grid.shape, 1e6), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: 4.0 * (x[..., 0] ** 2 + x[..., 1] ** 2))
    st = evaluate_state(u, prob, 1e-2)
    ginv = metric.ginv[grid.interior].reshape(-1, 2, 2)
    assert np.abs(st.Fij - ginv).max() < 1e-10


# -------------------------------------------------- operator_L

def test_operator_L_constant_is_zero():
    prob = make_problem(m=11, psi="1")
    st = evaluate_state(prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2), prob, 1e-2)
    v = np.full(prob.grid.shape, 3.7)
    assert np.abs(operator_L(st, prob, v)).max() < 1e-12


def test_operator_L_sigma1_is_laplacian():
    prob = make_problem(m=11, psi="1")
    st = evaluate_state(prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2), prob, 1e-2)
    v = prob.grid.sample(lambda x: x[..., 0] ** 2 - 3.0 * x[..., 1] ** 2 + x[..., 0] * x[..., 1])
    Lv = operator_L(st, prob, v)
    assert np.abs(Lv - (2.0 - 6.0)).max() < 1e-10


def test_operator_L_linearity():
    prob = make_problem(m=11, fspec=SymmetricFunctionSpec(2, 2), psi="1 + 0.1*p1")
    u = prob.grid.sample(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 + 2.0)
    st = evaluate_state(u, prob, 1e-2)
    rng = np.random.default_rng(0)
    v, w = rng.normal(size=prob.grid.shape), rng.normal(size=prob.grid.shape)
    lhs = operator_L(st, prob, 2.0 * v - 0.5 * w)
    rhs = 2.0 * operator_L(st, prob, v) - 0.5 * operator_L(st, prob, w)
    assert np.abs(lhs - rhs).max() < 1e-8


# -------------------------------------------------- assembly

def reference_assemble(grid, Fij, c1, c0):
    """The COO builder `assemble_operator` replaced: every stencil entry at
    an interior neighbor is pushed as (row, column, value), then tocsr."""
    n = grid.n
    h = grid.spacing
    N = grid.n_interior
    idx = np.full(grid.shape, -1)
    idx[grid.interior] = np.arange(N).reshape(grid.interior_shape)
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
            push(tuple(off), Fij[:, d, d] / h[d] ** 2 + s * c1[:, d] / (2.0 * h[d]))
    for d in range(n):
        for e in range(d + 1, n):
            for sd in (+1, -1):
                for se in (+1, -1):
                    off = [0] * n
                    off[d], off[e] = sd, se
                    push(tuple(off), sd * se * Fij[:, d, e] / (2.0 * h[d] * h[e]))
    J = sp.coo_matrix(
        (np.concatenate(data_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(N, N),
    )
    return J.tocsr()


def assembly_inputs(interior_shape, curved, diagonal_F, array_c0, seed=0):
    """A grid of the given interior shape on [-1, 1]^n, and (Fij, c1, c0) on
    it: Fij random symmetric, or its diagonal only (exact zero
    off-diagonals); c1 zero on the flat metric and -Fij Gamma on a conformal
    one; c0 an array or a scalar."""
    n = len(interior_shape)
    grid = ChartGrid.box((-1,) * n, (1,) * n, [k + 2 for k in interior_shape])
    N = grid.n_interior
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, n, n))
    Fij = X + X.transpose(0, 2, 1)
    if diagonal_F:
        Fij = Fij * np.eye(n)
    if curved:
        metric = metric_from_callable(grid, lambda x: np.exp(0.8 * x[0]) * np.eye(n))
        gamma = metric.christoffel[grid.interior].reshape(-1, n, n, n)
        c1 = -np.einsum("...ij,...kij->...k", Fij, gamma)
        assert np.abs(c1).max() > 0.0
    else:
        c1 = np.zeros((N, n))
    c0 = rng.standard_normal(N) if array_c0 else -1.5
    return grid, Fij, c1, c0


@pytest.mark.parametrize("interior_shape", [(1, 1), (1, 5), (2, 2), (1, 1, 1), (7, 12, 5)])
@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("diagonal_F", [False, True])
@pytest.mark.parametrize("array_c0", [False, True])
def test_assembly_matches_reference_coo_bit_for_bit(interior_shape, curved, diagonal_F, array_c0):
    grid, Fij, c1, c0 = assembly_inputs(interior_shape, curved, diagonal_F, array_c0)
    J = assemble_operator(grid, Fij, c1, c0)
    ref = reference_assemble(grid, Fij, c1, c0)
    assert J.shape == ref.shape
    assert J.data.dtype == ref.data.dtype and J.data.tobytes() == ref.data.tobytes()
    assert J.indices.dtype == J.indptr.dtype == np.int32
    assert np.array_equal(J.indices, ref.indices) and np.array_equal(J.indptr, ref.indptr)
    # an exact zero stays in the pattern, so J's pattern is the same at every call
    general = assemble_operator(*assembly_inputs(interior_shape, curved, False, array_c0))
    assert np.array_equal(J.indices, general.indices) and np.array_equal(J.indptr, general.indptr)
    if diagonal_F and interior_shape in ((2, 2), (7, 12, 5)):
        assert (J.data == 0.0).any()


def test_stencil_pattern_is_cached_per_interior_shape():
    _stencil_pattern.cache_clear()
    a = ChartGrid.box((-1, -1), (1, 1), 9)
    b = ChartGrid.box((0, -3), (2, 5), 9)
    Ja = assemble_operator(a, *assembly_inputs(a.interior_shape, False, False, True)[1:])
    Jb = assemble_operator(b, *assembly_inputs(b.interior_shape, False, False, True)[1:])
    info = _stencil_pattern.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    _, _, indices, indptr = _stencil_pattern(a.interior_shape)
    for J in (Ja, Jb):
        assert np.shares_memory(J.indices, indices) and np.shares_memory(J.indptr, indptr)


def test_stencil_pattern_is_read_only():
    grid = ChartGrid.box((-1, -1), (1, 1), 7)
    for a in _stencil_pattern(grid.interior_shape)[1:]:
        with pytest.raises(ValueError):
            a[0] = a[1]
    J = assemble_operator(grid, *assembly_inputs(grid.interior_shape, False, False, True)[1:])
    with pytest.raises(ValueError):
        J.indices[0] = 1


def test_successive_assemblies_own_their_data():
    grid, Fij, c1, c0 = assembly_inputs((5, 6), True, False, True)
    J1 = assemble_operator(grid, Fij, c1, c0)
    J2 = assemble_operator(grid, Fij, c1, c0)
    before = J2.data.copy()
    assert not np.shares_memory(J1.data, J2.data)
    J1.data[:] = 7.0
    assert np.array_equal(J2.data, before)


# -------------------------------------------------- laplace-beltrami solve

def test_laplace_solve_flat_harmonic_exact():
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    metric = flat_metric(grid)
    data = grid.sample(lambda x: x[..., 0] ** 2 - x[..., 1] ** 2)  # discrete harmonic
    v = laplace_beltrami_solve(grid, metric, data)
    assert np.abs(v - data).max() < 1e-10


def conformal_metric(grid):
    return metric_from_callable(grid, lambda x: np.exp(0.8 * x[0]) * np.eye(grid.n))


@pytest.mark.parametrize("curved", [False, True])
def test_laplace_solve_is_discrete_harmonic(curved):
    # non-harmonic data: the lift keeps it on the boundary layer and its
    # discrete Laplace-Beltrami operator vanishes at every interior point
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    metric = conformal_metric(grid) if curved else flat_metric(grid)
    data = grid.sample(lambda x: np.exp(x[..., 0]) * np.cos(2.0 * x[..., 1]) + x[..., 1] ** 3)
    v = laplace_beltrami_solve(grid, metric, data)
    bnd = grid.boundary_mask()
    assert np.array_equal(v[bnd], data[bnd])
    ginv = metric.ginv[grid.interior]
    lap = np.einsum("...ij,...ij->...", ginv, covariant_hessian(v, metric, grid))
    assert np.abs(lap).max() <= 1e-9 * np.abs(data).max()


@pytest.mark.parametrize("n, m", [(2, 33), (3, 17)])
def test_laplace_solve_matches_a_direct_solve(n, m):
    # conformal metric on grids with multigrid levels: the GMRES lift agrees
    # with a sparse direct solve of the same assembled system
    grid = ChartGrid.box((-1,) * n, (1,) * n, m)
    assert grid.n_interior > COARSE_N
    metric = conformal_metric(grid)
    data = grid.sample(lambda x: np.sin(2.0 * x[..., 0]) * np.exp(x[..., 1]) + x.sum(axis=-1) ** 2)
    v = laplace_beltrami_solve(grid, metric, data)
    ginv = metric.ginv[grid.interior].reshape(-1, n, n)
    c1 = -np.einsum("...ij,...kij->...k", ginv,
                    metric.christoffel[grid.interior].reshape(-1, n, n, n))
    w = np.array(data)
    w[grid.interior] = 0.0
    b = -np.einsum("...ij,...ij->...", ginv, covariant_hessian(w, metric, grid).reshape(-1, n, n))
    ref = spla.spsolve(assemble_operator(grid, ginv, c1, 0.0).tocsc(), b)
    err = np.abs(v[grid.interior].ravel() - ref).max()
    assert err <= 1e-10 * np.abs(ref).max()


def test_laplace_solve_conformal_2d():
    # 2d conformal invariance: euclidean-harmonic data is metric-harmonic too
    grid = ChartGrid.box((-1, -1), (1, 1), 33)
    metric = metric_from_callable(grid, lambda x: np.exp(0.8 * x[0]) * np.eye(2))
    data = grid.sample(lambda x: x[..., 0] ** 2 - x[..., 1] ** 2)
    v = laplace_beltrami_solve(grid, metric, data)
    assert np.abs(v - data).max() < 2e-4  # christoffel trace cancels up to fd error


def test_jacobian_fd_3d():
    grid = ChartGrid.box((-1, -1, -1), (1, 1, 1), 7)
    coeff = coefficients_from_expressions(3, "1 + 0.1*p1 + 0.05*z", "kappa_zg", 0.3)
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(3, 2), coeff=coeff,
                   h=np.full(grid.shape, 50.0), phi=np.zeros(grid.shape))
    u = grid.sample(lambda x: (x**2).sum(axis=-1) + 3.0)
    eps = 1e-2
    J = linearize(evaluate_state(u, prob, eps), prob)
    r0 = residual(u, prob, eps).values.ravel()
    rng = np.random.default_rng(5)
    t = 1e-6
    for _ in range(5):
        d = np.zeros(grid.shape)
        d[grid.interior] = rng.standard_normal(grid.interior_shape)
        Jd = J @ d[grid.interior].ravel()
        fd = (residual(u + t * d, prob, eps).values.ravel() - r0) / t
        assert np.abs(fd - Jd).max() / max(np.abs(Jd).max(), 1e-12) < 1e-4


# -------------------------------------------------- coefficient certification

CONFORMAL = 'kind = conformal\n  phi = "0.05*x1"'


def _certificate(a_line, metric="kind = flat"):
    text = bundled_config_text("ma_obstacle").replace("A = zero", a_line)
    cfg = parse_config(text.replace("kind = flat", metric)).override(grid_m=17)
    return certify_coefficients(build_runsetup(cfg).problem, samples=250, seed=42)


def test_coefficient_certificate_does_not_read_the_metric():
    # A = s g with g positive definite and free of z and p: its checks read s
    # alone, so a curved metric gives the flat metric's slacks
    a_line = 'A = scalar_metric "0.1*z - 0.02*(p1^2+p2^2)"'
    flat, conformal = _certificate(a_line), _certificate(a_line, CONFORMAL)
    assert flat.passed and conformal.passed
    assert conformal.checks == flat.checks
    assert flat.checks["A^xx_z >= 0"] == pytest.approx(0.1)
    assert flat.checks["A^xx concave in p"] == pytest.approx(0.04)


@pytest.mark.parametrize("metric", ["kind = flat", CONFORMAL], ids=["flat", "conformal"])
@pytest.mark.parametrize("a_line,condition", [
    ('A = scalar_metric "0.1*(p1^2+p2^2)"', "A^xx concave in p"),  # s convex in p
    ("A = kappa_zg -0.1", "A^xx_z >= 0"),
], ids=["s_convex_in_p", "kappa_zg_negative"])
def test_coefficient_certificate_fails_on_s(a_line, condition, metric):
    cert = _certificate(a_line, metric)
    assert not cert.passed
    assert cert.failed_condition == condition
    assert set(cert.witness) == {"x", "z", "p"}
