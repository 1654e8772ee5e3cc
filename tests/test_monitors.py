"""Norm bundles, inequality audits, contact sets and sweep summaries."""

import numpy as np
import pytest

from hessobs.config import build_runsetup, parse_config
from hessobs.errors import MonitorError, NotAdmissible
from hessobs.geometry import ChartGrid, flat_metric
from hessobs.monitors import (
    NormBundle,
    audit_inequalities,
    compact_set,
    compute_norm_bundle,
    extract_contact_set,
    solved_state,
    sweep_summary,
    theta_certificate,
)
from hessobs.newton import NewtonConfig, PenaltySchedule, continuation_solve, default_initializer
from hessobs.operator import Problem, evaluate_state, spectrum
from hessobs.problems import BUNDLED, bundled_config_text
from hessobs.symfunc import SymmetricFunctionSpec, estimate_theta, sample_cone_points
from oracles import coefficients_from_expressions, contact_radius


def paraboloid_ceiling_problem(m=33, L=2.0, gap=0.3, fspec=None, psi="1"):
    """Strict paraboloid subsolution pressed against a ceiling gap above it."""
    grid = ChartGrid.box((-L, -L), (L, L), m)
    rsq = (grid.points() ** 2).sum(axis=-1)
    usub = 0.625 * rsq
    coeff = coefficients_from_expressions(2, psi)
    return Problem(
        grid=grid, metric=flat_metric(grid),
        fspec=fspec or SymmetricFunctionSpec(2, 2), coeff=coeff,
        h=usub + gap, phi=usub, subsolution=usub,
    )


@pytest.fixture(scope="module")
def solved_ma():
    prob = paraboloid_ceiling_problem()
    res = continuation_solve(prob, PenaltySchedule(1e-2, 0.1, 1e-4),
                             NewtonConfig(tol_residual=1e-9))
    return prob, res


# -------------------------------------------------- norm bundle

def test_bundle_inactive_state_zero_penalty(solved_ma):
    prob, _ = solved_ma
    u = np.array(prob.subsolution)  # below the obstacle everywhere
    b = compute_norm_bundle(solved_state(u, prob, 1e-2), prob)
    assert b.penalty_sup == 0.0
    assert b.obstacle_violation == 0.0
    assert b.bound_ok


def test_bundle_violation_penalty_identity(solved_ma):
    prob, res = solved_ma
    for u, eps in zip(res.solutions, res.epsilons):
        b = compute_norm_bundle(solved_state(u, prob, eps), prob)
        if b.obstacle_violation > 0:
            assert b.penalty_sup == pytest.approx(b.obstacle_violation**3 / eps, rel=1e-12)
        assert b.bound_ok


def test_bundle_known_values():
    # violation 0.01 at eps = 1e-6 gives penalty exactly 1.0
    grid = ChartGrid.box((-1, -1), (1, 1), 33)
    coeff = coefficients_from_expressions(2, "1")
    base = grid.sample(lambda x: (x**2).sum(axis=-1))
    bump = grid.sample(
        lambda x: np.cos(np.pi * x[..., 0] / 2) ** 2 * np.cos(np.pi * x[..., 1] / 2) ** 2
    )
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 1), coeff=coeff,
                   h=base, phi=base)
    u = base + 0.01 * bump  # smooth, Gamma_1-admissible, max violation 0.01
    b = compute_norm_bundle(solved_state(u, prob, 1e-6), prob)
    assert b.obstacle_violation == pytest.approx(0.01)
    assert b.penalty_sup == pytest.approx(1.0)


def test_bundle_boundary_case_zero():
    # u = h = 0 exactly: the z <= 0 branch is inclusive
    grid = ChartGrid.box((-1, -1), (1, 1), 9)
    coeff = coefficients_from_expressions(2, "1")
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 1), coeff=coeff,
                   h=np.zeros((9, 9)), phi=grid.sample(lambda x: -1.0 + 0.5 * (x**2).sum(-1)))
    u = grid.sample(lambda x: 0.5 * (x**2).sum(-1) - 1.0)
    b = compute_norm_bundle(solved_state(u, prob, 1e-2), prob)
    assert b.penalty_sup == 0.0 and b.obstacle_violation == 0.0


# -------------------------------------------------- audits

def test_audit_sigma1_all_case2_diag_slack_zero():
    grid = ChartGrid.box((-1, -1), (1, 1), 17)
    rsq = (grid.points() ** 2).sum(axis=-1)
    usub = rsq  # laplacian 4 >= psi = 2
    coeff = coefficients_from_expressions(2, "2")
    prob = Problem(grid=grid, metric=flat_metric(grid),
                   fspec=SymmetricFunctionSpec(2, 1), coeff=coeff,
                   h=usub + 0.2, phi=usub, subsolution=usub)
    res = continuation_solve(prob, PenaltySchedule(1e-3, 0.1, 1e-3),
                             NewtonConfig(tol_residual=1e-10))
    aud = audit_inequalities(solved_state(res.final, prob, 1e-3), prob,
                             theta_certificate(prob.subsolution, prob, 4000, 1), 0.0)
    assert aud.case1_points == 0  # linear f: constant normal
    assert aud.case2_points == prob.grid.n_interior
    assert aud.violations == 0
    # sharp diagonal-bound slack is exactly zero for the linear family
    assert abs(aud.fprime_worst) < 1e-12


def test_audit_u_equals_subsolution(solved_ma):
    prob, _ = solved_ma
    aud = audit_inequalities(solved_state(prob.subsolution, prob, 1e-2), prob,
                             theta_certificate(prob.subsolution, prob, 4000, 1), 0.0)
    # L(usub - u) = 0 and beta(usub - h) = 0 since usub <= h
    assert aud.case1_points == 0
    assert aud.violations == 0
    assert aud.worst_slack_case2 == pytest.approx(0.0, abs=1e-12)


def test_audit_solved_ma_no_violations(solved_ma):
    prob, res = solved_ma
    aud = audit_inequalities(solved_state(res.final, prob, res.epsilons[-1]), prob,
                             theta_certificate(prob.subsolution, prob, 4000, 42), 0.0)
    assert aud.violations == 0
    assert aud.case1_points > 0  # nonlinear family genuinely exercises case 1
    assert aud.theta_hat is not None and aud.theta_hat > 0
    assert 0 < aud.zeta0 < 1.0 / (2.0 * np.sqrt(2.0))
    assert aud.case1_points + aud.case2_points == prob.grid.n_interior


def test_audit_theta_cloud_certified_once(solved_ma, monkeypatch):
    # the cloud's certificate is computed once per sweep; each epsilon adds
    # only its own eigenvalue rows and gets the theta of cloud and rows together
    import hessobs.monitors as monitors

    prob, res = solved_ma
    calls = []
    estimate = monitors.estimate_theta
    monkeypatch.setattr(monitors, "estimate_theta",
                        lambda spec, K, zeta, lams, *a, **kw: calls.append(lams)
                        or estimate(spec, K, zeta, lams, *a, **kw))
    certificate = theta_certificate(prob.subsolution, prob, 500, 3)
    audits = [audit_inequalities(solved_state(u, prob, e), prob, certificate, 0.0)
              for u, e in zip(res.solutions, res.epsilons)]
    monkeypatch.undo()

    cloud = sample_cone_points(prob.fspec, 500, 3)
    sub = solved_state(prob.subsolution, prob, res.epsilons[0])
    K, _, zeta0 = compact_set(sub.lam, sub.fg)
    assert len(audits) == 3
    for aud, u, eps in zip(audits, res.solutions, res.epsilons):
        lam = spectrum(evaluate_state(u, prob, eps), prob)
        assert aud.theta_hat is not None
        cert = estimate_theta(prob.fspec, K, zeta0, np.vstack([cloud, lam]))
        assert aud.theta_hat == cert.theta_hat
    assert sum(len(lams) for lams in calls) == len(cloud) + 3 * prob.grid.n_interior


# -------------------------------------------------- contact set

def test_contact_empty_when_obstacle_high(solved_ma):
    prob, res = solved_ma
    big_h = res.final + 1.0
    cs = extract_contact_set(res.final, big_h, prob.grid, 1e-4, 0.0, 1.0)
    assert cs.cells == 0 and cs.interface_cells == 0


def test_contact_nesting_in_tau(solved_ma):
    prob, res = solved_ma
    u, eps = res.final, res.epsilons[-1]
    b = compute_norm_bundle(solved_state(u, prob, eps), prob)
    cs_small = extract_contact_set(u, prob.h, prob.grid, eps, b.penalty_sup, b.hess_norm)
    cs_large = extract_contact_set(u, prob.h, prob.grid, eps, 8.0 * b.penalty_sup, b.hess_norm)
    assert cs_large.tau > cs_small.tau
    assert np.all(cs_large.mask | ~cs_small.mask)  # small set nested in large


def test_contact_stability_across_epsilon(solved_ma):
    prob, res = solved_ma
    masks = []
    for u, eps in zip(res.solutions[-2:], res.epsilons[-2:]):
        b = compute_norm_bundle(solved_state(u, prob, eps), prob)
        masks.append(extract_contact_set(u, prob.h, prob.grid, eps, b.penalty_sup, b.hess_norm).mask)
    sym_diff = np.count_nonzero(masks[0] ^ masks[1])
    assert sym_diff <= 0.35 * max(1, np.count_nonzero(masks[0]))


def test_contact_boundary_touch_raises():
    grid = ChartGrid.box((-1, -1), (1, 1), 9)
    u = np.ones((9, 9))
    h = np.ones((9, 9))  # u = h everywhere: contact reaches the boundary ring
    with pytest.raises(MonitorError):
        extract_contact_set(u, h, grid, 1e-3, 0.0, 0.0)


def test_contact_radius_disc():
    grid = ChartGrid.box((-1, -1), (1, 1), 65)
    rsq = (grid.points() ** 2).sum(axis=-1)
    u = np.where(rsq <= 0.25, 1.0, 0.0)
    h = np.ones((65, 65))
    cs = extract_contact_set(u, h, grid, 1e-6, 0.0, 0.0)
    assert abs(contact_radius(cs, grid) - 0.5) < 2.0 * grid.spacing.max()


# -------------------------------------------------- sweep summary

def test_sweep_single_entry_ratios_one():
    b = NormBundle(1e-3, 1.0, 2.0, 3.0, 3.0, 0.5, 0.05, True)
    rep = sweep_summary([b])
    assert all(v == 1.0 for v in rep.ratios.values())
    assert not rep.warnings


def test_sweep_zero_penalty_ratio_one():
    rows = [NormBundle(10.0**-k, 1.0, 2.0, 3.0, 3.0, 0.0, 0.0, True) for k in range(2, 5)]
    rep = sweep_summary(rows)
    assert rep.ratios["penalty_sup"] == 1.0
    assert not rep.warnings


def test_sweep_flags_nonuniform():
    rows = [
        NormBundle(1e-2, 1.0, 2.0, 3.0, 3.0, 0.001, 0.01, True),
        NormBundle(1e-3, 1.0, 2.0, 3.0, 3.0, 0.5, 0.05, True),
    ]
    rep = sweep_summary(rows)
    assert "penalty_sup" in rep.warnings
    assert rep.warnings


def test_sweep_solved_ma_uniform(solved_ma):
    prob, res = solved_ma
    bundles = [compute_norm_bundle(solved_state(u, prob, e), prob)
               for u, e in zip(res.solutions, res.epsilons)]
    rep = sweep_summary(bundles)
    assert rep.ratios["penalty_sup"] <= 2.0
    assert rep.ratios["hess_norm"] <= 1.5
    assert not rep.warnings


@pytest.mark.parametrize("name", ["ma_obstacle", "laplacian_obstacle"])
def test_compact_set_does_not_depend_on_epsilon(name):
    # the premise of PROBE_EPSILON: the subsolution's K, normals and zeta0
    # come from its spectrum, which the penalty does not enter
    prob = build_runsetup(parse_config(bundled_config_text(name))).problem
    u_sub = prob.subsolution
    s = solved_state(u_sub, prob, 1e-6)
    K, nu, zeta0 = compact_set(s.lam, s.fg)
    for eps in (1e-2, 0.5):
        s = solved_state(u_sub, prob, eps)
        K_e, nu_e, zeta0_e = compact_set(s.lam, s.fg)
        assert np.array_equal(K_e, K) and np.array_equal(nu_e, nu) and zeta0_e == zeta0


@pytest.mark.parametrize("name", BUNDLED)
def test_sweep_certificate_theta_only_scan_matches_all_pairs(name):
    # the sweep's cloud certificate takes the theta-only scan and
    # verify-lemma the all-pairs one; theta_hat, zeta and K agree bit for
    # bit, and both carry the subsolution they were built from
    rs = build_runsetup(parse_config(bundled_config_text(name)))
    u_sub, audit = default_initializer(rs.problem), rs.config.audit
    K, nu, full, sub = theta_certificate(u_sub, rs.problem, audit.theta_samples, audit.seed)
    K_t, nu_t, fast, sub_t = theta_certificate(u_sub, rs.problem, audit.theta_samples,
                                               audit.seed, all_pairs=False)
    assert np.array_equal(K_t, K) and np.array_equal(nu_t, nu)
    assert sub is sub_t is u_sub
    assert (fast.theta_hat, fast.zeta, fast.pair_count) == (full.theta_hat, full.zeta,
                                                            full.pair_count)
    assert fast.violations_at_zero is None and full.violations_at_zero == 0


def test_solved_state_computes_df_only_when_read(solved_ma, monkeypatch):
    # the norm bundle reads lam alone; Df(lam) is computed once, on the
    # audit's first read, and is the spectrum gradient of lam
    import hessobs.monitors as monitors

    prob, res = solved_ma
    calls = []
    gradient = monitors.spectrum_gradient
    monkeypatch.setattr(monitors, "spectrum_gradient",
                        lambda *a: calls.append(a) or gradient(*a))
    s = solved_state(res.final, prob, res.epsilons[-1])
    compute_norm_bundle(s, prob)
    assert not calls
    lam = spectrum(evaluate_state(res.final, prob, res.epsilons[-1]), prob)
    fg = gradient(prob.fspec, lam)
    assert np.array_equal(s.lam, lam) and np.array_equal(s.fg, fg, equal_nan=True)
    assert s.fg is s.fg and len(calls) == 1


def test_sigma1_audit_forms_no_pair_matrix():
    # k = 1: every normal is (1, ..., 1)/sqrt(n), so no row can meet the gap
    # and the per-state scan skips them all before it forms any pair matrix
    import tracemalloc

    prob = build_runsetup(parse_config(bundled_config_text("laplacian_obstacle_strong"))).problem
    certificate = theta_certificate(prob.subsolution, prob, 100, 42)
    s = solved_state(prob.subsolution, prob, 1e-2)
    pair_bytes = 8 * min(len(s.lam) * len(certificate[0]), 2_000_000)
    assert pair_bytes > 4_000_000
    tracemalloc.start()
    try:
        aud = audit_inequalities(s, prob, certificate, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aud.theta_hat is None and aud.case1_points == 0
    assert peak < pair_bytes / 4


def test_nonfinite_subsolution_normals_name_the_points(monkeypatch):
    # rows the Newton-tensor rule admitted but the eigenvalue cone rule of
    # `spectrum_gradient` rejects have NaN normals; the error names their points
    import hessobs.monitors as monitors

    prob = paraboloid_ceiling_problem(m=9)
    real = monitors.spectrum_gradient

    def one_row_out(fspec, lam):
        fg = real(fspec, lam).copy()
        fg[10] = np.nan  # interior point (2, 4) of the 7 x 7 block
        return fg

    monkeypatch.setattr(monitors, "spectrum_gradient", one_row_out)
    with pytest.raises(MonitorError) as exc:
        theta_certificate(prob.subsolution, prob, 10, 0)
    assert str(exc.value) == ("subsolution eigenvalues outside the cone, though its Newton "
                              "tensors are inside, at 1 interior points (first: [(2, 4)])")


@pytest.fixture(scope="module")
def solved_ma_obstacle_m17():
    rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")).override(grid_m=17))
    return rs.problem, continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_monitors_refuse_a_field_with_a_non_finite_value(solved_ma_obstacle_m17, bad):
    # a 2x2 block with NaN on its diagonal has finite eigenvalues, so a NaN
    # reaching the spectrum could read as a finite hess_norm.  It does not
    # reach it through the monitors: the Hessian at the bad point has a NaN
    # or -inf diagonal, its Newton tensor fails evaluate_state's cone test,
    # and solved_state refuses the field before it takes any spectrum
    prob, res = solved_ma_obstacle_m17
    u = res.final.copy()
    u[8, 8] = bad
    with pytest.raises(NotAdmissible) as exc:
        solved_state(u, prob, res.epsilons[-1])
    assert (8, 8) in exc.value.points
