"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hessobs.cli import main
from hessobs.config import build_runsetup, parse_config
from hessobs.monitors import (
    audit_inequalities,
    compute_norm_bundle,
    extract_contact_set,
    solved_state,
    sweep_summary,
    theta_certificate,
)
from hessobs.newton import NewtonConfig, continuation_solve, newton_solve
from hessobs.operator import evaluate_state, spectrum
from hessobs.problems import bundled_config_text
from hessobs.symfunc import (
    SymmetricFunctionSpec,
    check_structure_conditions,
    estimate_theta,
    sample_cone_points,
)
from oracles import (contact_radius, eval_f, grad_f, hess_f, projected_sor, radial_exact,
                     radial_params)

FAMILIES = [
    SymmetricFunctionSpec(2, 1),
    SymmetricFunctionSpec(2, 2),
    SymmetricFunctionSpec(2, 2, 1),
    SymmetricFunctionSpec(3, 1),
    SymmetricFunctionSpec(3, 2),
    SymmetricFunctionSpec(3, 3),
    SymmetricFunctionSpec(3, 2, 1),
]


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL — {label}")
        raise
    dt = time.monotonic() - t0
    assert dt < limit_s, f"criterion {num} exceeded its {limit_s}s budget ({dt:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS — {label} ({dt:.1f}s)")


def _oracle_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-0.5, 0.5, size=(count, 1))
    return scale * rng.uniform(0.3, 3.0, size=(count, spec.n))


# ---------------------------------------------------------------------------
# shared solves (cached so the first criterion needing one pays for it inside
# its own runtime budget)
# ---------------------------------------------------------------------------

_CACHE = {}


def weak_radial(m):
    key = ("weak", m)
    if key not in _CACHE:
        cfg = parse_config(bundled_config_text("laplacian_obstacle")).override(grid_m=m)
        rs = build_runsetup(cfg)
        _CACHE[key] = (rs, continuation_solve(rs.problem, rs.config.schedule, rs.config.newton))
    return _CACHE[key]


def ma_manufactured(m):
    key = ("ma_man", m)
    if key not in _CACHE:
        cfg = parse_config(bundled_config_text("ma_manufactured")).override(
            grid_m=m, eps_min=1e-2
        )
        rs = build_runsetup(cfg)
        _CACHE[key] = (rs, continuation_solve(rs.problem, rs.config.schedule, rs.config.newton))
    return _CACHE[key]


def sweep_m65(name):
    key = ("sweep", name)
    if key not in _CACHE:
        rs = build_runsetup(parse_config(bundled_config_text(name)))
        res = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        bundles = [
            compute_norm_bundle(solved_state(u, rs.problem, e), rs.problem)
            for u, e in zip(res.solutions, res.epsilons)
        ]
        _CACHE[key] = (rs, res, bundles)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_cone_calculus_oracles():
    with criterion(1, "gradient/Hessian finite-difference oracles at 1e-6", 5.0):
        for spec in FAMILIES:
            pts = _oracle_points(spec, 100, seed=2024)
            for lam in pts:
                h = 1e-5 * np.linalg.norm(lam)
                g = grad_f(spec, lam)
                H = hess_f(spec, lam)
                gfd = np.empty(spec.n)
                Hfd = np.empty((spec.n, spec.n))
                for i in range(spec.n):
                    e = np.zeros(spec.n)
                    e[i] = h
                    gfd[i] = (eval_f(spec, lam + e) - eval_f(spec, lam - e)) / (2 * h)
                    Hfd[:, i] = (grad_f(spec, lam + e) - grad_f(spec, lam - e)) / (2 * h)
                Hfd = 0.5 * (Hfd + Hfd.T)
                assert np.abs(g - gfd).max() / max(1.0, np.abs(g).max()) <= 1e-6
                assert np.abs(H - Hfd).max() / max(1.0, np.abs(H).max()) <= 1e-6


def test_criterion_2_structure_suite():
    with criterion(2, "structure-condition suite at 1000 samples per family", 10.0):
        for spec in FAMILIES:
            rep = check_structure_conditions(spec, 1000, seed=42)
            assert rep.min_f > 0.0
            assert rep.nu0_hat is None or rep.nu0_hat > 0.0
            assert rep.max_hess_eig_scaled <= 1e-8
            assert rep.min_grad_component > 0.0
            assert rep.min_euler_bound >= 0.0
            assert rep.ladder_monotone


def test_criterion_3_theta_certificate():
    with criterion(3, "supporting-plane constant certificate on the sigma_2 problem", 10.0):
        rs = build_runsetup(parse_config(bundled_config_text("ma_obstacle")))
        st = evaluate_state(rs.problem.subsolution, rs.problem, rs.config.schedule.eps0)
        mu, grad = spectrum(st, rs.problem)
        K = np.unique(np.round(mu, 12), axis=0)
        nu = grad / np.linalg.norm(grad, axis=1, keepdims=True)
        zeta0 = float(min(nu.min() / 2.0, (1.0 - 1e-6) / (2.0 * np.sqrt(2.0))))
        lam = sample_cone_points(rs.problem.fspec, 10_000, seed=42)
        cert = estimate_theta(rs.problem.fspec, K, zeta0, lam)
        assert not cert.vacuous
        assert cert.theta_hat > 0.0
        assert cert.violations_at_zero == 0


def test_criterion_4_laplacian_obstacle_oracle():
    with criterion(4, "radial closed form + projected-SOR oracle at m=129", 60.0):
        rs, res = weak_radial(129)
        par = radial_params("weak")
        grid = rs.problem.grid
        pts = grid.points()
        u_exact = radial_exact(par, pts)
        assert res.epsilons[-1] == pytest.approx(1e-6)

        # the independent complementarity solve validates the closed form
        psi = np.full(grid.shape, par.psi0)
        u_lcp = projected_sor(grid, psi, rs.problem.h, u_exact)
        assert np.abs(u_lcp - u_exact).max() <= 1e-4

        err = np.abs(res.final - u_exact).max()
        assert err <= 5e-3
        assert np.abs(res.final - u_lcp).max() <= 5e-3

        b = compute_norm_bundle(solved_state(res.final, rs.problem, res.epsilons[-1]), rs.problem)
        cs = extract_contact_set(res.final, rs.problem.h, grid, res.epsilons[-1],
                                 b.penalty_sup, b.hess_norm)
        radius = contact_radius(cs, grid)
        assert abs(radius - par.a) <= 2.0 * grid.spacing.max()


def test_criterion_5_manufactured_ma():
    with criterion(5, "manufactured det-root problem: order >= 1.9 and quadratic tail", 60.0):
        errs = {}
        for m in (17, 33, 65):
            rs, res = ma_manufactured(m)
            pts = rs.problem.grid.points()
            u_exact = np.exp((pts**2).sum(axis=-1) / 2.0)
            errs[m] = np.abs(res.final - u_exact).max()
        hs = np.log([2.0 / (m - 1) for m in (17, 33, 65)])
        es = np.log([errs[m] for m in (17, 33, 65)])
        slope = np.polyfit(hs, es, 1)[0]
        assert slope >= 1.9

        rs, _ = ma_manufactured(65)
        bump = rs.problem.grid.sample(
            lambda x: 0.08 * np.cos(np.pi * x[..., 0] / 2) * np.cos(np.pi * x[..., 1] / 2)
        )
        _, rep = newton_solve(rs.problem.subsolution + bump, rs.problem, 1e-2,
                              NewtonConfig(tol_residual=1e-9))
        r = rep.residual_history
        assert len(r) >= 4
        assert r[-1] <= 10.0 * r[-2] ** 2  # final two drops are quadratic-rate
        assert r[-2] <= 10.0 * r[-3] ** 2


def test_criterion_6_penalty_uniformity():
    with criterion(6, "penalty bound: sup ratio <= 2, violation identity across the sweep", 300.0):
        for name in ("laplacian_obstacle_strong", "ma_obstacle"):
            rs, res, bundles = sweep_m65(name)
            assert [f"{e:.0e}" for e in res.epsilons] == \
                ["1e-02", "1e-03", "1e-04", "1e-05", "1e-06"]
            rep = sweep_summary(bundles)
            assert rep.ratios["penalty_sup"] <= 2.0, name
            for b in bundles:
                assert b.obstacle_violation <= (b.penalty_sup * b.epsilon) ** (1 / 3) + 1e-12
                assert b.penalty_sup > 0.0  # the obstacle is genuinely active


def test_criterion_7_second_order_uniformity():
    with criterion(7, "hessian/gradient monitors eps-uniform within ratio 1.5", 60.0):
        for name in ("laplacian_obstacle_strong", "ma_obstacle"):
            rs, res, bundles = sweep_m65(name)
            rep = sweep_summary(bundles)
            assert rep.ratios["hess_norm"] <= 1.5, name
            assert rep.ratios["grad_norm"] <= 1.5, name


def test_criterion_8_inequality_audits():
    with criterion(8, "pointwise inequality audits clean at m=65", 120.0):
        rs, res = weak_radial(65)
        usub = rs.problem.subsolution
        aud = audit_inequalities(solved_state(res.final, rs.problem, res.epsilons[-1]), usub,
                                 rs.problem, theta_certificate(usub, rs.problem, 4000, 42), 0.0)
        assert aud.violations == 0
        assert abs(aud.fprime_worst) <= 1e-12  # linear family: slack exactly zero

        rs5, res5 = ma_manufactured(65)
        usub5 = rs5.problem.subsolution
        aud5 = audit_inequalities(solved_state(res5.final, rs5.problem, res5.epsilons[-1]), usub5,
                                  rs5.problem, theta_certificate(usub5, rs5.problem, 4000, 42),
                                  0.0)
        assert aud5.violations == 0
        assert aud5.case1_points + aud5.case2_points == rs5.problem.grid.n_interior


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "byte-identical sweep report bundles", 120.0):
        text = (
            bundled_config_text("ma_obstacle")
            .replace("m = 65", "m = 21")
            .replace("eps_min = 1e-06", "eps_min = 0.0001")
            .replace("theta_samples = 10000", "theta_samples = 2000")
        )
        cfg = tmp_path / "repro.cfg"
        cfg.write_text(text)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["sweep", str(cfg), "--out", str(out), "--quiet"]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]
