"""Bundled-problem invariants: analytic subsolution certificates, membership
ordering, warm starts and epsilon-stability of the penalized family."""

import numpy as np
import pytest

from hessobs.config import build_runsetup, parse_config
from hessobs.expressions import parse_expression
from hessobs.monitors import compute_norm_bundle, solved_state
from hessobs.newton import continuation_solve
from hessobs.problems import BUNDLED, bundled_config_text
from oracles import eval_f

RNG = np.random.default_rng(123)


def analytic_subsolution_slack(cfg_text, n_samples=400):
    """Evaluate the subsolution inequality with symbolic second derivatives
    of the configured expression (no discretization error)."""
    cfg = parse_config(cfg_text)
    n = cfg.n
    u = parse_expression(cfg.subsolution, n, allow_zp=False)
    psi = parse_expression(cfg.psi, n)
    h = parse_expression(cfg.h, n, allow_zp=False)
    du = [u.derivative(f"x{i+1}") for i in range(n)]
    d2u = [[du[i].derivative(f"x{j+1}") for j in range(n)] for i in range(n)]
    spec = cfg.fspec
    lo, hi = np.array(cfg.grid.lo), np.array(cfg.grid.hi)
    pts = lo + (hi - lo) * RNG.random((n_samples, n))
    env = {f"x{i+1}": pts[:, i] for i in range(n)}
    z = np.broadcast_to(u(**env), (n_samples,))
    penv = dict(env, z=z, **{f"p{i+1}": np.broadcast_to(du[i](**env), (n_samples,))
                             for i in range(n)})
    psi_vals = np.broadcast_to(psi(**penv), (n_samples,))
    h_vals = np.broadcast_to(h(**env), (n_samples,))
    slack = np.empty(n_samples)
    for s in range(n_samples):
        hess = np.array([[float(np.broadcast_to(d2u[i][j](**{k: v[s] for k, v in env.items()}), ()))
                          for j in range(n)] for i in range(n)])
        lam = np.linalg.eigvalsh(0.5 * (hess + hess.T))[::-1]
        slack[s] = eval_f(spec, lam) - psi_vals[s]
    return slack, (z - h_vals)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_subsolution_certificate(name):
    # A = 0 for every bundled problem, so lam(D^2 u + A) = lam(D^2 u)
    slack, above_h = analytic_subsolution_slack(bundled_config_text(name))
    assert slack.min() >= -1e-8  # the differential inequality, analytically
    assert above_h.max() <= 1e-12  # stays below the obstacle


@pytest.fixture(scope="module")
def strong_sweep():
    rs = build_runsetup(parse_config(bundled_config_text("laplacian_obstacle_strong")))
    return rs, continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)


def test_bundled_dominance_reported(strong_sweep):
    rs, res = strong_sweep
    for rep in res.reports:
        assert rep.subsolution_dominance is not None
        # discrete comparison argument holds exactly for the trace operator
        assert rep.subsolution_dominance >= -1e-9


def test_bundled_warm_start_iterations(strong_sweep):
    # later epsilons take no more steps than the cold solve from the
    # subsolution, which a nested first epsilon runs on its coarsest level
    _, res = strong_sweep
    first = res.reports[0]
    assert first.start == "nested"
    cold = first.nested_levels[0][1]
    assert cold == 6
    assert all(r.iterations <= cold for r in res.reports[1:])


def test_epsilon_stability_on_contact(strong_sweep):
    # consecutive sweep solutions differ by at most ~ (c0 eps)^(1/3)
    rs, res = strong_sweep
    for i in range(len(res.epsilons) - 1):
        eps = res.epsilons[i]
        b = compute_norm_bundle(solved_state(res.solutions[i], rs.problem, eps), rs.problem)
        diff = np.abs(res.solutions[i] - res.solutions[i + 1]).max()
        assert diff <= 1.5 * (b.penalty_sup * eps) ** (1.0 / 3.0)


def test_violation_monotone_in_epsilon(strong_sweep):
    # observed (not proved): max (u_eps - h)_+ decreases along the sweep
    rs, res = strong_sweep
    viols = [
        compute_norm_bundle(solved_state(u, rs.problem, e), rs.problem).obstacle_violation
        for u, e in zip(res.solutions, res.epsilons)
    ]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(viols, viols[1:]))


def test_ma_manufactured_dominance_within_truncation():
    cfg = parse_config(bundled_config_text("ma_manufactured")).override(
        grid_m=33, eps_min=1e-2
    )
    rs = build_runsetup(cfg)
    res = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    dom = res.reports[-1].subsolution_dominance
    # the sampled continuum solution is a subsolution only up to O(h^2)
    h2 = rs.problem.grid.spacing.max() ** 2
    assert dom >= -10.0 * h2
