"""Cone-calculus unit tests: frozen values, finite-difference oracles,
structure-condition suite, supporting-hyperplane estimates."""

import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessobs import symfunc
from hessobs.errors import OutsideCone, StructureViolation
from hessobs.symfunc import (
    EXIT_BISECTIONS,
    EXIT_T_CAP,
    SymmetricFunctionSpec,
    _exit_parameters,
    _hess_batch,
    _inside,
    check_structure_conditions,
    elementary_symmetric,
    estimate_theta,
    f_and_grad_of_matrix,
    sample_cone_points,
    sigma_margins,
)
from identity_manifest import numerics
from oracles import (
    elementary_symmetric_reference,
    estimate_theta_reference,
    eval_f,
    f_and_grad_masked_reference,
    f_and_grad_of_matrix_reference,
    grad_f,
    hess_f,
    inside_reference,
    require_inside_reference,
    sigma_margins_reference,
)

def cone_tolerances(spec, lam):
    """Per-sigma round-off band 1e-12 * (1 + |lam|)^j for j = 1..k: sigma_j
    is homogeneous of degree j, so the band scales with the degree."""
    r = 1.0 + np.linalg.norm(np.atleast_2d(lam), axis=-1)
    return 1e-12 * r[:, None] ** np.arange(1, spec.k + 1)[None, :]


SPECS = [
    SymmetricFunctionSpec(n=2, k=1),
    SymmetricFunctionSpec(n=2, k=2),
    SymmetricFunctionSpec(n=3, k=1),
    SymmetricFunctionSpec(n=3, k=2),
    SymmetricFunctionSpec(n=3, k=3),
    SymmetricFunctionSpec(n=2, k=2, l=1),
    SymmetricFunctionSpec(n=3, k=2, l=1),
]


def oracle_points(spec, count, seed):
    """Random interior points conditioned for 1e-6-accurate FD oracles:
    positive orthant, bounded anisotropy, log-uniform overall scale."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-0.5, 0.5, size=(count, 1))
    return scale * rng.uniform(0.3, 3.0, size=(count, spec.n))


def fd_gradient(spec, lam, step=None):
    lam = np.asarray(lam, dtype=float)
    h = step or 1e-5 * np.linalg.norm(lam)
    g = np.zeros_like(lam)
    for i in range(len(lam)):
        e = np.zeros_like(lam)
        e[i] = h
        g[i] = (eval_f(spec, lam + e) - eval_f(spec, lam - e)) / (2 * h)
    return g


def fd_hessian(spec, lam, step=None):
    lam = np.asarray(lam, dtype=float)
    h = step or 1e-5 * np.linalg.norm(lam)
    H = np.zeros((len(lam), len(lam)))
    for i in range(len(lam)):
        e = np.zeros_like(lam)
        e[i] = h
        H[:, i] = (grad_f(spec, lam + e) - grad_f(spec, lam - e)) / (2 * h)
    return 0.5 * (H + H.T)


# -------------------------------------------------- sigma

def test_sigma_all_ones():
    assert elementary_symmetric([1.0, 1.0, 1.0], 2)[0, 2] == pytest.approx(3.0)


def test_sigma_zero_is_one():
    assert elementary_symmetric([17.0, -3.0, 2.5], 0)[0, 0] == 1.0


def test_sigma_direct_expansion():
    # (-1)(1) + (-1)(1) + (1)(1) = -1
    assert elementary_symmetric([-1.0, 1.0, 1.0], 2)[0, 2] == pytest.approx(-1.0)


def test_sigma_matches_enumeration():
    rng = np.random.default_rng(7)
    lam = rng.normal(size=6)
    from itertools import combinations

    for j in range(7):
        brute = sum(np.prod([lam[i] for i in c]) for c in combinations(range(6), j))
        assert elementary_symmetric(lam, j)[0, j] == pytest.approx(brute, rel=1e-12, abs=1e-12)


# -------------------------------------------------- eval_f

def test_eval_f_sigma2_all_ones():
    assert eval_f(SymmetricFunctionSpec(3, 2), [1, 1, 1]) == pytest.approx(np.sqrt(3.0))


def test_eval_f_quotient_diagonal():
    spec = SymmetricFunctionSpec(3, 2, 1)
    for t in [0.3, 1.0, 42.0]:
        assert eval_f(spec, [t, t, t]) == pytest.approx(t)


def test_eval_f_det_root():
    assert eval_f(SymmetricFunctionSpec(2, 2), [2.0, 2.0]) == pytest.approx(2.0)


# -------------------------------------------------- grad_f

def test_grad_sigma1_is_ones():
    spec = SymmetricFunctionSpec(3, 1)
    assert grad_f(spec, [0.3, -0.1, 2.0]) == pytest.approx(np.ones(3))


def test_grad_sigma2_all_ones():
    g = grad_f(SymmetricFunctionSpec(3, 2), [1, 1, 1])
    assert g == pytest.approx(np.full(3, 1.0 / np.sqrt(3.0)))


def test_grad_symmetric_at_diagonal():
    for spec in SPECS:
        g = grad_f(spec, np.full(spec.n, 2.5))
        assert np.ptp(g) < 1e-14


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_grad_matches_fd(spec):
    pts = oracle_points(spec, 100, seed=11)
    for lam in pts:
        g = grad_f(spec, lam)
        gfd = fd_gradient(spec, lam)
        denom = max(1.0, np.abs(g).max())
        assert np.abs(g - gfd).max() / denom < 1e-6


# -------------------------------------------------- hess_f

def test_hess_sigma1_zero():
    H = hess_f(SymmetricFunctionSpec(3, 1), [1.0, 2.0, 0.5])
    assert np.abs(H).max() == 0.0


def test_hess_det_root_2d():
    # f = sqrt(l1 l2): d2f/dl1^2 = -l2^2/(4 (l1 l2)^{3/2}), cross = 1/(4 sqrt(l1 l2))
    H = hess_f(SymmetricFunctionSpec(2, 2), [1.0, 1.0])
    assert H == pytest.approx(np.array([[-0.25, 0.25], [0.25, -0.25]]))
    assert np.linalg.eigvalsh(H)[-1] <= 1e-15


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_hess_matches_fd(spec):
    pts = oracle_points(spec, 100, seed=13)
    for lam in pts:
        H = hess_f(spec, lam)
        Hfd = fd_hessian(spec, lam)
        denom = max(1.0, np.abs(H).max())
        assert np.abs(H - Hfd).max() / denom < 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_hess_batch_equals_stacked_rows(spec):
    # SPECS is the family set of acceptance criteria 1-2; the batch must be
    # bit-identical to the one-row case, near-boundary samples included
    lam = sample_cone_points(spec, 300, seed=5)
    assert np.array_equal(_hess_batch(spec, lam), np.stack([hess_f(spec, row) for row in lam]))


# -------------------------------------------------- unit normal Df / |Df|

def unit_normal(spec, lam):
    g = grad_f(spec, lam)
    return g / np.linalg.norm(g)


def test_normal_sigma1_constant():
    nu = unit_normal(SymmetricFunctionSpec(3, 1), [5.0, -1.0, 0.2])
    assert nu == pytest.approx(np.full(3, 1.0 / np.sqrt(3.0)))


def test_normal_at_diagonal():
    for spec in SPECS:
        nu = unit_normal(spec, np.full(spec.n, 3.0))
        assert nu == pytest.approx(np.full(spec.n, 1.0 / np.sqrt(spec.n)))


def test_normal_sigma2_derived():
    # Dsigma_2 at (2,1,1) is (sigma_1(lam|i)) = (2,3,3); normalize
    nu = unit_normal(SymmetricFunctionSpec(3, 2), [2.0, 1.0, 1.0])
    expect = np.array([2.0, 3.0, 3.0]) / np.sqrt(22.0)
    assert nu == pytest.approx(expect)
    assert np.linalg.norm(nu) == pytest.approx(1.0)
    assert np.all(nu > 0)


# -------------------------------------------------- cone membership

def test_membership_interior():
    assert _inside(SymmetricFunctionSpec(3, 2), [[1, 1, 1]]).tolist() == [True]


def test_membership_outside():
    assert _inside(SymmetricFunctionSpec(3, 2), [[-1, 1, 1]]).tolist() == [False]


def test_membership_gamma1_mixed_signs():
    assert _inside(SymmetricFunctionSpec(3, 1), [[-1, 2, 0]]).tolist() == [True]


# -------------------------------------------------- invariants (hypothesis)

pos_vec = st.integers(2, 3).flatmap(
    lambda n: st.lists(st.floats(0.05, 50.0), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lam=pos_vec, t=st.sampled_from([1e-3, 1.0, 1e3]))
def test_homogeneity(lam, t):
    lam = np.asarray(lam)
    spec = SymmetricFunctionSpec(len(lam), len(lam))
    assert eval_f(spec, t * lam) == pytest.approx(t * eval_f(spec, lam), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lam=pos_vec)
def test_permutation_symmetry(lam):
    lam = np.asarray(lam)
    spec = SymmetricFunctionSpec(len(lam), 2)
    base = eval_f(spec, lam)
    rng = np.random.default_rng(3)
    for _ in range(3):
        assert eval_f(spec, rng.permutation(lam)) == pytest.approx(base, rel=1e-13)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_euler_relation(spec):
    pts = sample_cone_points(spec, 50, seed=5)
    for lam in pts:
        f = eval_f(spec, lam)
        g = grad_f(spec, lam)
        assert g @ lam == pytest.approx(f, rel=1e-10)


# -------------------------------------------------- structure conditions

@pytest.mark.parametrize(
    "spec",
    [SymmetricFunctionSpec(2, 1), SymmetricFunctionSpec(2, 2),
     SymmetricFunctionSpec(3, 2), SymmetricFunctionSpec(2, 2, 1),
     SymmetricFunctionSpec(3, 2, 1)],
    ids=str,
)
def test_structure_suite_passes(spec):
    rep = check_structure_conditions(spec, 1000, seed=42)
    assert rep.min_f > 0.0
    assert rep.nu0_hat is None or rep.nu0_hat > 0.0
    assert rep.min_grad_component > 0
    assert rep.max_hess_eig_scaled <= 1e-8
    assert rep.min_euler_bound >= 0.0
    assert all(b > a for a, b in zip(rep.ladder_values, rep.ladder_values[1:]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_structure_concavity_fails_on_a_non_finite_hessian(bad, monkeypatch):
    # symmetric_eigenvalues gives a 2x2 block with NaN on its diagonal finite
    # eigenvalues; the concavity slack divides them by 1 + max|D^2 f| of the
    # row, which a NaN or inf makes NaN, so such a sample fails the check
    hess = symfunc._hess_batch

    def one_bad_row(spec, lam):
        H = hess(spec, lam).copy()
        H[5, 0, 0] = bad
        return H

    monkeypatch.setattr(symfunc, "_hess_batch", one_bad_row)
    with pytest.raises(StructureViolation, match="concavity of f .* slack nan"):
        check_structure_conditions(SymmetricFunctionSpec(2, 2), 1000, 0)


def test_structure_sigma1_euler_equals_f():
    # linear family: Euler term is exactly f, positive with K0 = 0
    rep = check_structure_conditions(SymmetricFunctionSpec(3, 1), 200, seed=1)
    assert rep.min_euler_bound > 0.0


def test_structure_ladder_is_homogeneous():
    rep = check_structure_conditions(SymmetricFunctionSpec(3, 3), 50, seed=2)
    vals = rep.ladder_values
    assert vals[0] == pytest.approx(1.0)
    assert vals[-1] == pytest.approx(2.0**40, rel=1e-12)


# -------------------------------------------------- sampler stream

# sha256 of sample_cone_points(spec, 1000, 42).tobytes() and of the 10k
# stream of sigma_2 in n = 3 at seed 7: batching the cone tests must not move
# a bit, and since no row norm calls BLAS, neither may the OpenBLAS core
# type (test_pins_hold_on_the_prescott_kernels)
SAMPLE_DIGESTS = [
    "9f20b10e2211dead797bfef8335b0007406242df21cf7d19dfa0cddece6be858",
    "6b2dc1ccecff0946f2a219dc3e72c574ee8f101969355df5a6c977929827be64",
    "eb23d33a3ebb3c8987471eeb266110a26007e6039ec298f1f8db78dadc51b4ee",
    "d546b2a1fea34f0c6d0471560c3dc8769b69fb14a190d8b1ad0690b72224c965",
    "2edbd5a9324643479077bc7bd5e921b0a6812aede7af6a01444204863b8dd0ce",
    "6b2dc1ccecff0946f2a219dc3e72c574ee8f101969355df5a6c977929827be64",
    "d546b2a1fea34f0c6d0471560c3dc8769b69fb14a190d8b1ad0690b72224c965",
]
SAMPLE_DIGEST_10K = "5cb73606fa160c36114fb03f3518600e2374c02a069f7dfaae65e882293a9dc2"

# check_structure_conditions(spec, 3000, 0).boundary_decay_ratios, which
# _boundary_decay(spec, 1) returns
DECAY_RATIOS = [
    [0.0009765624999999991, 0.0009765028953552249, 0.0009764434071115756,
     0.0009764434071115756, 0.0009766817092895512, 0.0009765029535593349,
     0.0009765028371511184, 0.0009764434071115756],
    [0.03124809445862809, 0.031251907297985125, 0.031249999995870678,
     0.031250000008053766, 0.0312519072921672, 0.03124809631109422,
     0.031251907290845905, 0.031248094422287043],
    [0.0009764830271403002, 0.0009768007633208006, 0.0009764038258722128,
     0.000976641972859702, 0.0009764830271403002, 0.0009766417788184135,
     0.0009765628104409574, 0.0009764033990854559],
    [0.031246301115659767, 0.03124937949937706, 0.031246639886408124,
     0.03125149780120659, 0.0312503185981466, 0.03124686180185285,
     0.03124819354933882, 0.03124988534992659],
    [0.09920853257675796, 0.09921256577644794, 0.09921256962329913,
     0.09921256183001248, 0.09920853648372423, 0.09920853260581614,
     0.09921256173284171, 0.09921256971116088],
    [0.0009764434078363033, 0.0009766817097259604, 0.0009765625011666874,
     0.0009765625004052479, 0.0009766817100896026, 0.0009764435248665219,
     0.0009766817101721924, 0.0009764434101074766],
    [0.0009763313333886216, 0.0009765237187345055, 0.0009763525067120648,
     0.0009766561144157015, 0.0009765824138308309, 0.0009763663743993375,
     0.0009764496000844413, 0.0009765553341889081],
]


def exit_parameter_reference(spec, base, d):
    """One-ray exit search: double t from 1e-3 (1 + |base|) until base + t d
    leaves the cone (NaN if it is still inside past EXIT_T_CAP (1 + |base|)),
    then bisect [0, t] EXIT_BISECTIONS times."""

    def inside(t):
        return np.all(sigma_margins(spec, (base + t * d)[None, :])[0] > 0.0)

    scale = EXIT_T_CAP * (1.0 + np.linalg.norm(base))
    t = 1e-3 * scale / EXIT_T_CAP
    while inside(t):
        t *= 2.0
        if t > scale:
            return np.nan
    t_lo, t_hi = 0.0, t
    for _ in range(EXIT_BISECTIONS):
        mid = 0.5 * (t_lo + t_hi)
        if inside(mid):
            t_lo = mid
        else:
            t_hi = mid
    return t_hi


@pytest.mark.parametrize("spec,digest", zip(SPECS, SAMPLE_DIGESTS), ids=str)
def test_sampler_stream_is_pinned(spec, digest):
    pts = sample_cone_points(spec, 1000, 42)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def test_sampler_stream_is_pinned_at_10k():
    pts = sample_cone_points(SymmetricFunctionSpec(3, 2), 10_000, 7)
    assert pts.shape == (10_000, 3)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == SAMPLE_DIGEST_10K


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_exit_parameters_match_one_ray_search(spec):
    rng = np.random.default_rng(11)
    base = sample_cone_points(spec, 24, 3)
    d = rng.standard_normal((24, spec.n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    want = [exit_parameter_reference(spec, b, r) for b, r in zip(base, d)]
    assert np.array_equal(_exit_parameters(spec, base, d), want, equal_nan=True)
    anchor = np.ones(spec.n)
    want = [exit_parameter_reference(spec, anchor, r) for r in d]
    assert np.array_equal(_exit_parameters(spec, anchor, d), want, equal_nan=True)


def test_exit_parameters_nan_on_rays_that_stay_inside():
    # Gamma_1 is the half-space sum > 0: rays with sum(d) >= 0 never leave it
    spec = SymmetricFunctionSpec(2, 1)
    d = np.array([[1.0, 0.0], [0.6, -0.8], [-1.0, 0.0], [0.8, -0.6]])
    t = _exit_parameters(spec, np.ones(2), d)
    assert np.isnan(t[[0, 3]]).all()
    assert t[1] == pytest.approx(10.0) and t[2] == pytest.approx(2.0)
    assert np.array_equal(t, [exit_parameter_reference(spec, np.ones(2), r) for r in d],
                          equal_nan=True)


@pytest.mark.parametrize("spec,ratios", zip(SPECS, DECAY_RATIOS), ids=str)
def test_boundary_decay_ratios_are_pinned(spec, ratios):
    assert check_structure_conditions(spec, 3000, 0).boundary_decay_ratios == ratios


# the sampler and decay pins, recomputed in a process of its own; argv[1]
# holds the specs as [n, k, l] triples
PIN_SCRIPT = """
import hashlib, json, re, sys
from identity_manifest import numerics
from hessobs.symfunc import SymmetricFunctionSpec, _boundary_decay, sample_cone_points

specs = [SymmetricFunctionSpec(*nkl) for nkl in json.loads(sys.argv[1])]
digest = lambda pts: hashlib.sha256(pts.tobytes()).hexdigest()
print(json.dumps({
    "core": re.search(r"openblas (\\S+)", numerics()).group(1),
    "digests": [digest(sample_cone_points(spec, 1000, 42)) for spec in specs],
    "digest_10k": digest(sample_cone_points(SymmetricFunctionSpec(3, 2), 10_000, 7)),
    "ratios": [_boundary_decay(spec, 1) for spec in specs],
}))
"""


def test_pins_hold_on_the_prescott_kernels():
    # OpenBLAS's SSE3 (Prescott) kernels run on any x86-64 CPU and round
    # their dot products unlike the AVX ones.  The core name the process
    # reports shows that it ran on them
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS's Prescott kernels are x86-64 only")
    if "openblas unknown" in numerics():
        pytest.skip("numpy has no bundled OpenBLAS")
    tests = pathlib.Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    specs = json.dumps([[spec.n, spec.k, spec.l] for spec in SPECS])
    run = subprocess.run([sys.executable, "-c", PIN_SCRIPT, specs], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert got["core"] == "Prescott"
    assert got["digests"] == SAMPLE_DIGESTS
    assert got["digest_10k"] == SAMPLE_DIGEST_10K
    assert got["ratios"] == DECAY_RATIOS


@pytest.mark.parametrize("spec", [*SPECS[:2], SymmetricFunctionSpec(3, 2)], ids=str)
@pytest.mark.parametrize("count", [1000, 10_000])
def test_cone_tests_are_batched(spec, count, monkeypatch):
    # one sigma_margins call per batch, not per candidate, one batch of exit
    # rays, and bisections that stop at their fixed point: at most 94 calls
    # per sample here
    calls = []
    margins = symfunc.sigma_margins
    monkeypatch.setattr(symfunc, "sigma_margins",
                        lambda *a: calls.append(1) or margins(*a))
    for seed in range(3):
        calls.clear()
        sample_cone_points(spec, count, seed)
        assert len(calls) < 120


def test_structure_cone_tests_are_batched(monkeypatch):
    calls = []
    margins = symfunc.sigma_margins
    monkeypatch.setattr(symfunc, "sigma_margins",
                        lambda *a: calls.append(1) or margins(*a))
    check_structure_conditions(SymmetricFunctionSpec(2, 2), 1000, 0)
    assert len(calls) < 1000


# -------------------------------------------------- Newton-tensor path

def _eigen_reference(spec, U, g):
    """The eigen path: pencil eigenvalues lam of U v = lam g v in a
    g-orthonormal frame V, f(lam) and F^{ij} = V diag(Df(lam)) V^T."""
    L = np.linalg.cholesky(g)
    C = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, U), 1, 2))
    lam, Q = np.linalg.eigh(0.5 * (C + np.swapaxes(C, 1, 2)))
    V = np.linalg.solve(np.swapaxes(L, 1, 2), Q)
    f, Df = symfunc._grad_batch(spec, lam)
    return lam, f, np.einsum("...ia,...a,...ja->...ij", V, Df, V)


@pytest.mark.parametrize("metric", ["flat", "spd"])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_newton_tensors_match_eigen_path(spec, metric):
    # rows: the sampler's bulk, its last tenth at 0.999 of the exit
    # parameter, and exact ties; each turned into U = L Q diag(lam) Q^T L^T
    rng = np.random.default_rng(17)
    ties = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 1.0], [3.0, 1.0, 1.0], [2.0, 2.0, -0.5],
                     [1e-2, 1e-2, 1e-2], [4e2, 4e2, 4e2]])[:, : spec.n]
    lam = np.vstack([sample_cone_points(spec, 200, seed=5), ties[symfunc._inside(spec, ties)]])
    N, n = lam.shape
    edge = np.zeros(N, dtype=bool)
    edge[200 - int(200 * symfunc.BOUNDARY_FRACTION):200] = True
    Q = np.linalg.qr(rng.standard_normal((N, n, n)))[0]
    if metric == "flat":
        g = np.broadcast_to(np.eye(n), (N, n, n))
    else:
        A = rng.standard_normal((N, n, n))
        g = A @ np.swapaxes(A, 1, 2) + n * np.eye(n)
    L = np.linalg.cholesky(g)
    LQ = L @ Q
    U = LQ @ (lam[:, :, None] * np.swapaxes(LQ, 1, 2))
    U = 0.5 * (U + np.swapaxes(U, 1, 2))

    # B = L^{-1} U L^{-T} and dF/dU = L^{-T} D L^{-1}, as geometry's
    # to_metric_frame and derivative_to_chart form them
    Li = np.linalg.inv(L)
    sig, f, D, ok = f_and_grad_of_matrix(spec, Li @ U @ np.swapaxes(Li, 1, 2))
    Fij = np.swapaxes(Li, 1, 2) @ D @ Li
    lam_ref, f_ref, F_ref = _eigen_reference(spec, U, g)
    assert ok.all()
    tol = cone_tolerances(spec, lam_ref)
    assert np.all(np.abs(sig - sigma_margins(spec, lam_ref)) <= tol)
    f_err = np.abs(f - f_ref) / f_ref
    F_err = np.abs(Fij - F_ref).max(axis=(1, 2)) / np.abs(F_ref).max(axis=(1, 2))
    assert f_err[~edge].max() <= 1e-12 and F_err[~edge].max() <= 1e-12
    # at 0.999 of the exit parameter sigma_k is small against |lam|^k, and
    # the eigen path's own f is off by up to 1.5e-11 there (on flat rows,
    # sigma_k in exact rational arithmetic sits closer to the Newton
    # tensors'); both stay within the margin band, carried through
    # log sigma_k - log sigma_l
    band = tol[:, spec.k - 1] / sig[:, spec.k - 1]
    if spec.l:
        band += tol[:, spec.l - 1] / sig[:, spec.l - 1]
    assert np.all(f_err[edge] <= 1e-12 + band[edge])
    assert np.all(F_err[edge] <= 1e-12 + band[edge])


def test_newton_tensors_flag_rows_outside_the_cone():
    spec = SymmetricFunctionSpec(3, 2)
    B = np.array([np.diag([1.0, 1.0, 1.0]), np.diag([3.0, 1.0, -1.0]), np.full((3, 3), np.nan)])
    sig, f, D, ok = f_and_grad_of_matrix(spec, B)
    assert ok.tolist() == [True, False, False]
    assert np.allclose(sig[:2], [[3.0, 3.0], [3.0, -1.0]])
    assert np.isnan(f[1:]).all() and np.isnan(D[1:]).all()
    assert f[0] == pytest.approx(np.sqrt(3.0))


# every (n, k, l) with n = 2 and 3: each root family and each quotient
KERNEL_SPECS = [SymmetricFunctionSpec(n, k, l)
                for n in (2, 3) for k in range(1, n + 1) for l in range(k)]


def _mixed_batch(spec, seed):
    """(B, lam) for a shuffled batch of rows of every kind: Q diag(lam) Q^T
    with lam inside Gamma_k, at minus those points and at normal draws whose
    sigma_j all clear zero by 1e-3 (1 + |lam|)^j; diagonal rows with r ones
    and n - r zeros, on the boundary (sigma_k = 0 exactly) for r < k; NaN
    rows, with lam NaN.  `_inside(spec, lam)` is each row's ok."""
    rng = np.random.default_rng(seed)
    n = spec.n
    draws = rng.standard_normal((60, n))
    clear = 1e-3 * (1.0 + np.abs(draws).max(axis=1))[:, None] ** np.arange(1, spec.k + 1)
    draws = draws[np.all(np.abs(sigma_margins(spec, draws)) > clear, axis=1)]
    inside = sample_cone_points(spec, 12, seed=seed)
    lam = np.vstack([inside, -inside, draws])
    Q = np.linalg.qr(rng.standard_normal((len(lam), n, n)))[0]
    B = [Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2))]
    ones = np.tril(np.ones((n + 1, n)), -1)  # row r holds r ones
    B.append(ones[:, :, None] * np.eye(n))
    nan_diag = np.eye(n)
    nan_diag[0, 0] = np.nan
    B.append(np.stack([np.full((n, n), np.nan), nan_diag]))
    lam = np.vstack([lam, ones, np.full((2, n), np.nan)])
    order = rng.permutation(len(lam))
    return np.concatenate(B)[order], lam[order]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_newton_tensors_nan_exactly_outside_the_cone(spec):
    # f and D are computed on every row and NaN'd where ok fails, with no
    # warning from the rows outside the cone (pytest makes one an error)
    B, lam = _mixed_batch(spec, 3)
    sig, f, D, ok = f_and_grad_of_matrix(spec, B)
    assert ok.tolist() == _inside(spec, lam).tolist()
    assert 0 < ok.sum() < len(ok)
    if spec.k > 1:  # some rows fail on a higher sigma_j only
        assert np.any(~ok & (sig[:, 0] > 0.0))
    real = ~np.isnan(lam).any(axis=1)
    assert np.all(np.abs(sig[real] - sigma_margins(spec, lam[real]))
                  <= cone_tolerances(spec, lam[real]))
    assert np.isnan(sig[~real]).all()
    assert np.array_equal(np.isnan(f), ~ok)
    assert np.isnan(D[~ok]).all() and not np.isnan(D[ok]).any()
    assert np.all(f[ok] > 0.0)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_newton_tensor_rows_do_not_depend_on_the_batch(spec):
    # each row's bits are the same evaluated alone, in the whole batch and
    # on either side of every two-way split of it
    B, _ = _mixed_batch(spec, 4)
    whole = f_and_grad_of_matrix(spec, B)
    for r in range(len(B)):
        alone = f_and_grad_of_matrix(spec, B[r:r + 1])
        assert [a.tobytes() for a in alone] == [a[r:r + 1].tobytes() for a in whole]
    for cut in range(1, len(B)):
        head, tail = f_and_grad_of_matrix(spec, B[:cut]), f_and_grad_of_matrix(spec, B[cut:])
        for a, h, t in zip(whole, head, tail):
            assert np.concatenate([h, t]).tobytes() == a.tobytes()


# -------------------------------------------------- kernels against their (N, k)-block references

def _edge_rows(spec, seed):
    """Eigenvalue rows of every kind: inside (sampled), outside (minus those
    and normal draws), on the boundary (r ones and n - r zeros, and sigma_1
    = 0 by (1, -1, 0)), and rows drawn from NaN, +-inf, +-1e200 (whose
    sigma_j overflow), +-0.0, +-1 and 1e-200."""
    rng = np.random.default_rng(seed)
    n = spec.n
    inside = sample_cone_points(spec, 16, seed=seed)
    ones = np.tril(np.ones((n + 1, n)), -1)  # row r holds r ones
    special = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0, -0.0, 1.0, -1.0, 1e-200])
    lam = np.vstack([inside, -inside, rng.standard_normal((16, n)), ones, -0.0 * ones,
                     np.array([1.0, -1.0, 0.0])[:n], special[rng.integers(0, 10, (80, n))]])
    signed_zero = rng.random(lam.shape) < 0.1
    lam[signed_zero] = -0.0  # -0.0 entries in rows inside too
    return lam[rng.permutation(len(lam))]


def _layouts(a):
    """a as a C-contiguous array, in Fortran order, and as a strided view
    of every other row of a larger array."""
    return [np.ascontiguousarray(a), np.asfortranarray(a), np.repeat(a, 2, axis=0)[::2]]


def _same_bits(a, b):
    """Equal shape, dtype and values, NaN equal to NaN and -0.0 told from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype == bool:
        return np.array_equal(a, b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
@np.errstate(all="ignore")
def test_cone_kernels_match_block_references_bit_for_bit(spec):
    base = _edge_rows(spec, 7)
    ref_ok = inside_reference(spec, base)
    assert 0 < ref_ok.sum() < len(ref_ok) and np.isnan(sigma_margins_reference(spec, base)).any()
    for lam in _layouts(base):
        for kmax in range(spec.n + 1):
            assert _same_bits(elementary_symmetric(lam, kmax),
                              elementary_symmetric_reference(lam, kmax))
        sig = sigma_margins(spec, lam)
        assert _same_bits(sig, sigma_margins_reference(spec, lam))
        assert _same_bits(_inside(spec, lam), ref_ok)
        for got, want in zip(symfunc.f_and_grad_masked(spec, lam, sig),
                             f_and_grad_masked_reference(spec, lam, sig)):
            assert _same_bits(got, want)
        inside = lam[ref_ok]  # every row inside: the batch is evaluated whole
        for got, want in zip(symfunc.f_and_grad_masked(spec, inside, sig[ref_ok]),
                             f_and_grad_masked_reference(spec, inside, sig[ref_ok])):
            assert _same_bits(got, want)
        for rows in (lam, lam[ref_ok], lam[~ref_ok][::-1]):
            try:
                require_inside_reference(spec, rows)
            except OutsideCone as exc:
                with pytest.raises(OutsideCone) as got:
                    symfunc._require_inside(spec, rows)
                assert str(got.value) == str(exc) and got.value.j_failed == exc.j_failed
                assert _same_bits(got.value.lam, exc.lam)
                assert _same_bits(got.value.sigmas, exc.sigmas)
            else:
                symfunc._require_inside(spec, rows)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
@np.errstate(all="ignore")
def test_newton_tensors_match_block_reference_bit_for_bit(spec):
    # symmetric B = Q diag(lam) Q^T of the edge rows, diag(lam) itself
    # (exact boundary rows, signed zeros, NaN, inf and overflow on the
    # diagonal), and random symmetric B with special entries anywhere
    rng = np.random.default_rng(11)
    lam = _edge_rows(spec, 8)
    n = spec.n
    Q = np.linalg.qr(rng.standard_normal((len(lam), n, n)))[0]
    finite = np.isfinite(lam).all(axis=1)
    rotated = Q[finite] @ (lam[finite, :, None] * np.swapaxes(Q[finite], 1, 2))
    diagonal = np.zeros((len(lam), n, n))
    diagonal[:, range(n), range(n)] = lam
    X = rng.standard_normal((40, n, n))
    X[rng.random(X.shape) < 0.15] = -0.0
    X[rng.random(X.shape) < 0.1] = 1e200
    X[rng.random(X.shape) < 0.05] = np.nan
    X[rng.random(X.shape) < 0.05] = -np.inf
    B = np.concatenate([rotated, diagonal, X + np.swapaxes(X, 1, 2)])
    ref = f_and_grad_of_matrix_reference(spec, B)
    assert 0 < ref[3].sum() < len(B)
    for Bl in _layouts(B):
        got = f_and_grad_of_matrix(spec, Bl)
        assert len(got) == 4
        for a, b in zip(got, ref):
            assert _same_bits(a, b)


# -------------------------------------------------- theta estimates

def test_theta_sigma1_vacuous():
    spec = SymmetricFunctionSpec(2, 1)
    lams = sample_cone_points(spec, 500, seed=9)
    cert = estimate_theta(spec, np.array([[2.0, 2.0]]), 0.1, lams)
    assert cert.vacuous
    assert cert.violations_at_zero == 0


def test_theta_zeta_above_diameter_vacuous():
    spec = SymmetricFunctionSpec(2, 2)
    lams = sample_cone_points(spec, 500, seed=9)
    cert = estimate_theta(spec, np.array([[2.0, 2.0]]), 2.5, lams)
    assert cert.vacuous


def test_theta_equal_pairs_excluded():
    spec = SymmetricFunctionSpec(2, 2)
    K = np.array([[2.0, 2.0]])
    cert = estimate_theta(spec, K, 0.1, K)
    assert cert.vacuous


def test_theta_sigma2_positive_regression():
    spec = SymmetricFunctionSpec(2, 2)
    lams = sample_cone_points(spec, 10_000, seed=42)
    cert = estimate_theta(spec, np.array([[2.0, 2.0]]), 0.1, lams)
    assert not cert.vacuous
    assert cert.theta_hat > 0.0
    assert cert.violations_at_zero == 0
    # regression pin for the seeded sampler (tolerant to minor numeric drift)
    assert cert.theta_hat == pytest.approx(0.005081449668185718, rel=1e-6)


def test_theta_reproducible():
    spec = SymmetricFunctionSpec(2, 2)
    a = estimate_theta(spec, np.array([[2.0, 2.0]]), 0.1, sample_cone_points(spec, 2000, seed=4))
    b = estimate_theta(spec, np.array([[2.0, 2.0]]), 0.1, sample_cone_points(spec, 2000, seed=4))
    assert a.theta_hat == b.theta_hat


def _theta_scan_case(spec, n_k, n_lam, narrow, seed):
    """K (from the sampler, or narrow: a 2 % cluster around one tuple, as a
    subsolution with a nearly constant Hessian gives) and a cloud from the
    sampler, and a zeta equal to the per-axis gap of one pair; the cloud
    gains positive multiples of that pair's row, whose normals agree up to
    round-off, so many gaps lie within 1e-12 of zeta, on both sides of it."""
    rng = np.random.default_rng(seed)
    if narrow:
        K = (np.arange(spec.n, 0, -1) + 1.0) * (1.0 + 0.02 * rng.standard_normal((n_k, spec.n)))
    else:
        K = sample_cone_points(spec, n_k, seed)
    lams = sample_cone_points(spec, n_lam, seed + 1)
    nu = lambda g: g / np.linalg.norm(g, axis=1, keepdims=True)
    nu_mu, nu_lam = nu(symfunc._grad_batch(spec, K)[1]), nu(symfunc._grad_batch(spec, lams)[1])
    gaps = np.sqrt(sum((nu_lam[:, i, None] - nu_mu[None, :, i]) ** 2 for i in range(spec.n)))
    t, j = np.unravel_index(np.argmin(np.abs(gaps - 0.6 * gaps.max())), gaps.shape)
    scales = rng.uniform(0.5, 2.0, 40)
    lams = np.vstack([lams, scales[:, None] * lams[t]])
    nu_lam = nu(symfunc._grad_batch(spec, lams)[1])
    near = np.abs(np.linalg.norm(nu_lam - nu_mu[j], axis=1) - gaps[t, j]) < 1e-12
    assert near.sum() > 20
    return K, lams, float(gaps[t, j])


@pytest.mark.parametrize("spec", [SymmetricFunctionSpec(2, 2), SymmetricFunctionSpec(3, 2),
                                  SymmetricFunctionSpec(3, 3), SymmetricFunctionSpec(2, 2, 1),
                                  SymmetricFunctionSpec(3, 2, 1)], ids=str)
@pytest.mark.parametrize("case", [(40, 600, False), (30, 600, True), (900, 2500, False)],
                         ids=["one_chunk", "narrow_K", "two_chunks"])
def test_theta_scan_matches_all_pairs_reference(spec, case):
    # the row filter and the Gram-form gaps change no bit of the certificate,
    # at zeta on a pair's gap and one ulp either side of it
    K, lams, gap = _theta_scan_case(spec, *case, seed=case[0] + case[1])
    grad = symfunc._grad_batch(spec, lams)[1]
    for zeta in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0), 0.5 * gap):
        want = estimate_theta_reference(spec, K, zeta, lams)
        got = estimate_theta(spec, K, zeta, lams)
        assert (got.theta_hat, got.pair_count, got.violations_at_zero, got.min_bracket) == (
            want.theta_hat, want.pair_count, want.violations_at_zero, want.min_bracket)
        own = estimate_theta(spec, K, zeta, lams, grad, all_pairs=False)
        assert (own.theta_hat, own.pair_count) == (want.theta_hat, want.pair_count)
        assert own.violations_at_zero is None and own.min_bracket is None


def test_theta_rejects_outside_samples():
    spec = SymmetricFunctionSpec(2, 2)
    with pytest.raises(OutsideCone):
        estimate_theta(spec, np.array([[2.0, 2.0]]), 0.1, np.array([[1.0, -1.0]]))


def test_theta_outside_error_names_first_bad_row():
    spec = SymmetricFunctionSpec(3, 2)
    # row 1 fails at sigma_2 only, row 2 already at sigma_1
    lams = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, -1.0], [-5.0, 1.0, 1.0]])
    with pytest.raises(OutsideCone) as exc:
        estimate_theta(spec, np.array([[2.0, 2.0, 2.0]]), 0.1, lams)
    assert np.array_equal(exc.value.lam, lams[1])
    assert exc.value.j_failed == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        SymmetricFunctionSpec(3, 4)
    with pytest.raises(ValueError):
        SymmetricFunctionSpec(3, 2, 2)
    with pytest.raises(ValueError):
        SymmetricFunctionSpec(1, 1)
