"""CLI subcommands: exit codes, report bundles, reproducibility."""

import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hessobs.cli import main
from hessobs.config import build_runsetup, parse_config
from hessobs.newton import continuation_solve
from hessobs.problems import bundled_config_path, bundled_config_text
from hessobs.report import _BLOCK, ReportBundleWriter, _g17_lines, fmt, write_grid_dump
from oracles import (csv_reference, csv_rows, g17_cases, g17_reference, json_reference,
                     read_grid_dump, solve_3d_config_text)

SMALL_MA = (
    bundled_config_text("ma_obstacle")
    .replace("m = 65", "m = 21")
    .replace("eps_min = 1e-06", "eps_min = 0.0001")
    .replace("theta_samples = 10000", "theta_samples = 2000")
)
# laplacian_obstacle_strong with its supplied subsolution replaced by the
# built-in start, which the audit then takes as its subsolution
LAPLACIAN_STRONG_BUILTIN = re.sub(r'(subsolution \{\n)  u = "[^"]*"', r"\1  u = builtin",
                                  bundled_config_text("laplacian_obstacle_strong"))
CONFORMAL_MA = bundled_config_text("ma_obstacle").replace(
    "kind = flat", 'kind = conformal\n  phi = "0.05*x1"')
SOLVE_3D = solve_3d_config_text()
CONFORMAL_3D = SOLVE_3D.replace("kind = flat", 'kind = conformal\n  phi = "0.05*x1"')


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL_MA)
    return p


def bundle_bytes(outdir):
    return {
        f.name: f.read_bytes()
        for f in sorted(pathlib.Path(outdir).iterdir())
        if f.is_file()
    }


# -------------------------------------------------- solve / sweep

def test_solve_writes_bundle(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["solve", str(small_cfg), "--out", str(out), "--quiet"])
    assert code == 0
    names = {f.name for f in out.iterdir()}
    assert {"report.json", "norms_vs_eps.csv", "residual_history.csv",
            "contact_cells.csv"} <= names
    assert any(n.startswith("u_eps_") for n in names)


def test_sweep_exit0_and_contact_nonempty(small_cfg, tmp_path):
    out = tmp_path / "out"
    code = main(["sweep", str(small_cfg), "--out", str(out), "--quiet"])
    assert code == 0
    contact = (out / "contact_cells.csv").read_text().splitlines()
    assert len(contact) > 2  # meta + header + at least one cell


def test_norms_and_audit_share_one_state_per_epsilon(small_cfg, tmp_path, monkeypatch):
    # the monitors evaluate and diagonalise each solved state once, and the
    # subsolution once for the audit
    import hessobs.monitors as monitors

    calls = {"evaluate_state": 0, "spectrum": 0}
    for name in calls:
        def counting(*args, _fn=getattr(monitors, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(monitors, name, counting)
    assert main(["sweep", str(small_cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    epsilons = json.loads((tmp_path / "out" / "report.json").read_text())["epsilons"]
    assert calls == {"evaluate_state": len(epsilons) + 1, "spectrum": len(epsilons) + 1}


@pytest.fixture()
def builtin_cfg(tmp_path):
    p = tmp_path / "builtin.cfg"
    p.write_text(LAPLACIAN_STRONG_BUILTIN)
    return p


def test_builtin_start_built_once_per_command(builtin_cfg, tmp_path, monkeypatch):
    # the audit's subsolution is the start continuation_solve used, and
    # verify-lemma builds that start once
    import hessobs.cli as cli
    import hessobs.newton as newton

    calls = []
    for mod in (newton, cli):
        def counting(prob, _fn=mod.default_initializer):
            calls.append(prob)
            return _fn(prob)
        monkeypatch.setattr(mod, "default_initializer", counting)
    assert main(["sweep", str(builtin_cfg), "--grid-m", "25", "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert len(json.loads((tmp_path / "out" / "report.json").read_text())["audits"]) == 5
    assert len(calls) == 1
    assert main(["verify-lemma", str(builtin_cfg), "--samples", "500", "--quiet"]) == 0
    assert len(calls) == 2


def test_at_most_two_solved_states_alive_during_audited_sweep(builtin_cfg, tmp_path,
                                                              monkeypatch):
    # each epsilon is audited in the loop that builds its norm bundle, so at
    # most the state being audited and the one being built are alive, and
    # none is kept once the bundle is written
    import weakref

    import hessobs.cli as cli

    states, alive = [], []
    build = cli.solved_state

    def recording(*args):
        s = build(*args)
        states.append(weakref.ref(s))
        alive.append(sum(ref() is not None for ref in states))
        return s

    monkeypatch.setattr(cli, "solved_state", recording)
    assert main(["sweep", str(builtin_cfg), "--grid-m", "25", "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert len(states) == 5 and max(alive) <= 2
    assert all(ref() is None for ref in states)


def count_monitor_work(monkeypatch):
    """Patch the monitors to count their full spectra, their largest-|lambda|
    kernel calls and the rows each norm bundle passes to eigvalsh."""
    import hessobs.cli as cli
    import hessobs.monitors as monitors

    work = {"spectrum": 0, "largest": 0, "bundle_rows": []}
    spectrum, largest, bundle = (monitors.spectrum, monitors.largest_abs_eigenvalue,
                                 cli.compute_norm_bundle)
    eigvalsh, rows = np.linalg.eigvalsh, []

    def counting(key, fn):
        def wrapped(*args):
            work[key] += 1
            return fn(*args)
        return wrapped

    def counting_eigvalsh(B):
        rows.append(len(B) if B.ndim == 3 else 1)
        return eigvalsh(B)

    def counting_bundle(*args):
        rows.clear()
        out = bundle(*args)
        work["bundle_rows"].append(sum(rows))
        return out

    monkeypatch.setattr(monitors, "spectrum", counting("spectrum", spectrum))
    monkeypatch.setattr(monitors, "largest_abs_eigenvalue", counting("largest", largest))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(cli, "compute_norm_bundle", counting_bundle)
    return work


def test_3d_norm_bundles_pass_few_rows_to_eigvalsh(tmp_path, monkeypatch):
    # an audits-off 3d sweep takes hess_norm from candidate rows only: at
    # most 10 % of the 2,197 interior rows reach eigvalsh per epsilon, and
    # no full spectrum is computed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SOLVE_3D)
    work = count_monitor_work(monkeypatch)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                 "--audit", "off"]) == 0
    assert len(work["bundle_rows"]) == work["largest"] == 5
    assert 0 < max(work["bundle_rows"]) <= 0.1 * 13**3
    assert work["spectrum"] == 0


def test_2d_norm_bundles_form_no_spectrum(tmp_path, monkeypatch):
    # an audits-off 2d sweep takes hess_norm from the largest-|lambda|
    # kernel too, once per epsilon: at most 10 % of the 961 interior rows
    # reach eigvalsh, and no full spectrum is computed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle"))
    work = count_monitor_work(monkeypatch)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                 "--grid-m", "33", "--audit", "off"]) == 0
    assert len(work["bundle_rows"]) == work["largest"] == 5
    assert 0 < max(work["bundle_rows"]) <= 0.1 * 31**2
    assert work["spectrum"] == 0


@pytest.mark.parametrize("text,epsilons", [
    (SMALL_MA, 3),
    (SOLVE_3D.replace("theta_samples = 10000", "theta_samples = 500"), 5),
], ids=["2d", "3d"])
def test_audited_sweep_computes_each_spectrum_once(text, epsilons, tmp_path, monkeypatch):
    # the full spectrum once per solved state, for the audit, and once for
    # the subsolution; the norm bundle's hess_norm comes from the
    # largest-|lambda| kernel, once per solved state, in every dimension
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    work = count_monitor_work(monkeypatch)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                 "--audit", "on"]) == 0
    assert work["spectrum"] == epsilons + 1 and work["largest"] == epsilons


def test_contact_header_prints_tau_at_fixed_precision(small_cfg, tmp_path):
    # a roundoff change in tau must not change the csv bytes; report.json
    # keeps the full value
    out = tmp_path / "out"
    assert main(["solve", str(small_cfg), "--out", str(out), "--audit", "off", "--quiet"]) == 0
    tau = json.loads((out / "report.json").read_text())["contact"]["tau"]
    meta = (out / "contact_cells.csv").read_text().splitlines()[0]
    assert f"(tau = {tau:.6e});" in meta
    assert repr(tau) not in meta


# sha256 of every bundle file of four sweeps: SMALL_MA with audits on (no
# multigrid level: each epsilon's first Jacobian is factored and its LU
# preconditions the later steps, 26/8/3 Krylov iterations), ma_obstacle
# at m = 33 with audits off (V-cycle GMRES, 29/12/9/9/8 Krylov
# iterations), the sigma_1 laplacian_obstacle_strong at m = 25 with
# audits off (23^2 unknowns, no multigrid level, 20/10/7/6/4 Krylov
# iterations) and the same at m = 25 from the built-in start with audits
# on, whose audit subsolution is that start.  A change that moves roundoff
# updates these pins and says so.  These four and the conformal pin last
# moved when each Newton step's linear solve stopped at 0.5 tol / |F|_2
# relative (the forcing term's safeguard) rather than at |F|_inf / sqrt(N)
# alone: every field except the builtin sweep's first, the residual
# histories, the norms and report.json moved, fields by at most 5.4e-12
# relative to the max norm (conformal; 3.1e-12 SMALL_MA, 9.2e-13 at m = 33,
# 1.2e-13 at m = 25), with the same Newton counts, contact cells and audit
# case counts; contact_cells.csv held.  The report.json pins last moved when
# the last epsilon stopped solving the path tangent that nothing reads: its
# solves row's krylov_iterations fell by 2 in each sweep but the
# manufactured one (whose tangent right-hand side is zero), and every other
# byte held.  The two audited pins' report.json last moved when the audit's
# operator_L became the Jacobian's stencil rows times v: only the audits'
# worst_slack_case1/2 moved, by at most 2.0e-14 relative, with the same case
# counts and no violations.  The builtin pin last moved when the start's
# harmonic lift took its right side from operator_L's stencil rows: every
# file but contact_cells.csv moved, fields by at most 2.0e-16 relative, with
# the same Newton and Krylov counts, contact cells and audit case counts.
# Every pin but ma_manufactured_m25_audited last moved when the V-cycle's
# coarsest level, and the whole solve on grids without levels, took
# LAPACK's banded LU in place of SuperLU in natural order: fields moved by
# at most 2.7e-16 relative to the max norm (ma_obstacle at m = 49; 2.0e-16
# builtin, 1.8e-16 SMALL_MA and m = 33, 1.2e-16 for both 3d pins, 1.0e-16
# sigma_1, 8.9e-17 conformal), with the same Newton and Krylov counts,
# contact cells and audit case counts; each contact_cells.csv held, and the
# norms table held at m = 33, m = 49 and on the conformal metric.  The
# m = 49 pin and the four at m = 25 last moved when 2d grids and levels of
# up to 750 unknowns, 529 at m = 25 and at the bottom of m = 49, became one
# direct solve (COARSE_N[2]): fields moved by at most 7.3e-12 relative
# (conformal; 9.3e-13 at m = 49, 1.8e-13 builtin, 1.2e-13 sigma_1, 3.2e-14
# manufactured), with the same Newton counts, contact cells and audit case
# counts and fewer Krylov iterations (conformal 69 -> 53, sigma_1 60 -> 47,
# builtin 55 -> 41, manufactured 10 -> 3, m = 49 48 -> 47 and its nested
# 25 x 25 solve 24 -> 23); each contact_cells.csv held.
PINNED_BUNDLES = {
    "small_ma_audited": (SMALL_MA, [], {
        "contact_cells.csv": "797240f1dc39d6f5b6e5293041d423e30d475af23c7d014a28021812e936d478",
        "norms_vs_eps.csv": "37807c79ff942e54c991d549b652b8351c3c00a5266f77182b5d4e5f14c594a5",
        "report.json": "8871162d8a6d0b7e55cef87245e7d634b3fa053fc4713ca3506696599e9e1d1f",
        "residual_history.csv": "ebfc1a45d72ac8850bc297cfb378739fcc4de6d420256dcffd4b509051c4f44b",
        "u_eps_1e-02.txt": "4566cec198153fd325a45539a282cad183dba93530ca4e7e2f86dc02c4fd7ba0",
        "u_eps_1e-03.txt": "d3eb88941e45cfb1eea5c14a40fb9bfdbaaa247c642ab46742502d99bb2f7342",
        "u_eps_1e-04.txt": "883f7fcee50f786d69b442bd7130c7aa0b91d2cc83b1d1e937aa94d2a5e8e38e",
    }),
    "ma_obstacle_m33_vcycle": (bundled_config_text("ma_obstacle"),
                               ["--grid-m", "33", "--audit", "off"], {
        "contact_cells.csv": "fe87fea4d85063a446124b4c7594ab5f140eb92c559f04307112931f7861520d",
        "norms_vs_eps.csv": "177a0a1fd574a6fac3a25f244cda2ebf739273fa6e37e65bbb5c6ae0500f970c",
        "report.json": "7d44bc2ba63def74b3e1462557caaed91188bfea5a1f3aaa269803da9865942c",
        "residual_history.csv": "7fafda9211b75e41ad958bed4d992c63dcc1c50efe3ee0f473df42ebcdea2621",
        "u_eps_1e-02.txt": "227219fec4f6dedad95cfb4cdcb940d32219c745550214575ef92daa3f90cf46",
        "u_eps_1e-03.txt": "25b02046429a7799b51f56d0539be6bce1c6bc1d8b813f60cbf1fa9768ca0b9f",
        "u_eps_1e-04.txt": "922873c880c9fe3155379044b2ea6432fa7ab4b8e2205af4914751e4d0d12e9c",
        "u_eps_1e-05.txt": "65b802a3ee1e02f1045743ef5470f175a05db04bd3122a8a5a3ce6ccfa23e84b",
        "u_eps_1e-06.txt": "7d9f8a1badf897e0ff9c2d34edc0ae5809f05031aef62ed1c4e38ffa0b2bbf85",
    }),
    # the smallest 2d grid that nests: the first epsilon is solved on the
    # 25 x 25 grid first (529 interior unknowns, above NESTED_N)
    "ma_obstacle_m49_nested": (bundled_config_text("ma_obstacle"),
                               ["--grid-m", "49", "--audit", "off"], {
        "contact_cells.csv": "23421a0fb278d9b8fb3731205e892a948b1ac3327c45faa8ee6ebfceb8a66d77",
        "norms_vs_eps.csv": "6fb9ec4136de242914a51c0017157895c30f0f5e222d9873331fcb5a48be3469",
        "report.json": "ee059d2cc59d3f38e7a51e9fcca1dc32aedf91644e5816e139727c24b972b833",
        "residual_history.csv": "6723245b95dbf860109fc67284241b4fdc395e6d768ce34e7abfc9878a011836",
        "u_eps_1e-02.txt": "dabf229514c59ed9b16693c086cf32fe1fd414bff6304315472e81539aa8dd3e",
        "u_eps_1e-03.txt": "6b8224182abfff32aba3557429e066ad61a7070b06affb800ee25b1fb0a347cd",
        "u_eps_1e-04.txt": "f875d06fc87f399f4ebd301cb3158b29e25ee2e151c02f5a212ddd8577873185",
        "u_eps_1e-05.txt": "799584e68fd3039d24b53c266664eb7cdcb0325f67def952b6872c75a285a345",
        "u_eps_1e-06.txt": "089b5fc61dbcb446c9a724158198d74e4811fd086461c9f383bed0d904e57f06",
    }),
    "laplacian_strong_m25_sigma1": (bundled_config_text("laplacian_obstacle_strong"),
                                    ["--grid-m", "25", "--audit", "off"], {
        "contact_cells.csv": "9cf24642f5f3199b51054a909d07c53ad94317023a7231cf6c2fe9a76545d7f2",
        "norms_vs_eps.csv": "a4b640474a9d04e6c7dc845fbe65ef027276634a3aa7b10e6c1b5a75bc943bfc",
        "report.json": "ae1d07ce35c90feaed631bff79ed3bc7adca682a87fde3afcf4a6610c94ce681",
        "residual_history.csv": "1a212ce9231d11310397dd11de917ebdc24035a5c4124bf07b8b00b994279998",
        "u_eps_1e-02.txt": "b2a27dc8274d7f3864b6bdea73251e9c07cc08e4ec4cda8d9d1e6564f03feee2",
        "u_eps_1e-03.txt": "9b612ded91a3eee96bea9a2308158f4daf71efaf540de5eaf5bf8e9232d0df2b",
        "u_eps_1e-04.txt": "3e24eb1efd1ce8c73008c919df56dc8787c7cb7ab68747bddc2279c783cd7878",
        "u_eps_1e-05.txt": "bf6bda19e86e8a1432cea915d8a18879ae5f1ef0cdbe76a1c128d546f3d6f024",
        "u_eps_1e-06.txt": "9288d243c92a111ce827c654390b4111ca8dab29f5a72ca29784d0987469a3ec",
    }),
    "laplacian_strong_m25_builtin_audited": (LAPLACIAN_STRONG_BUILTIN, ["--grid-m", "25"], {
        "contact_cells.csv": "9cf24642f5f3199b51054a909d07c53ad94317023a7231cf6c2fe9a76545d7f2",
        "norms_vs_eps.csv": "6114bd3bbee7050404ad3d5006c932ee7fc896f7303cbcc803a03475c985af9d",
        "report.json": "352cd10756f27d4d01d93a0d596c58ee0ce71b0e2a9c9515ddfd87645eff6f34",
        "residual_history.csv": "47d11ee6d1f3bb3599afade07603acd54140e07cb021dfc476d814e99189f441",
        "u_eps_1e-02.txt": "3e085ad229fdfe5a58835ce61c894b1bfa4b7ea6eaf11bebcf028542c37cd2e3",
        "u_eps_1e-03.txt": "e4afb180b9aba4df660a5635e95f94e88ae5ff00b4bc506e613f4c23d934a345",
        "u_eps_1e-04.txt": "c26262ad4be34558a47a36f9029e4eeac6f990682e1d7d80c218e82b710a561d",
        "u_eps_1e-05.txt": "8b15b05dabf9c7e2a9eb5149a5ccd9cb7b4e6522fd758cd1581fce449259fc30",
        "u_eps_1e-06.txt": "c72801c75832dc401299546864bbcfaad56eace4232f81fc58072531f9fda285",
    }),
    # the one curved pin: g = exp(0.1 x1) I through the Cholesky reduction
    # and the Christoffel term, audits on (at m = 21 the contact band exits 2)
    "ma_obstacle_conformal_m25_audited": (CONFORMAL_MA, ["--grid-m", "25"], {
        "contact_cells.csv": "5f10b2938197536be24ac2fa3cc883290765fbf9893e2b9a4d42c00b83d4f623",
        "norms_vs_eps.csv": "ead26c3d7aff59f381434a8988be2107fb0d92a324dd856e1945ab59b8892809",
        "report.json": "82eb47133fa1d81fba7f96cfdef65fc34fe3b5e151cbb778fd13970a8b8e4aab",
        "residual_history.csv": "6af3061f38bd61f5f2036ba194c67f1ca6de31c9c7df886280c5e0ee6147e79a",
        "u_eps_1e-02.txt": "704da97dff673a4d92890c81cdc4a60460cc923a6c5628027aa2a522d7cdba58",
        "u_eps_1e-03.txt": "0cf2bfcdc47beb765cc2d2df6f5ceb1c2f5f33fa9d271e8d3a928ff9fd9b331e",
        "u_eps_1e-04.txt": "d2ab16dadd891ba7081e71a08b5b041c60f4f9a329fdffcbceb12e2b745296bf",
        "u_eps_1e-05.txt": "51a2f760facddfd8f5b8a8e0b3e83bf8f23c0c7231bfe99b728775025b6361ed",
        "u_eps_1e-06.txt": "73a71094eb09ab201cd4ae6e7d2e82d433ede1f9fce15fd28041a3545d0ae4f2",
    }),
    # a sigma_2 audit whose subsolution has a non-constant Hessian, so K has
    # many rows and the per-state theta scan forms pairs
    "ma_manufactured_m25_audited": (bundled_config_text("ma_manufactured"), ["--grid-m", "25"], {
        "contact_cells.csv": "3a79fb6ab7326ef47b64f57ba085b68269ed31addfff6c24f50d04c739e8c78c",
        "norms_vs_eps.csv": "1bb1e965f0311f1d746549ac9fb3fcf9727fa67b3a44b6ad09318527f9789aca",
        "report.json": "85bc42e3c12e2b04e40c9b2e2ceff361ecc1c8368f72bb5be5ccbd5a5b2b8747",
        "residual_history.csv": "1b9ad7acd5e8e802c6556a4853562cafe33319c7499c3bf0e9c452bf7de18289",
        "u_eps_1e-02.txt": "b98b40d4f26cbb3dd82ff10e766025740ec13702a70f645fd4080ba45ad74c60",
        "u_eps_1e-03.txt": "b98b40d4f26cbb3dd82ff10e766025740ec13702a70f645fd4080ba45ad74c60",
        "u_eps_1e-04.txt": "b98b40d4f26cbb3dd82ff10e766025740ec13702a70f645fd4080ba45ad74c60",
        "u_eps_1e-05.txt": "b98b40d4f26cbb3dd82ff10e766025740ec13702a70f645fd4080ba45ad74c60",
        "u_eps_1e-06.txt": "b98b40d4f26cbb3dd82ff10e766025740ec13702a70f645fd4080ba45ad74c60",
    }),
    # the two n = 3 pins, audits off: the solve_3d benchmark config (flat,
    # m = 15) and the same config on the conformal metric phi = 0.05 x1,
    # which hold the bytes of the 3x3 monitors, hess_norm among them
    "solve_3d_m15": (SOLVE_3D, ["--audit", "off"], {
        "contact_cells.csv": "1bf606d74ab49baa0d3f713d0aba21b1619c2f708966d28911c61803ee613d9f",
        "norms_vs_eps.csv": "ea1d582febefdb6024c9bdddb4bda1fafec01c76bc5d1aef38f24d691bc3dc8e",
        "report.json": "81af9adf63bf2d34029cba4f39b9477150ab2d7a28e38b73bf53566a5dd66627",
        "residual_history.csv": "04df83b5051c5fde63a9c92b8d911e41c1561d6a833095b77825266d7d3b1f5e",
        "u_eps_1e-02.txt": "74383e1fc23a2b477d8f8ed3ec96dcb5ead86962c2f0a686319d0f916c6befdd",
        "u_eps_1e-03.txt": "3ef1b0c030fe12986b3979a19b6f828b659d8c90f8a84a54acb09f4df3048fb8",
        "u_eps_1e-04.txt": "6881e05f7b2ae2d7b124094a5facb3e2842d501546c3d3c10c2a7ffa40795185",
        "u_eps_1e-05.txt": "789b5b56dd5d258003105decca0d4c89f7c6f605c1f16f752af7a4bc705edb64",
        "u_eps_1e-06.txt": "9f65434762aabe6a89eff812d6f1b9d01b76f169d17e472e8b7f8a25ed6bca64",
    }),
    "solve_3d_conformal_m15": (CONFORMAL_3D, ["--audit", "off"], {
        "contact_cells.csv": "a20bb36570da6330fd0b7cee51c8b85e0d3fab1463d4448d64b0734a663a289b",
        "norms_vs_eps.csv": "17a80e62eb21bfd0faa367244a2936b06a919e672369bc1ea23cff74b315259e",
        "report.json": "04d5fcd6270000bcf4b303b9c1a1a5ed64c5ca685738b7acb4608cbf062323e4",
        "residual_history.csv": "363e81c24ab70a155790980cde335d04123298af85b64f870b37f13d32b683e3",
        "u_eps_1e-02.txt": "1315d843979f4b747bb1b1bb4959abc80c4cdf88c67c88ae116d261fe88b8dcb",
        "u_eps_1e-03.txt": "e8d9c2765cc7cd9d9e344e147b05eb15c5db1c4ab32f1a428766c4e7101aca99",
        "u_eps_1e-04.txt": "56600687d819efe5a08eeb0271b51a1641251903d2406266f07f2fafc085a749",
        "u_eps_1e-05.txt": "0d7d941b6d939f6821a7147c33dd59ee0f47c52801ed27e11719103e214f1ef4",
        "u_eps_1e-06.txt": "c9afa0e367b76f9ef7c6d7d2001ea911aa6b8c7a69fb9d1e1e77522264ef3ed0",
    }),
}


@pytest.mark.parametrize("name", list(PINNED_BUNDLES))
def test_sweep_reproducible_byte_identical(name, tmp_path):
    text, flags, pins = PINNED_BUNDLES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", str(cfg), "--out", str(out1), "--quiet", *flags]) == 0
    assert main(["sweep", str(cfg), "--out", str(out2), "--quiet", *flags]) == 0
    bundle = bundle_bytes(out1)
    assert bundle == bundle_bytes(out2)
    assert {f: hashlib.sha256(b).hexdigest() for f, b in bundle.items()} == pins


# sha256 of the check-structure and verify-lemma bundles at 500 samples, on
# SMALL_MA (sigma_2) and on the bundled sigma_1 laplacian_obstacle (m = 129,
# a vacuous certificate)
PINNED_CERTIFICATES = {
    "small_ma": (SMALL_MA, {
        "check-structure": "f6ce4ee44b798db4fba7798018d38869e0731d20491bef0b59a45e94b4e6da55",
        "verify-lemma": "7f039c9d1a02050d850160703876a12e8243d74a2e11f49af5a5d08e3c8f33d4",
    }),
    "laplacian_obstacle": (bundled_config_text("laplacian_obstacle"), {
        "check-structure": "0c516017797c6bed8e06d1d989acce556ec791c9a820d526e32c78f93c1fb00c",
        "verify-lemma": "55456d4e432439f619611338f135336d3886788815a3da3108173a38f415f752",
    }),
}


@pytest.mark.parametrize("name", list(PINNED_CERTIFICATES))
def test_certificate_bundles_byte_identical(name, tmp_path):
    text, pins = PINNED_CERTIFICATES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    digests = {}
    for command, outdir in (("check-structure", "cs"), ("verify-lemma", "vl")):
        assert main([command, str(cfg), "--samples", "500", "--quiet",
                     "--out", str(tmp_path / outdir)]) == 0
        [data] = bundle_bytes(tmp_path / outdir).values()
        digests[command] = hashlib.sha256(data).hexdigest()
    assert digests == pins


def test_sweep_draws_cone_cloud_once(small_cfg, tmp_path, monkeypatch):
    import hessobs.monitors as monitors

    calls = []
    sample = monitors.sample_cone_points
    monkeypatch.setattr(monitors, "sample_cone_points",
                        lambda *a, **kw: calls.append(a) or sample(*a, **kw))
    out = tmp_path / "out"
    assert main(["sweep", str(small_cfg), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["epsilons"]) == 3
    assert len(calls) == 1
    assert [a["epsilon"] for a in report["audits"]] == report["epsilons"]


def test_field_dump_round_trip(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["solve", str(small_cfg), "--out", str(out), "--quiet"])
    dumps = sorted(out.glob("u_eps_*.txt"))
    meta, arr = read_grid_dump(dumps[0])
    assert arr.shape == (21, 21)
    assert meta["n"] == "2"


def test_field_dump_formats_each_value_at_17_digits(tmp_path):
    # the whole-field format writes what "%.17g" writes per value, special
    # values included, and reads back bit for bit
    from hessobs.geometry import ChartGrid
    from hessobs.report import write_grid_dump

    grid = ChartGrid.box((-1.0, -1.0), (1.0, 2.0), (3, 4))
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310,
                       1.0, -3.0, 1e22, 0.1, 123456789.0]).reshape(3, 4)
    path = write_grid_dump(tmp_path / "u.txt", grid, values)
    lines = path.read_text().splitlines()
    assert lines[-12:] == ["%.17g" % v for v in values.ravel()]
    assert lines[-12:] == ["nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
                           "9.9999999999999694e-311", "1", "-3", "1e+22",
                           "0.10000000000000001", "123456789"]
    meta, back = read_grid_dump(path)
    assert meta["m"] == "3 4" and back.shape == (3, 4)
    assert np.array_equal(back, values, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(values))


# the dump body comes from report._g17_lines, a numpy kernel that must write
# what the one %-format of the field (oracles.g17_reference) writes, byte for
# byte

@pytest.fixture(scope="module")
def g17_sets():
    return g17_cases()


@pytest.mark.parametrize("name", ["ties", "edges", "bits", "magnitudes", "specials"])
def test_dump_kernel_writes_the_percent_format(g17_sets, name):
    values = g17_sets[name]
    assert _g17_lines(values) == g17_reference(values)


def test_dump_kernel_leaves_special_values_to_python():
    # a NaN with its sign bit set prints as nan, like any NaN
    values = np.array([0.0, -0.0, 5e-324, -1e-310, 1e16, -9.9999999999999e-5,
                       np.inf, -np.inf, np.nan, -np.nan])
    assert np.signbit(values[-1])
    assert _g17_lines(values).split(b"\n") == [
        b"0", b"-0", b"4.9406564584124654e-324", b"-9.9999999999999694e-311",
        b"10000000000000000", b"-9.9999999999999002e-05", b"inf", b"-inf", b"nan", b"nan", b""]


@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_dump_kernel_joins_its_blocks(g17_sets, size):
    values = g17_sets["magnitudes"][:size]
    assert _g17_lines(values) == g17_reference(values)


@pytest.mark.parametrize("text,m", [(lambda: bundled_config_text("ma_obstacle"), 21),
                                    (solve_3d_config_text, 7)], ids=["ma_obstacle", "solve_3d"])
def test_dump_kernel_writes_solved_fields(text, m, tmp_path):
    rs = build_runsetup(parse_config(text()).override(grid_m=m))
    result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
    for u in result.solutions:
        path = write_grid_dump(tmp_path / "u.txt", rs.problem.grid, u)
        assert path.read_bytes().split(b"\n", 5)[5] == g17_reference(u)


def test_dump_kernel_memory_is_bounded_by_its_block():
    # formatted in blocks of _BLOCK values, the kernel's transient arrays do
    # not grow with the field: at 16 blocks its peak stays under that of the
    # %-format, which holds a field-sized tuple of floats.  In one shot the
    # kernel's peak is several times the %-format's
    values = np.random.default_rng(3).standard_normal(16 * _BLOCK)
    peaks = []
    for fmt_field in (_g17_lines, g17_reference):
        tracemalloc.start()
        fmt_field(values)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1]


G17_DISPATCH_SCRIPT = """
import json
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from hessobs.report import _g17_lines
from oracles import g17_cases, g17_reference

cases = g17_cases()
print(json.dumps({
    "dispatch": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
    "equal": {name: _g17_lines(cases[name]) == g17_reference(cases[name])
              for name in ("ties", "edges", "bits")},
}))
"""
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_dump_text_holds_without_the_avx512_loops():
    # numpy's log10 runs an AVX-512 loop where the CPU has one, and its last
    # bit may differ from the baseline loop's.  The kernel only takes a
    # decimal exponent from it and rejects a wrong one, so its text must not
    # move when that dispatch is switched off
    from numpy._core._multiarray_umath import __cpu_dispatch__

    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("numpy's AVX-512 dispatch targets are x86-64 only")
    if not set(AVX512_TARGETS) <= set(__cpu_dispatch__):
        pytest.skip("this numpy build names other dispatch targets")
    tests = pathlib.Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_TARGETS),
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", G17_DISPATCH_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert not set(AVX512_TARGETS) & set(got["dispatch"])
    assert got["equal"] == {"ties": True, "edges": True, "bits": True}


class _ReprFloat(float):
    def __repr__(self):
        return "not the float's repr"


@pytest.mark.parametrize("value,text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"), (-0.0, "-0.0"),
    (0.0, "0.0"), (5e-324, "5e-324"), (1e300, "1e+300"), (0.1, "0.1"),
    (np.float64(0.1), "0.1"), (np.float64("nan"), "nan"), (np.float64("-inf"), "-inf"),
    (np.float32(0.1), "0.10000000149011612"), (np.float32("inf"), "inf"),
    (7, "7"), (-3, "-3"), (np.int64(7), "7"), (np.int64(-2**63), "-9223372036854775808"),
    (True, "true"), (False, "false"), (np.bool_(True), "True"), (np.bool_(False), "False"),
    ("abc", "abc"), ("", ""), (_ReprFloat(2.5), "2.5"),
], ids=repr)
def test_fmt_prints_each_type(value, text):
    # the text of a csv cell: repr of a float, which names nan, inf and
    # -inf; true/false for a Python bool; str of the rest, so a numpy bool
    # prints True/False; a float subclass is printed as its float
    assert fmt(value) == text


FMT_CASES = [float("nan"), float("inf"), -0.0, 5e-324, 1e300, 0.1, np.float64(0.1),
             np.float32(0.1), 7, np.int64(-2**63), True, False, np.bool_(True), "",
             _ReprFloat(2.5)]


def test_csv_rows_are_fmt_of_each_value(tmp_path):
    # the CSV kernel writes what csv.writer writes of the fmt of each value:
    # numpy int, float and bool columns, a float column with an empty first
    # cell, and a column of every type fmt prints
    import csv
    import io

    rows = [(i, 0.1 * i - 1.0, i % 3 == 0, "" if i == 0 else 1.5 ** -i,
             FMT_CASES[i % len(FMT_CASES)]) for i in range(40)]
    columns = ["i", "x", "flag", "step", "any"]
    i, x, flag, step, any_ = zip(*rows)
    table = [np.array(i), np.array(x), np.array(flag), step, any_]
    path = ReportBundleWriter(tmp_path).write_csv("t.csv", columns, table, "meta")
    ref = io.StringIO()
    w = csv.writer(ref, lineterminator="\n")
    w.writerow(columns)
    w.writerows([fmt(v) for v in row] for row in rows)
    assert path.read_text() == "# meta\n" + ref.getvalue()
    assert ReportBundleWriter(tmp_path).write_csv("e.csv", columns, [[]] * 5, "m").read_text() == (
        "# m\ni,x,flag,step,any\n")
    with pytest.raises(ValueError, match="would need quoting"):
        ReportBundleWriter(tmp_path).write_csv("q.csv", ["a", "b"], [[1], ["x,y"]], "m")


# the CSV tables come from report._csv_body, a numpy kernel that formats each
# distinct bit pattern of a numpy column once; it must write what the
# %-format of the table's rows (oracles.csv_reference) writes, byte for byte

_NAN_BITS = np.array([0x7FF8000000000001, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)
CSV_FLOATS = np.concatenate([
    [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
     2.2250738585072014e-308, 1.7976931348623157e308, 1e16, -1e16, 1e-5, -1e-5, 0.1],
    _NAN_BITS,
])
CSV_TABLES = {
    "specials": [np.random.default_rng(0).permutation(np.tile(CSV_FLOATS, 5)),
                 np.tile(CSV_FLOATS, 5)],
    "float32": [np.array([0.1, -0.0, 0.0, np.inf, 1e-45], dtype=np.float32)],
    "ints": [np.array([2**53 + 1, -2**63, 2**63 - 1, 0, -1, 2**53 + 1]),
             np.array([2**64 - 1, 2**53 + 1, 0, 0, 1, 2**63], dtype=np.uint64),
             np.arange(6, dtype=np.int32),
             [2**53 + 1, 2**64, -2**70, 0, -1, 7]],
    "scalars": [[np.int64(2**60), np.float64(-0.0), np.float32(0.1), np.bool_(True),
                 np.bool_(False), np.uint8(3), np.float64("nan")]],
    "bools": [np.array([True, False, True]), [True, False, False], np.zeros(3, dtype=bool)],
    "one value": [np.full(10, 0.1), np.zeros(10, dtype=int), np.full(10, -0.0), [7] * 10],
    "one row": [np.array([1.5]), np.array([3]), ["x"], np.array([True])],
    "empty": [np.array([]), np.array([], dtype=int), [], np.array([], dtype=bool)],
}


@pytest.mark.parametrize("name", CSV_TABLES)
def test_csv_kernel_writes_the_rows_reference(name, tmp_path):
    columns = CSV_TABLES[name]
    header = [f"c{j}" for j in range(len(columns))]
    path = ReportBundleWriter(tmp_path).write_csv("t.csv", header, columns, "meta")
    assert path.read_bytes() == csv_reference(header, csv_rows(columns), "meta")


def test_csv_kernel_writes_random_bit_patterns(g17_sets, tmp_path):
    # NaNs of every payload, subnormals and both zeros among 2^14 patterns
    bits = g17_sets["bits"][:2**14]
    columns = [bits, np.abs(bits), bits.view(np.int64)]
    path = ReportBundleWriter(tmp_path).write_csv("t.csv", ["a", "b", "c"], columns, "m")
    assert path.read_bytes() == csv_reference(["a", "b", "c"], csv_rows(columns), "m")


@pytest.mark.parametrize("text,m", [(lambda: bundled_config_text("ma_obstacle"), 21),
                                    (solve_3d_config_text, 13)], ids=["ma_obstacle", "solve_3d"])
def test_csv_kernel_writes_the_sweep_tables(text, m, tmp_path, monkeypatch):
    # the norms, history and contact tables of a solve, as its columns
    tables = []
    write_csv = ReportBundleWriter.write_csv

    def capture(self, name, header, columns, meta):
        path = write_csv(self, name, header, columns, meta)
        tables.append((path, header, columns, meta))
        return path

    monkeypatch.setattr(ReportBundleWriter, "write_csv", capture)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text())
    assert main(["solve", str(cfg), "--grid-m", str(m), "--audit", "off",
                 "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert [path.name for path, *_ in tables] == ["norms_vs_eps.csv", "residual_history.csv",
                                                  "contact_cells.csv"]
    assert len(tables[2][2][0]) > 0  # contact cells
    for path, header, columns, meta in tables:
        assert path.read_bytes() == csv_reference(header, csv_rows(columns), meta)


def test_report_json_writes_the_dump_reference(tmp_path):
    doc = {
        "floats": [np.float64("nan"), float("inf"), -np.inf, np.float32(0.1), -0.0, 5e-324, 1e16],
        "numpy": {"i": np.int64(2**62), "flag": np.bool_(True), "u": np.uint8(3),
                  "field": np.array([[1.5, np.nan], [0.0, -0.0]])},
        "plain": (1, "x \"y\" \u00fc", None, True, 2**64),
        "empty": [{}, []],
    }
    path = ReportBundleWriter(tmp_path).write_json("r.json", doc)
    assert path.read_bytes() == json_reference(doc)


def test_field_dump_binary_variant(small_cfg, tmp_path):
    out_t = tmp_path / "t"
    out_b = tmp_path / "b"
    main(["solve", str(small_cfg), "--out", str(out_t), "--quiet"])
    main(["solve", str(small_cfg), "--out", str(out_b), "--quiet",
          "--field-format", "binary"])
    txt = sorted(out_t.glob("u_eps_*.txt"))
    npy = sorted(out_b.glob("u_eps_*.npy"))
    assert len(txt) == len(npy) > 0
    _, arr_t = read_grid_dump(txt[-1])
    arr_b = np.load(npy[-1])
    assert np.array_equal(arr_t, arr_b)


def test_config_error_exit1(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_MA.replace("k = 2", "k = 5"))
    out = tmp_path / "out"
    assert main(["solve", str(bad), "--out", str(out), "--quiet"]) == 1


def test_obstacle_below_boundary_exit1(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_MA.replace('h = "0.625*(x1^2+x2^2) + 0.3"',
                                    'h = "0.625*(x1^2+x2^2) - 0.1"'))
    out = tmp_path / "out"
    assert main(["solve", str(bad), "--out", str(out), "--quiet"]) == 1


@pytest.mark.parametrize("psi", ["1.2.3", "1e+", "x3", "x1[0]", "exp(x1, 2)"])
def test_malformed_expression_is_config_error_with_line(small_cfg, tmp_path, capsys, psi):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_MA.replace('psi = "1"', f'psi = "{psi}"'))
    assert main(["sweep", str(bad), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [line 20, col ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid-m", "2"],
    ["sweep", "--eps-min", "0"],
    ["sweep", "--eps-min", "0.5"],
    ["verify-lemma", "--zeta", "0"],
    ["verify-lemma", "--zeta", "inf"],
    ["verify-lemma", "--samples", "0"],
    ["check-structure", "--samples", "0"],
    ["sweep", "--seed", "-1"],
    ["verify-lemma", "--seed", "-1"],
    ["check-structure", "--seed", "-1"],
    ["check-structure", "--k0", "nan"],
    ["check-structure", "--k0", "inf"],
    ["check-structure", "--k0=-inf"],
], ids=" ".join)
def test_out_of_range_flag_is_config_error(small_cfg, tmp_path, capsys, argv):
    command, *flags = argv
    out = ["--out", str(tmp_path / "out")]
    assert main([command, str(small_cfg), *flags, *out, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    (["verify-lemma", "CFG", "--grid-m", "5"], 1),  # a flag verify-lemma does not take
    (["sweep", "CFG"], 1),  # no --out
    (["sweep", "CFG", "--out", "OUT", "--grid-m", "abc"], 1),
    ([], 1),  # no command
    (["--help"], 0),
    (["sweep", "--help"], 0),
], ids=["unknown_flag", "no_out", "grid_m_not_int", "no_command", "help", "sweep_help"])
def test_usage_error_exits_1_and_writes_nothing(small_cfg, tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    argv = [{"CFG": str(small_cfg), "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err if code else captured.out).startswith("usage: hessobs")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    if kind == "directory":
        cfg.mkdir()
    else:  # a Latin-1 comment line
        cfg.write_bytes(b"# caf\xe9\n" + SMALL_MA.encode())
    assert main(["sweep", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1  # one line: no traceback
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "check-structure", "verify-lemma"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_out_naming_a_file_is_config_error(small_cfg, tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "out" if below else taken
    assert main([command, str(small_cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    assert taken.read_text() == "kept"
    assert sorted(tmp_path.iterdir()) == [small_cfg, taken]


# grid bounds that are not finite; the grid's errors name the line of its lo
_NONFINITE_GRID = [SMALL_MA.replace(old, new) for old, new in (
    ("lo = -2 -2", "lo = nan -2"), ("lo = -2 -2", "lo = -inf -2"), ("hi = 2 2", "hi = inf 2"))]
_GRID_LINE = SMALL_MA.splitlines().index("  lo = -2 -2") + 1


def _tabulated(tmp_path, row):
    table = tmp_path / "g.txt"
    table.write_text((row + "\n") * 21**2)
    return SMALL_MA.replace("kind = flat", f'kind = tabulated\n  file = "{table}"')


@pytest.mark.parametrize("make_text", [
    lambda tmp: (SMALL_MA.replace("n = 2", "n = 4").replace("lo = -2 -2", "lo = -2 -2 -2 -2")
                 .replace("hi = 2 2", "hi = 2 2 2 2")),
    lambda tmp: SMALL_MA.replace("kind = flat", 'kind = conformal\n  phi = "log(x1)"'),
    lambda tmp: _tabulated(tmp, "1 2 1"),
    lambda tmp: _tabulated(tmp, "a b c"),
    lambda tmp: SMALL_MA.replace("A = zero", "A ="),
    lambda tmp: SMALL_MA.replace("A = zero", 'A = scalar_metric "0.1*z'),
    lambda tmp: SMALL_MA.replace("theta_samples = 2000", "theta_samples = 0"),
    lambda tmp: SMALL_MA.replace('h = "0.625*(x1^2+x2^2) + 0.3"',
                                 'h = "0.625*(x1^2+x2^2) + 0.3 + 0*sqrt(x1)"'),
    lambda tmp: SMALL_MA.replace("eps_min = 0.0001", "eps_min = 0.5"),
    lambda tmp: SMALL_MA.replace("max_iters = 80", "max_iters = 0"),
    lambda tmp: SMALL_MA.replace('h = "0.625*(x1^2+x2^2) + 0.3"',
                                 'h = "0.625*(x1^2+x2^2) + 0.3 + 0*2^1e300"'),
    lambda tmp: SMALL_MA.replace("seed = 42", "seed = -1"),
    lambda tmp: _tabulated(tmp, "nan 0 1"),
    lambda tmp: _tabulated(tmp, "1 0 inf"),
    lambda tmp: SMALL_MA.replace("kind = flat", 'kind = conformal\n  phi = "400"'),
    lambda tmp: SMALL_MA.replace("tol = 1e-08", "tol = inf"),
    lambda tmp: SMALL_MA.replace("tol = 1e-08", "tol = nan"),
    lambda tmp: SMALL_MA.replace("c_audit = 0", "c_audit = nan"),
    lambda tmp: SMALL_MA.replace("c_audit = 0", "c_audit = inf"),
    lambda tmp: SMALL_MA.replace("c_audit = 0", "c_audit = -1"),
    *[lambda tmp, text=text: text for text in _NONFINITE_GRID],
    lambda tmp: SMALL_MA.replace("kind = flat", f'kind = tabulated\n  file = "{tmp / "no.txt"}"'),
    lambda tmp: SMALL_MA.replace("kind = flat", f'kind = tabulated\n  file = "{tmp}"'),
    lambda tmp: _tabulated(tmp, "1e308 0 1e308"),  # finite, but d_i g_jk overflows
], ids=["n4_chart", "conformal_log", "tabulated_not_spd", "tabulated_not_numeric",
        "empty_A", "unclosed_quote_in_A", "no_theta_samples", "nan_h", "eps_min_above_eps0",
        "no_newton_iterations", "overflowing_constant_in_h", "negative_seed",
        "tabulated_nan", "tabulated_inf", "conformal_overflow", "infinite_tol", "nan_tol",
        "nan_c_audit", "infinite_c_audit", "negative_c_audit", "nan_lo", "minus_inf_lo",
        "infinite_hi", "tabulated_missing", "tabulated_directory",
        "tabulated_christoffel_overflow"])
def test_setup_failure_is_config_error(tmp_path, capsys, make_text):
    bad = tmp_path / "bad.cfg"
    text = make_text(tmp_path)
    bad.write_text(text)
    assert main(["sweep", str(bad), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [line ")
    assert err.count("\n") == 1  # one line: no traceback, no numpy warning
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()
    if text in _NONFINITE_GRID:  # blamed on the grid, not on a later expression
        assert err.startswith(f"config error: [line {_GRID_LINE}] grid: lo and hi must be finite")


def test_eps_min_override_shortens_sweep(tmp_path):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(bundled_config_text("laplacian_obstacle_strong").replace("m = 65", "m = 21"))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out), "--quiet",
                 "--eps-min", "0.001"]) == 0
    rows = (out / "norms_vs_eps.csv").read_text().splitlines()
    assert len(rows) == 4  # meta + header + the two epsilon rows 1e-2, 1e-3


def test_solver_failure_exit2(small_cfg, tmp_path):
    # unreachable tolerance: max_iters exhausted, diagnosis in the report
    cfg = tmp_path / "hard.cfg"
    cfg.write_text(SMALL_MA.replace("tol = 1e-08", "tol = 1e-30")
                   .replace("max_iters = 80", "max_iters = 2"))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = (out / "report.json").read_text()
    assert "solver_failure" in report and "MaxItersExceeded" in report


def test_inadmissible_subsolution_fails_at_eps0(tmp_path):
    # a supplied subsolution reaches the solve unprobed; the first epsilon's
    # Newton solve rejects this concave one, and no epsilon finished
    cfg = tmp_path / "concave.cfg"
    cfg.write_text(SMALL_MA.replace('u = "0.625*(x1^2+x2^2)"', 'u = "-0.625*(x1^2+x2^2)"'))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "NotAdmissible"
    assert report["solver_failure"]["epsilon"] == report["epsilons"][0] == 0.01
    assert "solves" not in report and not list(out.glob("u_eps_*"))


def test_supplied_subsolution_evaluated_once_at_probe_epsilon(small_cfg, tmp_path,
                                                              monkeypatch):
    # the audit's and verify-lemma's theta certificate is the one evaluation
    # of the subsolution at PROBE_EPSILON (SMALL_MA's schedule starts below it)
    import hessobs.monitors as monitors
    import hessobs.operator as operator

    probes = []
    for mod in (operator, monitors):
        def counting(u, prob, epsilon, _fn=mod.evaluate_state):
            if epsilon == operator.PROBE_EPSILON:
                probes.append(u)
            return _fn(u, prob, epsilon)
        monkeypatch.setattr(mod, "evaluate_state", counting)
    assert main(["sweep", str(small_cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(probes) == 1
    assert main(["verify-lemma", str(small_cfg), "--samples", "100", "--quiet"]) == 0
    assert len(probes) == 2


def test_library_error_in_solve_writes_report_exit2(small_cfg, tmp_path):
    # psi = 1.2 - 0.5 z turns negative on the subsolution, and 1 + 0.1 sqrt(x1)
    # is NaN for x1 < 0: PsiNotPositive is a library error, not a SolverError,
    # and must still leave its report; the subsolution reaches the solve
    # unprobed, so the failure is the first epsilon's
    # 1/0 and (0-8)^(1/3) are inf and NaN, not a Python exception or complex
    for i, psi in enumerate(["1.2 - 0.5*z", "1 + 0.1*sqrt(x1)", "1 + 0*(1/0)", "(0-8)^(1/3)"]):
        cfg = tmp_path / f"bad_psi_{i}.cfg"
        cfg.write_text(SMALL_MA.replace('psi = "1"', f'psi = "{psi}"'))
        out = tmp_path / f"out_{i}"
        assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["solver_failure"]["error"] == "PsiNotPositive"
        assert report["solver_failure"]["epsilon"] == report["epsilons"][0]
        assert "solves" not in report


def test_infinite_psi_fails_the_psi_floor(tmp_path):
    # 1 + 1/x1^2 is +inf on the grid line x1 = 0 and finite elsewhere: it
    # fails the floor as not finite, rather than reaching the Jacobian
    cfg = tmp_path / "inf_psi.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace('psi = "1"', 'psi = "1 + 1/(x1^2)"'))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--grid-m", "33", "--audit", "off", "--out", str(out),
                 "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["solver_failure"]
    assert failure["error"] == "PsiNotPositive" and "not finite" in failure["message"]


# sigma_2 in 3d: a paraboloid subsolution with root ratio 1.25 against psi,
# pressed against a ceiling only 0.3 above it
TIGHT_3D = """\
function {
  family = sigma_k_root
  k = 2
  n = 3
}
grid {
  lo = -2 -2 -2
  hi = 2 2 2
  m = 15
}
metric {
  kind = flat
}
coefficients {
  A = zero
  psi = "sqrt(3)"
}
obstacle {
  h = "0.625*(x1^2+x2^2+x3^2) + 0.3"
}
boundary {
  phi = "0.625*(x1^2+x2^2+x3^2)"
}
subsolution {
  u = "0.625*(x1^2+x2^2+x3^2)"
}
schedule {
  eps0 = 0.01
  ratio = 0.1
  eps_min = 1e-06
}
newton {
  tol = 1e-08
  max_iters = 80
}
audit {
  enabled = false
  c_audit = 0
  theta_samples = 10000
  seed = 1
}
"""


def test_failure_after_solve_writes_report_exit2(tmp_path):
    # every epsilon converges, then the contact band reaches the first
    # interior ring and extract_contact_set raises MonitorError: the failure
    # report still names it, with the final epsilon, at which the contact
    # set was taken, and keeps all five solves, their norms and their fields
    cfg = tmp_path / "tight3d.cfg"
    cfg.write_text(TIGHT_3D)
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), "--out", str(out), "--grid-m", "13", "--audit", "off", "--quiet"]
    assert main(argv) == 2
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["config", "epsilons", "solver_failure", "solves", "norms"]
    assert report["solver_failure"]["error"] == "MonitorError"
    assert "chart boundary" in report["solver_failure"]["message"]
    assert report["solver_failure"]["epsilon"] == report["epsilons"][-1]
    assert [s["epsilon"] for s in report["solves"]] == report["epsilons"]
    assert len(report["solves"]) == 5 and all(s["converged"] for s in report["solves"])
    assert [n["epsilon"] for n in report["norms"]] == report["epsilons"]
    assert sorted(f.name for f in out.iterdir()) == ["report.json"] + [
        f"u_eps_{eps:.0e}.txt" for eps in report["epsilons"]]


@pytest.mark.parametrize("monitor,epsilon", [("solved_state", 1e-3),
                                             ("compute_norm_bundle", 1e-3),
                                             ("audit_inequalities", 1e-3),
                                             ("theta_certificate", None)])
def test_monitor_failure_names_its_epsilon(monitor, epsilon, small_cfg, tmp_path, monkeypatch):
    # a per-epsilon monitor that raises at the second of the three finished
    # epsilons records that epsilon; the theta certificate belongs to none
    import hessobs.cli as cli
    from hessobs.errors import MonitorError

    real = getattr(cli, monitor)

    def failing(*args, **kwargs):
        # solved_state takes (u, prob, epsilon), the others a SolvedState first
        eps = args[2] if monitor == "solved_state" else getattr(args[0], "epsilon", None)
        if monitor == "theta_certificate" or eps == 1e-3:
            raise MonitorError(f"{monitor} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, monitor, failing)
    out = tmp_path / "out"
    assert main(["sweep", str(small_cfg), "--out", str(out), "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["solver_failure"]
    assert failure == {"error": "MonitorError", "message": f"{monitor} failed",
                       "epsilon": epsilon}


def test_failure_norms_stop_at_the_first_failing_monitor(small_cfg, tmp_path, monkeypatch):
    # a failure after the solve, and then the monitors of the second of the
    # three finished fields raise: the report keeps the first field's norms
    # row and every field
    import hessobs.cli as cli
    from hessobs.errors import MonitorError, NotAdmissible

    failed = []
    build = cli.solved_state

    def failing_contact(*args):
        failed.append(None)
        raise MonitorError("contact set")

    def failing_state(u, prob, eps):
        if failed and eps == 1e-3:
            raise NotAdmissible([], "monitors requested at a non-admissible state")
        return build(u, prob, eps)

    monkeypatch.setattr(cli, "extract_contact_set", failing_contact)
    monkeypatch.setattr(cli, "solved_state", failing_state)
    out = tmp_path / "out"
    assert main(["solve", str(small_cfg), "--out", str(out), "--audit", "off", "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "MonitorError"
    assert len(report["solves"]) == 3
    assert [n["epsilon"] for n in report["norms"]] == [0.01]
    assert sorted(f.name for f in out.iterdir()) == ["report.json"] + [
        f"u_eps_{eps:.0e}.txt" for eps in report["epsilons"]]


def test_solver_failure_keeps_finished_epsilons(tmp_path):
    # eps 1e-2 converges in 6 steps, the jump to 1e-7 needs 10 even from the
    # predictor: the failure report keeps the solve and norms rows of the
    # first epsilon and the failing epsilon's own unconverged row, and the
    # bundle the field of the first epsilon and the failing epsilon's best
    # iterate
    cfg = tmp_path / "late_fail.cfg"
    cfg.write_text(SMALL_MA.replace("ratio = 0.1", "ratio = 1e-05")
                   .replace("eps_min = 0.0001", "eps_min = 1e-07")
                   .replace("max_iters = 80", "max_iters = 7"))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "MaxItersExceeded"
    assert report["solver_failure"]["epsilon"] == 1e-07
    assert [(s["epsilon"], s["converged"]) for s in report["solves"]] == [(0.01, True)]
    failed = report["solver_failure"]["solve"]
    assert (failed["epsilon"], failed["converged"], failed["iterations"]) == (1e-07, False, 7)
    assert failed["start"] == "predictor"
    assert failed["final_residual"] > 1e-08
    [norms] = report["norms"]
    assert norms["epsilon"] == 0.01 and norms["c0_norm"] > 0.0
    assert sorted(f.name for f in out.iterdir()) == [
        "report.json", "u_best_eps_1e-07.txt", "u_eps_1e-02.txt"]
    _, best = read_grid_dump(out / "u_best_eps_1e-07.txt")
    assert best.shape == (21, 21) and np.isfinite(best).all()


@pytest.mark.parametrize("psi", ["(1)*x1^0", "(1)*z^0", "(1) + 0*x1^0"])
def test_zero_power_psi_sweeps_as_psi_one(tmp_path, psi):
    # psi = 1 written with a zero power has zero derivatives, not NaN ones at
    # x1 = 0 or z = 0, so its sweep writes psi = 1's fields
    fields = {}
    for name, text in (("one", "1"), ("power", psi)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(bundled_config_text("ma_obstacle").replace('psi = "1"', f'psi = "{text}"'))
        out = tmp_path / name
        assert main(["sweep", str(cfg), "--grid-m", "21", "--audit", "off", "--out", str(out),
                     "--quiet"]) == 0
        fields[name] = {f: b for f, b in bundle_bytes(out).items() if f.startswith("u_eps_")}
    assert len(fields["one"]) == 5 and fields["power"] == fields["one"]


def test_sweep_kappa_zg_equals_scalar_metric(tmp_path):
    # A = kappa z g written both ways: the same s = 0.1 z, so the same bytes
    text = (bundled_config_text("ma_obstacle")
            .replace("theta_samples = 10000", "theta_samples = 1000"))
    outs = []
    for name, a in (("kappa", "A = kappa_zg 0.1"), ("scalar", 'A = scalar_metric "0.1*z"')):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.replace("A = zero", a))
        out = tmp_path / name
        assert main(["sweep", str(cfg), "--out", str(out), "--grid-m", "33", "--quiet"]) == 0
        outs.append(out)
    a, b = (bundle_bytes(o) for o in outs)
    assert a.keys() == b.keys()
    fields = [f for f in a if f.startswith("u_eps_")]
    assert fields and all(a[f] == b[f] for f in fields)
    rep_a, rep_b = (json.loads((o / "report.json").read_text()) for o in outs)
    assert rep_a.pop("config") != rep_b.pop("config")
    assert rep_a == rep_b
    assert len(rep_a["audits"]) == len(rep_a["epsilons"])
    assert all(row["violations"] == 0 for row in rep_a["audits"])


def test_nonuniform_sweep_exit4(tmp_path):
    # weak-force radial problem swept from 1e-2 cannot saturate the penalty
    txt = bundled_config_text("laplacian_obstacle").replace("m = 129", "m = 33") \
        .replace("eps0 = 1e-06", "eps0 = 0.01").replace("eps_min = 1e-06", "eps_min = 0.0001")
    cfg = tmp_path / "nonuniform.cfg"
    cfg.write_text(txt)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--out", str(out), "--quiet"]) == 4


# -------------------------------------------------- check-structure

def test_check_structure_pass(small_cfg, tmp_path):
    assert main(["check-structure", str(small_cfg), "--samples", "200",
                 "--quiet"]) == 0


def test_check_structure_psi_z_violation(tmp_path):
    cfg = tmp_path / "bad_psi.cfg"
    cfg.write_text(SMALL_MA.replace('psi = "1"', 'psi = "exp(z)"'))
    out = tmp_path / "out"
    code = main(["check-structure", str(cfg), "--samples", "200", "--quiet",
                 "--out", str(out)])
    assert code == 3
    doc = (out / "check_structure.json").read_text()
    assert "-psi_z >= 0" in doc


def test_check_structure_fails_a_nan_slack(tmp_path, capsys):
    # psi = 1/0 is inf and its z-derivative NaN: the NaN slack fails its
    # check, and no numpy warning reaches stderr
    cfg = tmp_path / "inf_psi.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace('psi = "1"', 'psi = "1/0"'))
    out = tmp_path / "out"
    assert main(["check-structure", str(cfg), "--quiet", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "check_structure.json").read_text())
    assert doc["coefficients"]["failed_condition"] == "-psi_z >= 0"


def test_check_structure_kappa_zg_passes(tmp_path):
    cfg = tmp_path / "kzg.cfg"
    cfg.write_text(SMALL_MA.replace("A = zero", "A = kappa_zg 0.5"))
    assert main(["check-structure", str(cfg), "--samples", "200", "--quiet"]) == 0


def test_check_structure_prints_and_writes_the_witness(tmp_path, capsys):
    # a failed coefficient check names its sample's x, z and p through fmt,
    # on stdout and in the coefficients block of the bundle
    cfg = tmp_path / "inf_psi.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace('psi = "1"', 'psi = "1/0"'))
    out = tmp_path / "out"
    assert main(["check-structure", str(cfg), "--out", str(out)]) == 3
    witness = json.loads((out / "check_structure.json").read_text())["coefficients"]["witness"]
    assert list(witness) == ["x", "z", "p"]

    def vector(v):
        return "[" + ", ".join(fmt(c) for c in v) + "]"

    assert capsys.readouterr().out.splitlines()[-1] == (
        f"coefficient condition violated: -psi_z >= 0 at x = {vector(witness['x'])}, "
        f"z = {fmt(witness['z'])}, p = {vector(witness['p'])}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_structure_large_subsolution_exit0(tmp_path, capsys):
    # 1 + 2 max|u| overflows to inf; the z box is capped where it can be drawn
    cfg = tmp_path / "big_u.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace('u = "0.625*(x1^2+x2^2)"',
                                                               'u = "1e308"'))
    assert main(["check-structure", str(cfg), "--samples", "200", "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k0,code", [("1e308", 0), ("-1e308", 3)])
def test_check_structure_extreme_k0_without_warnings(small_cfg, tmp_path, capsys, k0, code):
    # K0 (1 + sum f_i) overflows to +-inf: an infinite Euler bound passes and
    # a negative infinite one fails, with no numpy warning
    out = tmp_path / "out"
    assert main(["check-structure", str(small_cfg), f"--k0={k0}", "--samples", "200",
                 "--quiet", "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    structure = json.loads((out / "check_structure.json").read_text())["structure"]
    assert structure["passed"] is (code == 0)
    if code:
        assert structure["condition"].startswith("Euler-type bound")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("old,new,error", [
    ('psi = "1"', 'psi = "1e308"', "SingularJacobian"),
    ('u = "0.625*(x1^2+x2^2)"', 'u = "1e308"', "NotAdmissible"),
], ids=["psi_1e308", "u_1e308"])
def test_overflowing_sweep_exit2_without_warnings(old, new, error, tmp_path, capsys):
    # an overflow inside the solve is a solver failure with its report; no
    # numpy RuntimeWarning may escape on the way (the filter makes one an error)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace(old, new))
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--grid-m", "21", "--audit", "off", "--quiet",
                 "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == error
    assert capsys.readouterr().err == ""


# -------------------------------------------------- verify-lemma

def test_verify_lemma_sigma1_vacuous(tmp_path):
    txt = bundled_config_text("laplacian_obstacle").replace("m = 129", "m = 17")
    cfg = tmp_path / "lap.cfg"
    cfg.write_text(txt)
    out = tmp_path / "out"
    assert main(["verify-lemma", str(cfg), "--samples", "500", "--quiet",
                 "--out", str(out)]) == 0
    assert '"vacuous": true' in (out / "theta_certificate.json").read_text()


def test_verify_lemma_sigma2_positive_and_reproducible(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify-lemma", str(small_cfg), "--samples", "2000",
                 "--seed", "42", "--quiet", "--out", str(out1)]) == 0
    assert main(["verify-lemma", str(small_cfg), "--samples", "2000",
                 "--seed", "42", "--quiet", "--out", str(out2)]) == 0
    a = (out1 / "theta_certificate.json").read_bytes()
    assert a == (out2 / "theta_certificate.json").read_bytes()
    assert b'"vacuous": false' in a


def test_verify_lemma_zeta_above_diameter_vacuous(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["verify-lemma", str(small_cfg), "--zeta", "2.5",
                 "--samples", "500", "--quiet", "--out", str(out)]) == 0
    assert '"vacuous": true' in (out / "theta_certificate.json").read_text()


@pytest.mark.parametrize("edits", [
    {'psi = "1"': 'psi = "x1"'},  # PsiNotPositive at the subsolution
    {'psi = "1"': 'psi = "1e9"', 'u = "0.625*(x1^2+x2^2)"': "u = builtin"},  # NoAdmissibleStart
    # NotAdmissible from theta_certificate, the one check of a supplied subsolution
    {'u = "0.625*(x1^2+x2^2)"': 'u = "-0.625*(x1^2+x2^2)"'},
    # g = e^{-600} I: the subsolution's sigma_2 overflows to inf, outside the cone
    {"kind = flat": 'kind = conformal\n  phi = "-300"'},
], ids=["psi_not_positive", "no_admissible_start", "not_admissible", "nan_normals"])
def test_verify_lemma_library_error_exit2(edits, tmp_path, capsys):
    text = bundled_config_text("ma_obstacle")
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["verify-lemma", str(cfg), "--samples", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_overflowing_subsolution_spectrum(tmp_path, capsys):
    # g = e^{-600} I is finite and SPD, but the subsolution's pencil
    # eigenvalues are about 1e261, so sigma_2 overflows to inf, and a margin
    # that is not finite is outside the cone: the sweep fails at its first
    # epsilon on the subsolution itself on every grid, check-structure reads
    # no state, and verify-lemma refuses the subsolution at a given zeta
    # too, writing nothing
    cfg = tmp_path / "tiny_metric.cfg"
    cfg.write_text(bundled_config_text("ma_obstacle").replace(
        "kind = flat", 'kind = conformal\n  phi = "-300"'))
    for m in ("21", "65"):
        out = tmp_path / f"sweep_{m}"
        assert main(["sweep", str(cfg), "--grid-m", m, "--audit", "off", "--out", str(out),
                     "--quiet"]) == 2
        failure = json.loads((out / "report.json").read_text())["solver_failure"]
        assert (failure["error"], failure["epsilon"]) == ("NotAdmissible", 0.01)
        assert f"at {(int(m) - 2) ** 2} interior points" in failure["message"]
    assert main(["check-structure", str(cfg), "--samples", "100", "--quiet"]) == 0
    capsys.readouterr()
    out = tmp_path / "vl"
    assert main(["verify-lemma", str(cfg), "--zeta", "0.1", "--samples", "100",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: subsolution not admissible, cannot form the compact set")
    assert captured.err.count("\n") == 1


def test_verify_lemma_violated_certificate_exit3(small_cfg, monkeypatch, capsys):
    import hessobs.monitors as monitors
    from hessobs.errors import StructureViolation

    def violated(*args, **kwargs):
        raise StructureViolation("supporting-hyperplane constant", None, "theta_hat <= 0")

    monkeypatch.setattr(monitors, "estimate_theta", violated)
    assert main(["verify-lemma", str(small_cfg), "--samples", "100"]) == 3
    assert capsys.readouterr().err.startswith("error: structure condition")


# -------------------------------------------------- bundled configs

def test_bundled_laplacian_solve_exit0_contact_nonempty(tmp_path):
    out = tmp_path / "out"
    code = main(["solve", str(bundled_config_path("laplacian_obstacle")),
                 "--out", str(out), "--grid-m", "49", "--audit", "off", "--quiet"])
    assert code == 0
    rows = (out / "contact_cells.csv").read_text().splitlines()
    assert len(rows) > 2


def test_bundled_config_paths_exist():
    for name in ("laplacian_obstacle", "laplacian_obstacle_strong",
                 "ma_manufactured", "ma_obstacle"):
        assert bundled_config_path(name).is_file()
