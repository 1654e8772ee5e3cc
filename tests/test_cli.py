"""CLI subcommands: exit codes, report bundles, reproducibility."""

import json
import pathlib

import pytest

from hessobs.cli import main
from hessobs.problems import bundled_config_path, bundled_config_text
from hessobs.report import read_grid_dump

SMALL_MA = (
    bundled_config_text("ma_obstacle")
    .replace("m = 65", "m = 21")
    .replace("eps_min = 1e-06", "eps_min = 0.0001")
    .replace("theta_samples = 10000", "theta_samples = 2000")
)


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


def test_sweep_reproducible_byte_identical(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", str(small_cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", str(small_cfg), "--out", str(out2), "--quiet"]) == 0
    assert bundle_bytes(out1) == bundle_bytes(out2)


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


def test_field_dump_binary_variant(small_cfg, tmp_path):
    import numpy as np

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


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid-m", "2"],
    ["sweep", "--eps-min", "0"],
    ["sweep", "--eps-min", "0.5"],
    ["verify-lemma", "--zeta", "0"],
    ["verify-lemma", "--samples", "0"],
    ["check-structure", "--samples", "0"],
], ids=" ".join)
def test_out_of_range_flag_is_config_error(small_cfg, tmp_path, capsys, argv):
    command, *flags = argv
    out = ["--out", str(tmp_path / "out")]
    assert main([command, str(small_cfg), *flags, *out, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


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


def test_library_error_in_solve_writes_report_exit2(small_cfg, tmp_path):
    # psi = 1.2 - 0.5 z turns negative on the subsolution: PsiNotPositive is a
    # library error, not a SolverError, and must still leave its report
    cfg = tmp_path / "neg_psi.cfg"
    cfg.write_text(SMALL_MA.replace('psi = "1"', 'psi = "1.2 - 0.5*z"'))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "PsiNotPositive"
    assert "solves" not in report


def test_solver_failure_keeps_finished_epsilons(tmp_path):
    # eps 1e-2 converges in 6 steps, the jump to 1e-5 needs 9: the failure
    # report keeps the solve row of the first epsilon
    cfg = tmp_path / "late_fail.cfg"
    cfg.write_text(SMALL_MA.replace("ratio = 0.1", "ratio = 0.001")
                   .replace("eps_min = 0.0001", "eps_min = 1e-05")
                   .replace("max_iters = 80", "max_iters = 7"))
    out = tmp_path / "out"
    assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["solver_failure"]["error"] == "MaxItersExceeded"
    assert report["solver_failure"]["epsilon"] == 1e-05
    assert [(s["epsilon"], s["converged"]) for s in report["solves"]] == [(0.01, True)]


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


def test_check_structure_kappa_zg_passes(tmp_path):
    cfg = tmp_path / "kzg.cfg"
    cfg.write_text(SMALL_MA.replace("A = zero", "A = kappa_zg 0.5"))
    assert main(["check-structure", str(cfg), "--samples", "200", "--quiet"]) == 0


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
