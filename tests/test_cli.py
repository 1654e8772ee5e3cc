"""CLI subcommands: exit codes, report bundles, reproducibility."""

import hashlib
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


def test_norms_and_audit_share_one_state_per_epsilon(small_cfg, tmp_path, monkeypatch):
    # the monitors evaluate and diagonalise each solved state once, and the
    # subsolution once for the audit
    import hessobs.monitors as monitors

    calls = {"evaluate_state": 0, "spectrum": 0}
    for name in calls:
        def counting(*args, _fn=getattr(monitors, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(monitors, name, counting)
    assert main(["sweep", str(small_cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    epsilons = json.loads((tmp_path / "out" / "report.json").read_text())["epsilons"]
    assert calls == {"evaluate_state": len(epsilons) + 1, "spectrum": len(epsilons) + 1}


def test_contact_header_prints_tau_at_fixed_precision(small_cfg, tmp_path):
    # a roundoff change in tau must not change the csv bytes; report.json
    # keeps the full value
    out = tmp_path / "out"
    assert main(["solve", str(small_cfg), "--out", str(out), "--audit", "off", "--quiet"]) == 0
    tau = json.loads((out / "report.json").read_text())["contact"]["tau"]
    meta = (out / "contact_cells.csv").read_text().splitlines()[0]
    assert f"(tau = {tau:.6e});" in meta
    assert repr(tau) not in meta


# sha256 of every bundle file of two sweeps: SMALL_MA with audits on (no
# multigrid level: each epsilon's first Jacobian is factored and its LU
# preconditions the later steps, 36/10/7 Krylov iterations) and ma_obstacle
# at m = 33 with audits off (V-cycle GMRES, 41/24/12/13/21 Krylov
# iterations).  A change that moves roundoff updates these pins and says so.
PINNED_BUNDLES = {
    "small_ma_audited": (SMALL_MA, [], {
        "contact_cells.csv": "797240f1dc39d6f5b6e5293041d423e30d475af23c7d014a28021812e936d478",
        "norms_vs_eps.csv": "e03725d764591c585c8b008911ec13771dd8b3d636aee5d3020e5ee22393050a",
        "report.json": "841345b531de4ebbd74087bdcb7caa0ebe5afa7c609149f7cf4c0e7de02f093b",
        "residual_history.csv": "198b159179e48eae44fbb4beb317138a32c684cbbe16dcffeb88530c72ebdce2",
        "u_eps_1e-02.txt": "8a9e8a8ccaf1873c4361dfe70c359028dd1fe571e84d8fd59411a6ba0ccc0f5f",
        "u_eps_1e-03.txt": "aa7b89dbf846747475882e7704ab4f2246a0cb50242961e516f866a94dc97e56",
        "u_eps_1e-04.txt": "e302c041bb5aed799989c483550f4366e2afefe5d61ce0caa67e26e65b4b0248",
    }),
    "ma_obstacle_m33_vcycle": (bundled_config_text("ma_obstacle"),
                               ["--grid-m", "33", "--audit", "off"], {
        "contact_cells.csv": "fe87fea4d85063a446124b4c7594ab5f140eb92c559f04307112931f7861520d",
        "norms_vs_eps.csv": "de2b9448565cb9893e0d4372e4c8872467e3c97e26ba45883d1cccf8655bd353",
        "report.json": "0f209e21edde798f70fdf52384270d39481057d73e0e05564d37fe1a9bcbf48c",
        "residual_history.csv": "488c507991eecf661c2188d346285e25791991c47221623472e2a85a12f4118e",
        "u_eps_1e-02.txt": "b09c57a371f87f45f5f0738a27d7cb92d8c02156a3974be5667c731cd5712b3e",
        "u_eps_1e-03.txt": "6b8ac5d63c0dab61bd7ff040f5e85534c1dfcb16e6b7f4dca6c56e7625c2f3ec",
        "u_eps_1e-04.txt": "d682cad0b12ba126a8ceeed993b7cf49965cc6293981b9c2ac7bdbec11019074",
        "u_eps_1e-05.txt": "1d8ce17db0d72e4aa09eff33578a87ccfd53f89dd8d2e0f876d24da1e16f5017",
        "u_eps_1e-06.txt": "c271ccde0833692f9a80d2b245c1b127e6a23cc01fe422e334980f7fb9d61960",
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
    import numpy as np

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
    ["verify-lemma", "--samples", "0"],
    ["check-structure", "--samples", "0"],
], ids=" ".join)
def test_out_of_range_flag_is_config_error(small_cfg, tmp_path, capsys, argv):
    command, *flags = argv
    out = ["--out", str(tmp_path / "out")]
    assert main([command, str(small_cfg), *flags, *out, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


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
], ids=["n4_chart", "conformal_log", "tabulated_not_spd", "tabulated_not_numeric",
        "empty_A", "unclosed_quote_in_A", "no_theta_samples", "nan_h", "eps_min_above_eps0",
        "no_newton_iterations"])
def test_setup_failure_is_config_error(tmp_path, capsys, make_text):
    bad = tmp_path / "bad.cfg"
    bad.write_text(make_text(tmp_path))
    assert main(["sweep", str(bad), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [line ")
    assert err.count("\n") == 1  # one line: no traceback, no numpy warning
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
    # psi = 1.2 - 0.5 z turns negative on the subsolution, and 1 + 0.1 sqrt(x1)
    # is NaN for x1 < 0: PsiNotPositive is a library error, not a SolverError,
    # and must still leave its report
    for i, psi in enumerate(["1.2 - 0.5*z", "1 + 0.1*sqrt(x1)"]):
        cfg = tmp_path / f"bad_psi_{i}.cfg"
        cfg.write_text(SMALL_MA.replace('psi = "1"', f'psi = "{psi}"'))
        out = tmp_path / f"out_{i}"
        assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["solver_failure"]["error"] == "PsiNotPositive"
        assert "solves" not in report


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
    # report still names it and keeps all five solves
    cfg = tmp_path / "tight3d.cfg"
    cfg.write_text(TIGHT_3D)
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), "--out", str(out), "--grid-m", "13", "--audit", "off", "--quiet"]
    assert main(argv) == 2
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["config", "epsilons", "solver_failure", "solves"]
    assert report["solver_failure"]["error"] == "MonitorError"
    assert "chart boundary" in report["solver_failure"]["message"]
    assert report["solver_failure"]["epsilon"] is None
    assert [s["epsilon"] for s in report["solves"]] == report["epsilons"]
    assert len(report["solves"]) == 5 and all(s["converged"] for s in report["solves"])
    assert sorted(f.name for f in out.iterdir()) == ["report.json"]


def test_solver_failure_keeps_finished_epsilons(tmp_path):
    # eps 1e-2 converges in 6 steps, the jump to 1e-7 needs 10 even from the
    # predictor: the failure report keeps the solve row of the first epsilon
    # and the failing epsilon's own unconverged row
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


@pytest.mark.parametrize("edits", [
    {'psi = "1"': 'psi = "x1"'},  # PsiNotPositive at the subsolution
    {'psi = "1"': 'psi = "1e9"', 'u = "0.625*(x1^2+x2^2)"': "u = builtin"},  # NoAdmissibleStart
], ids=["psi_not_positive", "no_admissible_start"])
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


def test_verify_lemma_violated_certificate_exit3(small_cfg, monkeypatch, capsys):
    import hessobs.monitors as monitors
    from hessobs.errors import StructureViolation

    def violated(*args):
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
