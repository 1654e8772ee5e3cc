"""Tests of the benchmark's own logic (not of hessobs)."""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import calibration  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hessobs.config import build_runsetup, parse_config  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_toy_call_tree():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    toy = [(0, None, "root", 0.0, 10.0), (1, 0, "a", 1.0, 4.0),
           (2, 0, "b", 5.0, 9.0), (3, 2, "c", 6.0, 7.0)]
    assert spans.self_times(toy) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_self_time_clips_and_merges_child_intervals():
    toy = [(0, None, "root", 0.0, 4.0), (1, 0, "a", -1.0, 2.0), (2, 0, "b", 1.0, 3.0)]
    assert spans.self_times(toy)[0] == pytest.approx(1.0)


def test_tracer_nested_wrappers_account_for_root():
    clock = FakeClock()
    tr = spans.Tracer("toy", clock=clock)

    def leaf():
        clock.t += 2.0

    def mid():
        clock.t += 1.0
        traced_leaf()
        clock.t += 0.5

    def top():
        traced_mid()
        clock.t += 3.0
        traced_leaf()

    traced_leaf = tr.span("symfunc.sample", leaf)
    traced_mid = tr.span("monitors.audit", mid)
    tr.span("cli.sweep", top)()
    by_metric = spans.self_time_by_metric(tr.spans)
    assert by_metric["symfunc.sample_s"] == 4.0
    assert by_metric["monitors.audit_s"] == 1.5
    assert by_metric["cli.self_s"] == 3.0
    assert sum(by_metric.values()) == 8.5 == tr.spans[0][4] - tr.spans[0][3]
    assert [s[1] for s in tr.spans] == [None, 0, 1, 0]


def test_patched_restores_and_rejects_missing_boundary():
    mod = type("Mod", (), {"f": staticmethod(lambda: 1)})
    with spans.patched(mod, "f", lambda: 2):
        assert mod.f() == 2
    assert mod.f() == 1
    with pytest.raises(AttributeError):
        with spans.patched(mod, "gone", None):
            pass


def test_ref_dev_of_field_against_itself_is_zero():
    u = np.linspace(-1.0, 3.0, 49).reshape(7, 7)
    assert workloads.ref_dev(u, u) == 0.0
    assert workloads.ref_dev(u + 3e-3, u) == pytest.approx(1e-3)


def test_failed_sweep_counts_and_carries_no_timing():
    sweeps = [{"problems": [], "sweep_s": 2.0}, {"problems": ["exit code 2"], "sweep_s": None}]
    attempted, failed, failed_frac, good = run.summarize(sweeps)
    assert (attempted, failed, failed_frac) == (2, 1, 0.5)
    assert [s["sweep_s"] for s in good] == [2.0]


def _write_bundle(outdir, converged=True, violations=0):
    outdir.mkdir()
    report = {
        "epsilons": [0.01, 1e-06],
        "solves": [{"epsilon": e, "converged": converged, "final_residual": 1e-12}
                   for e in (0.01, 1e-06)],
        "audits": [{"epsilon": e, "violations": violations, "theta_hat": 0.05}
                   for e in (0.01, 1e-06)],
    }
    (outdir / "report.json").write_text(json.dumps(report))
    (outdir / "u_eps_1e-06.txt").write_text("# m = 2 2\n1\n2\n3\n4\n")
    return np.arange(1.0, 5.0).reshape(2, 2)


def test_check_bundle_flags_every_failure(tmp_path):
    wl = workloads.WORKLOADS["audited_sweep"]
    u = _write_bundle(tmp_path / "ok")
    assert workloads.check_bundle(wl, 0, tmp_path / "ok", 1e-8, u)[:2] == ([], 0.0)
    assert workloads.check_bundle(wl, 4, tmp_path / "ok", 1e-8, u)[0] == ["exit code 4"]
    assert workloads.check_bundle(wl, 0, tmp_path / "ok", 1e-13, u)[0]
    assert workloads.check_bundle(wl, 0, tmp_path / "ok", 1e-8, u + 1.0)[0]
    _write_bundle(tmp_path / "bad", converged=False, violations=3)
    problems = workloads.check_bundle(wl, 0, tmp_path / "bad", 1e-8, u)[0]
    assert len(problems) == 4


def test_solve_3d_config_parses_and_is_byte_stable():
    text = workloads.solve_3d_config(7)
    assert text == workloads.solve_3d_config(7)
    assert text != workloads.solve_3d_config(8)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "79a6602df62ef19cf319f9cc5c1d5a8c750b040e8d6aeb75ea6a3ff5e5938555")
    cfg = parse_config(text)
    assert (cfg.n, cfg.k, cfg.m, cfg.audit.seed) == (3, 2, (15, 15, 15), 7)
    rs = build_runsetup(cfg)
    assert rs.problem.grid.n_interior == 13**3


def test_calibration_pass_returns_its_wall_time():
    assert 0.0 < calibration.Calibration()() < 60.0


def test_audited_sweep_config_sets_its_sample_count():
    wl = workloads.WORKLOADS["audited_sweep"]
    cfg = parse_config(wl.config_text(3))
    assert cfg.audit.enabled and cfg.audit.theta_samples == wl.theta_samples == 1000
    assert cfg.m == (65, 65)


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {**run.PER_LAYER_UNITS, **{m: "s" for m in spans.SELF_METRIC.values()}}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
