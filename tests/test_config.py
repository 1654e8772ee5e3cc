"""Config parsing, validation, round-trips, bundled-file consistency."""

import dataclasses
import hashlib
import pathlib

import numpy as np
import pytest

import hessobs.config as config
from hessobs.config import build_runsetup, parse_config
from hessobs.errors import ConfigError
from hessobs.expressions import parse_expression
from hessobs.problems import BUNDLED, bundled_config_text
from oracles import metric_from_callable, solve_3d_config_text

MINIMAL = """
function {
  family = sigma_k_root
  k = 1
  n = 2
}
grid {
  lo = -1 -1
  hi = 1 1
  m = 9
}
coefficients {
  A = zero
  psi = "1"
}
obstacle {
  h = "1"
}
boundary {
  phi = "0"
}
"""


def test_minimal_parses_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.fspec.family == "sigma_k_root"
    assert cfg.m == (9, 9)
    assert cfg.metric_kind == "flat"
    assert cfg.subsolution == "builtin"
    assert cfg.schedule.eps0 == 1e-1 and cfg.schedule.eps_min == 1e-6
    assert cfg.audit.enabled


def test_round_trip_canonical_text():
    for name in BUNDLED:
        cfg = parse_config(bundled_config_text(name))
        again = parse_config(cfg.to_text())
        assert again == cfg


def test_readme_example_parses_and_builds():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("```text\n") + len("```text\n")
    text = readme[start:readme.index("```", start)]
    rs = build_runsetup(parse_config(text))
    assert rs.problem.grid.m == (65, 65)
    assert rs.problem.subsolution is not None


def test_unknown_block_rejected_with_line():
    with pytest.raises(ConfigError) as ei:
        parse_config(MINIMAL + "\nfrobnicate {\n  q = 1\n}\n")
    assert "frobnicate" in str(ei.value)
    assert "line" in str(ei.value)


def test_unknown_key_rejected():
    bad = MINIMAL.replace('psi = "1"', 'psi = "1"\n  qqq = 2')
    with pytest.raises(ConfigError) as ei:
        parse_config(bad)
    assert "qqq" in str(ei.value)


def test_k_greater_than_n_rejected():
    bad = MINIMAL.replace("k = 1", "k = 3")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_quotient_requires_l():
    bad = MINIMAL.replace("family = sigma_k_root", "family = sigma_quotient_root")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_quotient_full_spec():
    txt = MINIMAL.replace("family = sigma_k_root", "family = sigma_quotient_root") \
                 .replace("k = 1", "k = 2\n  l = 1")
    cfg = parse_config(txt)
    assert (cfg.fspec.k, cfg.fspec.l) == (2, 1)


def test_bad_expression_has_location():
    bad = MINIMAL.replace('phi = "0"', 'phi = "x1 + * 2"')
    with pytest.raises(ConfigError) as ei:
        parse_config(bad)
    assert "line" in str(ei.value)


def test_schedule_validation_propagates():
    bad = MINIMAL + "\nschedule {\n  eps0 = 2.0\n}\n"
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_obstacle_must_clear_boundary_data():
    bad = MINIMAL.replace('h = "1"', 'h = "-1"')
    cfg = parse_config(bad)
    with pytest.raises(ConfigError) as ei:
        build_runsetup(cfg)
    assert "boundary" in str(ei.value)


def test_build_runsetup_samples_fields():
    cfg = parse_config(bundled_config_text("ma_obstacle")).override(grid_m=17)
    rs = build_runsetup(cfg)
    assert rs.problem.grid.m == (17, 17)
    assert rs.problem.subsolution is not None
    pts = rs.problem.grid.points()
    rsq = (pts**2).sum(axis=-1)
    assert np.abs(rs.problem.h - (0.625 * rsq + 0.3)).max() < 1e-12


def test_override_eps_min_shortens_schedule():
    cfg = parse_config(MINIMAL).override(eps_min=1e-2)
    assert cfg.schedule.values() == pytest.approx([1e-1, 1e-2])


def test_conformal_metric_build():
    txt = MINIMAL + '\nmetric {\n  kind = conformal\n  phi = "0.3*x1"\n}\n'
    rs = build_runsetup(parse_config(txt))
    assert not rs.problem.metric.is_flat
    g00 = rs.problem.metric.g[:, 0, 0]
    assert np.abs(g00 - np.exp(0.6 * rs.problem.x_interior[:, 0])).max() < 1e-12


def test_tabulated_metric_build(tmp_path):
    cfg0 = parse_config(MINIMAL)
    npts = int(np.prod(cfg0.m))
    rows = np.tile([2.0, 0.1, 1.0], (npts, 1))
    f = tmp_path / "g.txt"
    np.savetxt(f, rows)
    txt = MINIMAL + f'\nmetric {{\n  kind = tabulated\n  file = "{f}"\n}}\n'
    rs = build_runsetup(parse_config(txt))
    assert np.abs(rs.problem.metric.g - np.array([[2.0, 0.1], [0.1, 1.0]])).max() < 1e-12


def test_kappa_zg_parse():
    txt = MINIMAL.replace("A = zero", "A = kappa_zg 0.5")
    cfg = parse_config(txt)
    assert cfg.a_mode == "kappa_zg" and float(cfg.a_param) == 0.5


@pytest.mark.parametrize("kappa", ["abc", "inf", "nan"])
def test_kappa_zg_must_be_finite_number(kappa):
    with pytest.raises(ConfigError, match="kappa must be a finite number"):
        parse_config(MINIMAL.replace("A = zero", f"A = kappa_zg {kappa}"))


@pytest.mark.parametrize("name, digest", [
    ("laplacian_obstacle", "03dec7aeba1b0f1ebbd558f01ae32817d529236fa719f4f8d3e3fb7e0a1ce1b9"),
    ("laplacian_obstacle_strong", "1f1be1fcb3aa401bf5852420e783f3a2026796d7ecab3c244dd75afd6e00a690"),
    ("ma_manufactured", "f38a0786604edd3db1ed3c90cd5bff59dbdb557e85c842fc46983c7385ebc259"),
    ("ma_obstacle", "a8656701080839b720a0cb8738c95cc5eb71613edc64d19526d3cb2ef869953a"),
    ("solve_3d", "d93f7b11de0ae7edd532ff7887de244551bb61e27211b13eae0799ed1419d9c9"),
])
def test_to_text_bytes_are_pinned(name, digest):
    # report.json echoes to_text(), so its bytes are part of every bundle
    text = solve_3d_config_text() if name == "solve_3d" else bundled_config_text(name)
    assert hashlib.sha256(parse_config(text).to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", BUNDLED)
def test_setup_parses_each_expression_once(name, monkeypatch):
    texts = []

    def counting(text, *args, **kwargs):
        texts.append(text)
        return parse_expression(text, *args, **kwargs)

    monkeypatch.setattr(config, "parse_expression", counting)
    rs = build_runsetup(parse_config(bundled_config_text(name)).override(grid_m=9))
    # psi, s (A = s g), h, phi and u: every bundled config gives all five
    assert len(texts) == len(rs.config.trees) == 5


@pytest.mark.parametrize("m", [17, 65])
def test_conformal_metric_equals_per_point_callable(m):
    phi_text = "0.3*x1 + 0.1*sin(x2)"
    txt = MINIMAL + f'\nmetric {{\n  kind = conformal\n  phi = "{phi_text}"\n}}\n'
    problem = build_runsetup(parse_config(txt).override(grid_m=m)).problem
    metric = problem.metric
    phi = parse_expression(phi_text, 2, allow_zp=False)
    ref = metric_from_callable(
        problem.grid, lambda x: np.exp(2.0 * float(phi(x1=x[0], x2=x[1]))) * np.eye(2))
    assert np.array_equal(metric.g, ref.g)
    assert np.array_equal(metric.christoffel, ref.christoffel)



def test_replaced_text_is_sampled():
    # the trees follow the texts: dataclasses.replace of h re-parses h only
    cfg = parse_config(MINIMAL)
    new = dataclasses.replace(cfg, h="x1 + 5")
    assert new.trees["psi"] is cfg.trees["psi"]
    assert new.trees["h"].text == "x1 + 5"
    problem = build_runsetup(new).problem
    assert np.array_equal(problem.h, problem.grid.points()[..., 0] + 5)
