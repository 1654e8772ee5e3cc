"""Public surface: every name a hessobs module exports in __all__ exists,
and every public function is one that a command runs."""

import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import pytest

import hessobs
from hessobs.cli import main
from hessobs.problems import BUNDLED, bundled_config_text
from oracles import solve_3d_config_text

MODULES = sorted(info.name for info in pkgutil.iter_modules(hessobs.__path__))

# public functions that no command calls, with the reason they stay public
NOT_RUN_BY_A_COMMAND = {
    # the README's entry points to the bundled config files
    "problems.bundled_config_path",
    "problems.bundled_config_text",
}


def test_every_module_is_listed():
    assert {"cli", "geometry", "monitors", "symfunc"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"hessobs.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in hessobs.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"hessobs.{name}.__all__ names missing attributes: {missing}"


def _small(name, m=21):
    text = re.sub(r"theta_samples = \d+", "theta_samples = 200", bundled_config_text(name))
    return re.sub(r"m = \d+", f"m = {m}", text)


def _command_runs(tmp_path):
    """argv of sweep (audits on), check-structure and verify-lemma on each
    bundled config, and of sweeps on a u = builtin k = 1 config and on a
    conformal and a tabulated metric, all at m = 21, and on the 3d config
    of the solve_3d benchmark (m = 15, audits off), every one exiting 0."""
    (tmp_path / "g.txt").write_text("1 0 1\n" * 21**2)  # the identity, tabulated
    texts = {name: _small(name) for name in BUNDLED}
    texts["builtin"] = re.sub(r'(subsolution \{\n)  u = "[^"]*"', r"\1  u = builtin",
                              _small("laplacian_obstacle_strong"))
    texts["conformal"] = _small("ma_obstacle").replace(
        "kind = flat", 'kind = conformal\n  phi = "0.01*x1"')
    texts["tabulated"] = _small("ma_obstacle").replace(
        "kind = flat", f'kind = tabulated\n  file = "{tmp_path / "g.txt"}"')
    texts["3d"] = solve_3d_config_text()
    runs = []
    for name, text in texts.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        runs.append(["sweep", str(cfg), "--out", str(tmp_path / name), "--quiet"])
        if name in BUNDLED:
            for command in ("check-structure", "verify-lemma"):
                runs.append([command, str(cfg), "--samples", "100", "--quiet",
                             "--out", str(tmp_path / f"{name}_{command}")])
    return runs


def test_every_public_function_is_run_by_a_command(tmp_path):
    runs = _command_runs(tmp_path)
    package = str(pathlib.Path(hessobs.__file__).parent)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)

    not_run = set()
    for name in MODULES:
        mod = importlib.import_module(f"hessobs.{name}")
        for attr in getattr(mod, "__all__", []):
            obj = getattr(mod, attr)
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and inspect.unwrap(obj).__code__ not in called):
                not_run.add(f"{name}.{attr}")
    extra = sorted(not_run - NOT_RUN_BY_A_COMMAND)
    assert not extra, f"public functions that no command runs: {extra}"
