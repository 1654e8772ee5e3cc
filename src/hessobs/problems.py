"""Bundled benchmark problems.

Four problems ship with the package as config files, the only copy of
their definitions (`bundled_config_path`, `bundled_config_text`):

  laplacian_obstacle        trace-operator (k = 1) ceiling-obstacle problem on
                            the square whose exact solution is the classical
                            radial gluing: contact disc of radius `a`, free
                            equation with a log term outside.  Gentle contact
                            force (tight penalization error) combined with a
                            steep obstacle wall outside the contact disc
                            (sharp free-boundary localization).  Its schedule
                            has the single entry eps = 1e-6: the gentle force
                            cannot saturate the penalty above eps ~ 1e-5, so
                            a longer sweep would not be eps-uniform.
  laplacian_obstacle_strong same construction with a strong contact force, for
                            epsilon-uniformity sweeps that must saturate the
                            penalty already at eps = 1e-2.
  ma_manufactured           det^(1/2) (k = n = 2) with manufactured solution
                            exp(r^2/2); the obstacle sits one unit above the
                            solution and never binds.
  ma_obstacle               det^(1/2) with paraboloid data pressed against a
                            shallow paraboloid ceiling; deep contact, the
                            sigma_2 workhorse for theta certificates, audits
                            and uniformity sweeps.

The radial closed form of the two laplacian problems, and the projected-SOR
solve the tests check it against, are in `tests/oracles.py`.
"""

from __future__ import annotations

from importlib import resources

__all__ = [
    "bundled_config_text",
    "bundled_config_path",
    "BUNDLED",
]


BUNDLED = ("laplacian_obstacle", "laplacian_obstacle_strong", "ma_manufactured", "ma_obstacle")


def bundled_config_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled problem {name!r}; have {sorted(BUNDLED)}")
    return bundled_config_path(name).read_text()


def bundled_config_path(name: str):
    """Filesystem path of a bundled config (shipped with the package)."""
    return resources.files("hessobs").joinpath("configs", f"{name}.cfg")
