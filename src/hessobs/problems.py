"""Bundled benchmark problems and their closed-form references.

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

The radial construction: inside r <= a the solution coincides with the
obstacle branch h0 + (psi0 + force)/4 * r^2 (so the trace operator exceeds
psi0 by exactly `force` on the contact set); outside it solves the free
equation psi0 r^2/4 + alpha log r + beta with C^1 matching at r = a, which
pins alpha = force a^2 / 2.  The obstacle adds d_steep * (r - a)_+^2 outside,
which only steepens the gap without moving the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "RadialObstacleParams",
    "radial_params",
    "radial_exact",
    "radial_obstacle",
    "bundled_config_text",
    "bundled_config_path",
    "BUNDLED",
]


@dataclass(frozen=True)
class RadialObstacleParams:
    psi0: float
    force: float  # trace excess on the contact set
    a: float  # free-boundary radius
    d_steep: float  # extra obstacle curvature outside the contact disc
    h0: float = 0.0

    @property
    def c_in(self) -> float:
        return (self.psi0 + self.force) / 4.0

    @property
    def alpha(self) -> float:
        return self.force * self.a**2 / 2.0

    @property
    def beta(self) -> float:
        return (
            self.h0
            + self.c_in * self.a**2
            - self.psi0 * self.a**2 / 4.0
            - self.alpha * np.log(self.a)
        )


def radial_params(kind: str) -> RadialObstacleParams:
    if kind == "weak":
        return RadialObstacleParams(psi0=2.0, force=0.05, a=0.5, d_steep=10.0)
    if kind == "strong":
        return RadialObstacleParams(psi0=2.0, force=5.0, a=0.6, d_steep=10.0)
    raise ValueError(f"unknown radial problem kind {kind!r}")


def radial_exact(par: RadialObstacleParams, pts: np.ndarray) -> np.ndarray:
    """Closed-form solution; pts has coordinates in the last axis."""
    rsq = (pts**2).sum(axis=-1)
    r = np.sqrt(rsq)
    return (
        par.psi0 * rsq / 4.0
        + par.alpha * np.log(np.maximum(r, par.a))
        + par.beta
        - (par.force / 4.0) * np.maximum(0.0, par.a**2 - rsq)
    )


def radial_obstacle(par: RadialObstacleParams, pts: np.ndarray) -> np.ndarray:
    rsq = (pts**2).sum(axis=-1)
    r = np.sqrt(rsq)
    return par.h0 + par.c_in * rsq + par.d_steep * np.maximum(0.0, r - par.a) ** 2


BUNDLED = ("laplacian_obstacle", "laplacian_obstacle_strong", "ma_manufactured", "ma_obstacle")


def bundled_config_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled problem {name!r}; have {sorted(BUNDLED)}")
    return bundled_config_path(name).read_text()


def bundled_config_path(name: str):
    """Filesystem path of a bundled config (shipped with the package)."""
    return resources.files("hessobs").joinpath("configs", f"{name}.cfg")
