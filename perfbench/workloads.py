"""Workload definitions, the generated 3d config, and the output check.

Every workload is one `hessobs sweep` invocation.  The benchmark seed is
passed to it as `--seed`, which sets the audit sampler's seed; the solved
field does not depend on it, so one reference field per workload serves
every seed.  Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field

import numpy as np

REFS = pathlib.Path(__file__).resolve().parent / "refs"

# a sweep whose final field is this far from the reference fails the check;
# the stored references come from the seed commit, where the deviation is 0
REF_DEV_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    bundled: str | None  # bundled config name, or None for the generated 3d config
    overrides: dict = field(default_factory=dict)  # ProblemConfig.override keywords
    audited: bool = False
    theta_samples: int | None = None  # replaces the bundled config's audit sample count

    def config_text(self, seed: int) -> str:
        if self.bundled is None:
            return solve_3d_config(seed)
        from hessobs.problems import bundled_config_path

        text = pathlib.Path(bundled_config_path(self.bundled)).read_text()
        if self.theta_samples is not None:
            text, n = re.subn(r"theta_samples = \d+", f"theta_samples = {self.theta_samples}",
                              text)
            assert n == 1, f"{self.bundled}: no single theta_samples line"
        return text

    def cli_flags(self, seed: int) -> list:
        flags = ["--seed", str(seed)]
        if "grid_m" in self.overrides:
            flags += ["--grid-m", str(self.overrides["grid_m"])]
        if "audit_enabled" in self.overrides:
            flags += ["--audit", "on" if self.overrides["audit_enabled"] else "off"]
        return flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audited_sweep", "ma_obstacle", audited=True, theta_samples=1000),
        Workload("large_solve_2d", "ma_obstacle", {"grid_m": 97, "audit_enabled": False}),
        Workload("solve_3d", None, {"audit_enabled": False}),
    )
}


def solve_3d_config(seed: int) -> str:
    """ma_obstacle lifted to n = 3: sigma_2 on [-2, 2]^3 at m = 15, the same
    paraboloid, a ceiling 0.8 above it, psi = 5 sqrt(3) / 6 so that
    f(sub)/psi = 1.5, the bundled schedule and Newton settings, audits off.
    The seed only fills the audit seed, so the text is byte-stable per seed."""
    r2 = "(x1^2+x2^2+x3^2)"
    return f"""\
# ma_obstacle lifted to n = 3 (benchmark workload solve_3d): sigma_2 root,
# strict paraboloid subsolution 0.625 |x|^2 with root ratio 1.5 against
# psi = 5 sqrt(3) / 6, pressed against a ceiling 0.8 above it
function {{
  family = sigma_k_root
  k = 2
  n = 3
}}
grid {{
  lo = -2 -2 -2
  hi = 2 2 2
  m = 15
}}
metric {{
  kind = flat
}}
coefficients {{
  A = zero
  psi = "5*sqrt(3)/6"
}}
obstacle {{
  h = "0.625*{r2} + 0.8"
}}
boundary {{
  phi = "0.625*{r2}"
}}
subsolution {{
  u = "0.625*{r2}"
}}
schedule {{
  eps0 = 0.01
  ratio = 0.1
  eps_min = 1e-06
}}
newton {{
  tol = 1e-08
  max_iters = 80
}}
audit {{
  enabled = false
  c_audit = 0
  theta_samples = 10000
  seed = {int(seed)}
}}
"""


def ref_dev(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Max-norm deviation of u from u_ref relative to max |u_ref|."""
    if u.shape != u_ref.shape:
        return float("inf")
    return float(np.abs(u - u_ref).max() / np.abs(u_ref).max())


def final_field(outdir: pathlib.Path, report: dict) -> np.ndarray:
    """The final-eps grid dump of a text bundle, read without hessobs."""
    eps = report["epsilons"][-1]
    path = outdir / f"u_eps_{eps:.0e}.txt"
    lines = path.read_text().splitlines()
    m = [int(v) for v in next(ln for ln in lines if ln.startswith("# m =")).split("=")[1].split()]
    vals = np.array([float(ln) for ln in lines if ln and not ln.startswith("#")])
    return vals.reshape(m)


def check_bundle(wl: Workload, rc: int, outdir: pathlib.Path, tol: float,
                 reference: np.ndarray | None):
    """Return (problems, ref_dev, final field) for one sweep's output."""
    if rc != 0:
        return [f"exit code {rc}"], None, None
    report = json.loads((outdir / "report.json").read_text())
    solves = report.get("solves", [])
    problems = []
    if len(solves) != len(report["epsilons"]):
        problems.append(f"{len(solves)} solves for {len(report['epsilons'])} epsilons")
    if wl.audited:
        audits = report.get("audits", [])
        if len(audits) != len(solves):
            problems.append(f"{len(audits)} audits for {len(solves)} solves")
        for a in audits:
            if a["violations"] != 0:
                problems.append(f"eps {a['epsilon']:g}: {a['violations']} audit violations")
            if a["theta_hat"] is None or not a["theta_hat"] > 0.0:
                problems.append(f"eps {a['epsilon']:g}: vacuous theta_hat")
    try:
        u = final_field(outdir, report)
    except (OSError, ValueError, StopIteration) as exc:
        return problems + [f"final field unreadable: {exc}"], None, None
    for s in solves:
        eps, residual = s["epsilon"], s["final_residual"]
        if not s["converged"]:
            problems.append(f"eps {eps:g} not converged")
        if not residual <= tol:
            problems.append(f"eps {eps:g} residual {residual:.3e} > tol {tol:g}")
    dev = None
    if reference is not None:
        dev = ref_dev(u, reference)
        if not dev <= REF_DEV_TOL:
            problems.append(f"ref_dev {dev:.3e} > {REF_DEV_TOL:g}")
    return problems, dev, u
