"""Problem configuration: block-structured text, validation, problem build.

Format: named blocks holding `key = value` entries, comments with `#`.

    function   { family k n [l] }
    grid       { lo hi m }
    metric     { kind [phi|file] }          kind: flat | conformal | tabulated
    coefficients { A psi }                  A: zero | kappa_zg K | scalar_metric "expr"
    obstacle   { h }
    boundary   { phi }
    subsolution{ u }                        expression or `builtin`
    schedule   { eps0 ratio eps_min }
    newton     { tol max_iters }
    audit      { enabled c_audit theta_samples seed }

Parsing is total with line-anchored errors; unknown blocks or keys are
rejected.  Expressions are quoted strings over x1..xn (z, p1..pn where the
quantity may depend on them).
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .geometry import ChartGrid, flat_metric, metric_from_callable, pin_boundary
from .newton import NewtonConfig, PenaltySchedule
from .operator import Problem, coefficients_from_expressions
from .symfunc import SymmetricFunctionSpec

__all__ = ["ProblemConfig", "AuditConfig", "parse_config", "build_runsetup", "RunSetup"]

_KNOWN_BLOCKS = {
    "function": {"family", "k", "n", "l"},
    "grid": {"lo", "hi", "m"},
    "metric": {"kind", "phi", "file"},
    "coefficients": {"A", "psi"},
    "obstacle": {"h"},
    "boundary": {"phi"},
    "subsolution": {"u"},
    "schedule": {"eps0", "ratio", "eps_min"},
    "newton": {"tol", "max_iters"},
    "audit": {"enabled", "c_audit", "theta_samples", "seed"},
}

_REQUIRED_BLOCKS = ["function", "grid", "coefficients", "obstacle", "boundary"]


@dataclass(frozen=True)
class AuditConfig:
    enabled: bool = True
    c_audit: float = 0.0  # 0 selects the default 10 * hess_norm
    theta_samples: int = 4000
    seed: int = 42


@dataclass(frozen=True)
class ProblemConfig:
    family: str
    k: int
    n: int
    l: int
    lo: tuple
    hi: tuple
    m: tuple
    metric_kind: str
    metric_phi: str | None
    metric_file: str | None
    a_mode: str
    a_param: str | None
    psi: str
    h: str
    phi: str
    subsolution: str  # expression text or "builtin"
    schedule: PenaltySchedule
    newton: NewtonConfig
    audit: AuditConfig

    def to_text(self) -> str:
        """Canonical config text; re-parses to an equal ProblemConfig."""
        lines = ["function {", f"  family = {self.family}", f"  k = {self.k}", f"  n = {self.n}"]
        if self.l:
            lines.append(f"  l = {self.l}")
        lines += ["}", "grid {",
                  "  lo = " + " ".join(repr(v) for v in self.lo),
                  "  hi = " + " ".join(repr(v) for v in self.hi),
                  "  m = " + " ".join(str(v) for v in self.m),
                  "}", "metric {", f"  kind = {self.metric_kind}"]
        if self.metric_phi is not None:
            lines.append(f'  phi = "{self.metric_phi}"')
        if self.metric_file is not None:
            lines.append(f'  file = "{self.metric_file}"')
        a_val = {"zero": "zero", "kappa_zg": f"kappa_zg {self.a_param}",
                 "scalar_metric": f'scalar_metric "{self.a_param}"'}[self.a_mode]
        lines += ["}", "coefficients {", f"  A = {a_val}", f'  psi = "{self.psi}"', "}",
                  "obstacle {", f'  h = "{self.h}"', "}",
                  "boundary {", f'  phi = "{self.phi}"', "}",
                  "subsolution {",
                  ("  u = builtin" if self.subsolution == "builtin" else f'  u = "{self.subsolution}"'),
                  "}",
                  "schedule {", f"  eps0 = {self.schedule.eps0!r}",
                  f"  ratio = {self.schedule.ratio!r}", f"  eps_min = {self.schedule.eps_min!r}", "}",
                  "newton {", f"  tol = {self.newton.tol_residual!r}",
                  f"  max_iters = {self.newton.max_iters}", "}",
                  "audit {", f"  enabled = {'true' if self.audit.enabled else 'false'}",
                  f"  c_audit = {self.audit.c_audit!r}",
                  f"  theta_samples = {self.audit.theta_samples}",
                  f"  seed = {self.audit.seed}", "}"]
        return "\n".join(lines) + "\n"

    def override(self, eps_min=None, grid_m=None, seed=None, audit_enabled=None) -> "ProblemConfig":
        """Replace the given fields; an out-of-range value raises ConfigError."""
        cfg = self
        if eps_min is not None:
            try:
                schedule = PenaltySchedule(cfg.schedule.eps0, cfg.schedule.ratio, float(eps_min))
            except ValueError as exc:
                raise ConfigError(f"eps_min override {eps_min!r}: {exc}") from exc
            cfg = replace(cfg, schedule=schedule)
        if grid_m is not None:
            if int(grid_m) < 3:
                raise ConfigError(f"grid_m override {grid_m!r}: grid needs m >= 3 points per axis")
            cfg = replace(cfg, m=(int(grid_m),) * cfg.n)
        if seed is not None:
            cfg = replace(cfg, audit=replace(cfg.audit, seed=int(seed)))
        if audit_enabled is not None:
            cfg = replace(cfg, audit=replace(cfg.audit, enabled=bool(audit_enabled)))
        return cfg


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _split_blocks(text: str) -> dict:
    """Return {block: {key: (value_string, line)}} with location-anchored errors."""
    blocks: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if current is not None:
                raise ConfigError(f"block {current!r} not closed before {name!r}", ln)
            if name not in _KNOWN_BLOCKS:
                raise ConfigError(f"unknown block {name!r}", ln)
            if name in blocks:
                raise ConfigError(f"duplicate block {name!r}", ln)
            blocks[name] = {}
            current = name
        elif line == "}":
            if current is None:
                raise ConfigError("unmatched '}'", ln)
            current = None
        else:
            if current is None:
                raise ConfigError(f"content outside any block: {line!r}", ln)
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', found {line!r}", ln)
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _KNOWN_BLOCKS[current]:
                raise ConfigError(f"unknown key {key!r} in block {current!r}", ln)
            if key in blocks[current]:
                raise ConfigError(f"duplicate key {key!r} in block {current!r}", ln)
            blocks[current][key] = (val.strip(), ln)
    if current is not None:
        raise ConfigError(f"block {current!r} not closed at end of file", None)
    return blocks


def _num(blocks, block, key, default=None, cast=float):
    entry = blocks.get(block, {}).get(key)
    if entry is None:
        if default is None:
            raise ConfigError(f"missing key {key!r} in block {block!r}")
        return default
    val, ln = entry
    try:
        return cast(val)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {val!r} as {cast.__name__}", ln) from exc


def _vec(blocks, block, key, cast=float):
    entry = blocks.get(block, {}).get(key)
    if entry is None:
        raise ConfigError(f"missing key {key!r} in block {block!r}")
    val, ln = entry
    try:
        return tuple(cast(tok) for tok in val.split())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {val!r} as a {cast.__name__} vector", ln) from exc


def _string(blocks, block, key, default=None, required=False):
    entry = blocks.get(block, {}).get(key)
    if entry is None:
        if required:
            raise ConfigError(f"missing key {key!r} in block {block!r}")
        return default
    val, ln = entry
    if val.startswith('"'):
        try:
            parts = shlex.split(val)
        except ValueError as exc:
            raise ConfigError(f"bad quoting in {key} = {val!r}", ln) from exc
        if len(parts) != 1:
            raise ConfigError(f"expected one quoted string for {key}", ln)
        return parts[0]
    return val


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate configuration text into a ProblemConfig."""
    blocks = _split_blocks(text)
    for b in _REQUIRED_BLOCKS:
        if b not in blocks:
            raise ConfigError(f"missing required block {b!r}")

    family = _string(blocks, "function", "family", required=True)
    if family not in ("sigma_k_root", "sigma_quotient_root"):
        ln = blocks["function"]["family"][1]
        raise ConfigError(f"unknown family {family!r}", ln)
    n = _num(blocks, "function", "n", cast=int)
    k = _num(blocks, "function", "k", cast=int)
    l = _num(blocks, "function", "l", default=0, cast=int)
    if family == "sigma_quotient_root" and l == 0:
        raise ConfigError("sigma_quotient_root requires key 'l' with 1 <= l < k")
    if family == "sigma_k_root" and l != 0:
        raise ConfigError("sigma_k_root does not take 'l'")
    try:
        SymmetricFunctionSpec(n=n, k=k, l=l)
    except ValueError as exc:
        raise ConfigError(str(exc), blocks["function"]["k"][1]) from exc

    lo = _vec(blocks, "grid", "lo")
    hi = _vec(blocks, "grid", "hi")
    m = _vec(blocks, "grid", "m", cast=int)
    if len(m) == 1:
        m = m * len(lo)
    if not (len(lo) == len(hi) == len(m) == n):
        raise ConfigError(
            f"grid vectors must have length n = {n} (lo: {len(lo)}, hi: {len(hi)}, m: {len(m)})",
            blocks["grid"]["lo"][1],
        )
    if any(mi < 3 for mi in m):
        raise ConfigError("grid needs m >= 3 points per axis", blocks["grid"]["m"][1])
    if any(b <= a for a, b in zip(lo, hi)):
        raise ConfigError("grid needs hi > lo per axis", blocks["grid"]["hi"][1])

    metric_kind = _string(blocks, "metric", "kind", default="flat")
    if metric_kind not in ("flat", "conformal", "tabulated"):
        raise ConfigError(f"unknown metric kind {metric_kind!r}", blocks["metric"]["kind"][1])
    metric_phi = _string(blocks, "metric", "phi")
    metric_file = _string(blocks, "metric", "file")
    if metric_kind == "conformal" and metric_phi is None:
        raise ConfigError("conformal metric requires key 'phi'")
    if metric_kind == "tabulated" and metric_file is None:
        raise ConfigError("tabulated metric requires key 'file'")

    a_raw = _string(blocks, "coefficients", "A", default="zero")
    a_parts = shlex.split(a_raw)
    a_mode = a_parts[0]
    if a_mode not in ("zero", "kappa_zg", "scalar_metric"):
        raise ConfigError(f"unknown A mode {a_mode!r}", blocks["coefficients"]["A"][1])
    a_param = None
    if a_mode == "kappa_zg":
        if len(a_parts) != 2:
            raise ConfigError("kappa_zg takes one numeric parameter",
                              blocks["coefficients"]["A"][1])
        a_param = a_parts[1]
        try:
            if not np.isfinite(float(a_param)):
                raise ValueError
        except ValueError as exc:
            raise ConfigError(f"kappa must be a finite number, got {a_param!r}",
                              blocks["coefficients"]["A"][1]) from exc
    elif a_mode == "scalar_metric":
        if len(a_parts) != 2:
            raise ConfigError('scalar_metric takes one quoted expression',
                              blocks["coefficients"]["A"][1])
        a_param = a_parts[1]

    psi = _string(blocks, "coefficients", "psi", required=True)
    h = _string(blocks, "obstacle", "h", required=True)
    phi = _string(blocks, "boundary", "phi", required=True)
    sub = _string(blocks, "subsolution", "u", default="builtin")

    # validate expressions now, with their source lines
    def _expr_check(block, key, text_, allow_zp):
        entry = blocks.get(block, {}).get(key)
        ln = entry[1] if entry else None
        parse_expression(text_, n, allow_zp=allow_zp, line=ln)

    _expr_check("coefficients", "psi", psi, True)
    _expr_check("obstacle", "h", h, False)
    _expr_check("boundary", "phi", phi, False)
    if sub != "builtin":
        _expr_check("subsolution", "u", sub, False)
    if a_mode == "scalar_metric":
        _expr_check("coefficients", "A", a_param, True)
    if metric_phi is not None:
        _expr_check("metric", "phi", metric_phi, False)

    try:
        schedule = PenaltySchedule(
            eps0=_num(blocks, "schedule", "eps0", default=1e-1),
            ratio=_num(blocks, "schedule", "ratio", default=0.1),
            eps_min=_num(blocks, "schedule", "eps_min", default=1e-6),
        )
        newton = NewtonConfig(
            tol_residual=_num(blocks, "newton", "tol", default=1e-8),
            max_iters=_num(blocks, "newton", "max_iters", default=60, cast=int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    enabled_str = _string(blocks, "audit", "enabled", default="true").lower()
    if enabled_str not in ("true", "false", "on", "off"):
        raise ConfigError(f"audit.enabled must be true/false, got {enabled_str!r}")
    audit = AuditConfig(
        enabled=enabled_str in ("true", "on"),
        c_audit=_num(blocks, "audit", "c_audit", default=0.0),
        theta_samples=_num(blocks, "audit", "theta_samples", default=4000, cast=int),
        seed=_num(blocks, "audit", "seed", default=42, cast=int),
    )

    return ProblemConfig(
        family=family, k=k, n=n, l=l, lo=lo, hi=hi, m=m,
        metric_kind=metric_kind, metric_phi=metric_phi, metric_file=metric_file,
        a_mode=a_mode, a_param=a_param, psi=psi, h=h, phi=phi,
        subsolution=sub, schedule=schedule, newton=newton, audit=audit,
    )


# ---------------------------------------------------------------------------
# problem build
# ---------------------------------------------------------------------------

@dataclass
class RunSetup:
    config: ProblemConfig
    problem: Problem
    schedule: PenaltySchedule
    newton: NewtonConfig
    audit: AuditConfig


def _sample_expr(text: str, pts: np.ndarray) -> np.ndarray:
    """Expression sampled at the grid points `pts` (shape m + (n,))."""
    n = pts.shape[-1]
    expr = parse_expression(text, n, allow_zp=False)
    env = {f"x{i+1}": pts[..., i] for i in range(n)}
    return np.broadcast_to(np.asarray(expr(**env), dtype=float), pts.shape[:-1]).copy()


def _load_tabulated_metric(path: str, grid: ChartGrid):
    """Tabulated metric file: one row per grid point (C order), columns the
    upper triangle of g (g11 g12 ... row-major)."""
    n = grid.n
    ncols = n * (n + 1) // 2
    data = np.loadtxt(path, ndmin=2)
    expected = int(np.prod(grid.m))
    if data.shape != (expected, ncols):
        raise ConfigError(
            f"tabulated metric {path!r}: expected shape {(expected, ncols)}, got {data.shape}"
        )
    g = np.zeros((expected, n, n))
    col = 0
    for i in range(n):
        for j in range(i, n):
            g[:, i, j] = data[:, col]
            g[:, j, i] = data[:, col]
            col += 1
    from .geometry import metric_from_field

    return metric_from_field(grid, g.reshape(grid.shape + (n, n)))


def build_runsetup(cfg: ProblemConfig) -> RunSetup:
    """Build the discrete problem; config-level feasibility checks live here."""
    grid = ChartGrid(lo=cfg.lo, hi=cfg.hi, m=cfg.m)
    if cfg.metric_kind == "flat":
        metric = flat_metric(grid)
    elif cfg.metric_kind == "conformal":
        phi_expr = parse_expression(cfg.metric_phi, grid.n, allow_zp=False)

        def gfun(x):
            env = {f"x{i+1}": x[i] for i in range(grid.n)}
            return np.exp(2.0 * float(phi_expr(**env))) * np.eye(grid.n)

        metric = metric_from_callable(grid, gfun)
    else:
        metric = _load_tabulated_metric(cfg.metric_file, grid)

    fspec = SymmetricFunctionSpec(n=cfg.n, k=cfg.k, l=cfg.l)
    coeff = coefficients_from_expressions(cfg.n, cfg.psi, cfg.a_mode, cfg.a_param)
    pts = grid.points()
    h = _sample_expr(cfg.h, pts)
    phi = _sample_expr(cfg.phi, pts)

    bnd = grid.boundary_mask()
    gap = (h - phi)[bnd]
    if gap.min() <= 0.0:
        raise ConfigError(
            f"obstacle must clear the boundary data: min(h - phi) = {gap.min():.3e} <= 0 on the boundary"
        )

    sub = None
    if cfg.subsolution != "builtin":
        sub = pin_boundary(grid, _sample_expr(cfg.subsolution, pts), phi)

    problem = Problem(grid=grid, metric=metric, fspec=fspec, coeff=coeff,
                      h=h, phi=phi, subsolution=sub)
    return RunSetup(config=cfg, problem=problem, schedule=cfg.schedule,
                    newton=cfg.newton, audit=cfg.audit)
