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

Set-up is one pass.  `parse_config` checks the text by building, once, what
it describes: the SymmetricFunctionSpec, the ChartGrid, the schedule,
Newton and audit settings, whose constructors hold the range rules and the
defaults, and one expression tree per expression, which ProblemConfig keeps
matched to its text.  `build_runsetup` samples and assembles those trees.
Every set-up failure is a ConfigError, including a metric that is not
positive definite, a metric table that is not numeric, a sampled h, phi, u
or metric phi that is not finite and an obstacle that does not clear the
boundary data; each names the config line it comes from.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GridTooSmall, NotSPD
from .expressions import parse_expression
from .geometry import ChartGrid, flat_metric, metric_from_field, pin_boundary
from .newton import NewtonConfig, PenaltySchedule
from .operator import CoefficientField, Problem, a_scalar_text
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

    def __post_init__(self):
        if self.theta_samples < 1:
            raise ValueError(f"theta_samples must be at least 1, got {self.theta_samples}")


@dataclass(frozen=True)
class ProblemConfig:
    """A checked config: the grid and the symmetric-function spec it
    describes, the expression texts and the parsed trees of those texts."""

    fspec: SymmetricFunctionSpec
    grid: ChartGrid
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
    # the parsed texts: "psi", "s" (A = s g), "h", "phi", and "u" and
    # "metric_phi" where the config gives them
    trees: dict = field(default_factory=dict, compare=False, repr=False)
    # source line of each text and of "metric_file", for set-up errors
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        # each text is parsed once; a tree is kept while its text is unchanged
        # (dataclasses.replace of another field), so no tree goes stale
        texts = {"psi": self.psi, "s": a_scalar_text(self.a_mode, self.a_param), "h": self.h,
                 "phi": self.phi, "u": None if self.subsolution == "builtin" else self.subsolution,
                 "metric_phi": self.metric_phi}
        object.__setattr__(self, "trees", {
            key: tree if (tree := self.trees.get(key)) is not None and tree.text == text
            else parse_expression(text, self.n, allow_zp=key in ("psi", "s"),
                                  line=self.lines.get(key))
            for key, text in texts.items() if text is not None})

    family = property(lambda self: self.fspec.family)
    n = property(lambda self: self.fspec.n)
    k = property(lambda self: self.fspec.k)
    l = property(lambda self: self.fspec.l)
    lo = property(lambda self: self.grid.lo)
    hi = property(lambda self: self.grid.hi)
    m = property(lambda self: self.grid.m)

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
            cfg = replace(cfg, schedule=_checked(
                lambda: replace(cfg.schedule, eps_min=float(eps_min)),
                f"eps_min override {eps_min!r}: "))
        if grid_m is not None:
            cfg = replace(cfg, grid=_checked(
                lambda: replace(cfg.grid, m=(int(grid_m),) * cfg.n),
                f"grid_m override {grid_m!r}: "))
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


def _checked(make, what="", line=None):
    """make(), with a constructor's own range check (ValueError or
    GridTooSmall) raised as a ConfigError."""
    try:
        return make()
    except (ValueError, GridTooSmall) as exc:
        raise ConfigError(what + str(exc), line) from exc


def _line(blocks, block, key):
    return blocks.get(block, {}).get(key, (None, None))[1]


_REQUIRED = object()


def _unquote(val: str) -> str:
    """A value in double quotes is the text between them, which holds no
    other double quote and no backslash; any other value is as written."""
    if not val.startswith('"'):
        return val
    text = val[1:-1]
    if len(val) < 2 or not val.endswith('"') or '"' in text or "\\" in text:
        raise ValueError("expected one double-quoted string without inner quotes or backslashes")
    return text


def _value(blocks, block, key, cast=_unquote, default=_REQUIRED):
    """Entry `key` of `block` through `cast`, with line-anchored errors; a
    missing key gives `default`, or is an error."""
    entry = blocks.get(block, {}).get(key)
    if entry is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in block {block!r}")
        return default
    val, ln = entry
    try:
        return cast(val)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {val!r}: {exc}", ln) from exc


def _entries(blocks, block, casts: dict) -> dict:
    """The keys of `block` that the text gives, each cast by casts[key]; an
    absent key keeps its dataclass default."""
    return {key: _value(blocks, block, key, cast)
            for key, cast in casts.items() if key in blocks.get(block, {})}


def _flag(val: str) -> bool:
    word = _unquote(val).lower()
    if word not in ("true", "false", "on", "off"):
        raise ValueError("expected true, false, on or off")
    return word in ("true", "on")


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate configuration text into a ProblemConfig."""
    blocks = _split_blocks(text)
    for b in _REQUIRED_BLOCKS:
        if b not in blocks:
            raise ConfigError(f"missing required block {b!r}")

    family = _value(blocks, "function", "family")
    if family not in ("sigma_k_root", "sigma_quotient_root"):
        raise ConfigError(f"unknown family {family!r}", _line(blocks, "function", "family"))
    n = _value(blocks, "function", "n", int)
    k = _value(blocks, "function", "k", int)
    l = _value(blocks, "function", "l", int, default=0)
    if (l == 0) != (family == "sigma_k_root"):
        raise ConfigError("sigma_k_root does not take 'l'" if l else
                          "sigma_quotient_root requires key 'l' with 1 <= l < k")
    fspec = _checked(lambda: SymmetricFunctionSpec(n=n, k=k, l=l),
                     line=_line(blocks, "function", "k"))

    lo = _value(blocks, "grid", "lo", lambda v: tuple(map(float, v.split())))
    hi = _value(blocks, "grid", "hi", lambda v: tuple(map(float, v.split())))
    m = _value(blocks, "grid", "m", lambda v: tuple(map(int, v.split())))
    if len(m) == 1:
        m = m * len(lo)
    if not (len(lo) == len(hi) == len(m) == n):
        raise ConfigError(
            f"grid vectors must have length n = {n} (lo: {len(lo)}, hi: {len(hi)}, m: {len(m)})",
            _line(blocks, "grid", "lo"),
        )
    grid = _checked(lambda: ChartGrid(lo=lo, hi=hi, m=m), "grid: ", _line(blocks, "grid", "lo"))

    metric_kind = _value(blocks, "metric", "kind", default="flat")
    if metric_kind not in ("flat", "conformal", "tabulated"):
        raise ConfigError(f"unknown metric kind {metric_kind!r}", _line(blocks, "metric", "kind"))
    metric_phi = _value(blocks, "metric", "phi", default=None)
    metric_file = _value(blocks, "metric", "file", default=None)
    if metric_kind == "conformal" and metric_phi is None:
        raise ConfigError("conformal metric requires key 'phi'")
    if metric_kind == "tabulated" and metric_file is None:
        raise ConfigError("tabulated metric requires key 'file'")

    a_line = _line(blocks, "coefficients", "A")
    a_parts = _value(blocks, "coefficients", "A", lambda v: shlex.split(_unquote(v)),
                     default=["zero"]) or [""]
    a_mode, a_param = a_parts[0], None
    if a_mode in ("kappa_zg", "scalar_metric"):
        if len(a_parts) != 2:
            raise ConfigError(f"{a_mode} takes one parameter", a_line)
        a_param = a_parts[1]
    _checked(lambda: a_scalar_text(a_mode, a_param), line=a_line)

    psi = _value(blocks, "coefficients", "psi")
    h = _value(blocks, "obstacle", "h")
    phi = _value(blocks, "boundary", "phi")
    sub = _value(blocks, "subsolution", "u", default="builtin")

    # ProblemConfig parses each expression once; build_runsetup samples the trees
    lines = {"psi": _line(blocks, "coefficients", "psi"), "s": a_line,
             "h": _line(blocks, "obstacle", "h"), "phi": _line(blocks, "boundary", "phi"),
             "u": _line(blocks, "subsolution", "u"), "metric_phi": _line(blocks, "metric", "phi"),
             "metric_file": _line(blocks, "metric", "file")}

    schedule = _checked(lambda: PenaltySchedule(**_entries(
        blocks, "schedule", {"eps0": float, "ratio": float, "eps_min": float})))
    newton = _entries(blocks, "newton", {"tol": float, "max_iters": int})
    if "tol" in newton:
        newton["tol_residual"] = newton.pop("tol")
    newton = _checked(lambda: NewtonConfig(**newton))
    audit = _checked(lambda: AuditConfig(**_entries(
        blocks, "audit", {"enabled": _flag, "c_audit": float, "theta_samples": int, "seed": int})),
        line=_line(blocks, "audit", "theta_samples"))

    return ProblemConfig(
        fspec=fspec, grid=grid,
        metric_kind=metric_kind, metric_phi=metric_phi, metric_file=metric_file,
        a_mode=a_mode, a_param=a_param, psi=psi, h=h, phi=phi, subsolution=sub,
        schedule=schedule, newton=newton, audit=audit, lines=lines,
    )


# ---------------------------------------------------------------------------
# problem build
# ---------------------------------------------------------------------------

@dataclass
class RunSetup:
    config: ProblemConfig
    problem: Problem
    # the benchmark's set-up timer (perfbench/run.py) reads rs.newton
    newton = property(lambda self: self.config.newton)


def _sample(cfg: ProblemConfig, key: str, pts: np.ndarray) -> np.ndarray:
    """The tree of text `key` over x1..xn sampled at the grid points `pts`
    (shape m + (n,)); a value that is not finite is a ConfigError."""
    env = {f"x{i+1}": pts[..., i] for i in range(pts.shape[-1])}
    tree = cfg.trees[key]
    out = np.broadcast_to(np.asarray(tree(**env), dtype=float), pts.shape[:-1]).copy()
    bad = ~np.isfinite(out)
    if bad.any():
        raise ConfigError(f"expression {tree.text!r} is not finite at {bad.sum()} of {bad.size} grid "
                          f"points, first at x = {pts[bad][0]}", cfg.lines.get(key))
    return out


def _load_tabulated_metric(path: str, grid: ChartGrid, line) -> np.ndarray:
    """Metric blocks from a tabulated metric file: one row per grid point (C
    order), columns the upper triangle of g (g11 g12 ... row-major)."""
    n = grid.n
    try:
        data = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"tabulated metric {path!r}: {exc}", line) from exc
    expected = int(np.prod(grid.m))
    if data.shape != (expected, n * (n + 1) // 2):
        raise ConfigError(
            f"tabulated metric {path!r}: expected shape {(expected, n * (n + 1) // 2)}, "
            f"got {data.shape}", line
        )
    g = np.zeros((expected, n, n))
    i, j = np.triu_indices(n)
    g[:, i, j] = data
    g[:, j, i] = data
    return g.reshape(grid.shape + (n, n))


def _metric(cfg: ProblemConfig, pts: np.ndarray):
    if cfg.metric_kind == "flat":
        return flat_metric(cfg.grid)
    if cfg.metric_kind == "conformal":  # g = exp(2 phi) I
        line = cfg.lines.get("metric_phi")
        g = np.exp(2.0 * _sample(cfg, "metric_phi", pts))[..., None, None] * np.eye(cfg.grid.n)
    else:
        line = cfg.lines.get("metric_file")
        g = _load_tabulated_metric(cfg.metric_file, cfg.grid, line)
    try:
        return metric_from_field(cfg.grid, g)
    except NotSPD as exc:
        raise ConfigError(f"{cfg.metric_kind} metric: {exc}", line) from exc


def build_runsetup(cfg: ProblemConfig) -> RunSetup:
    """Sample and assemble the parsed config into the discrete problem.  A
    metric that is not positive definite, an unreadable metric file, a
    sampled text that is not finite and an obstacle that does not clear the
    boundary data raise ConfigError."""
    grid, trees = cfg.grid, cfg.trees
    pts = grid.points()
    metric = _metric(cfg, pts)
    h = _sample(cfg, "h", pts)
    phi = _sample(cfg, "phi", pts)
    gap = (h - phi)[grid.boundary_mask()]
    if gap.min() <= 0.0:
        raise ConfigError(
            f"obstacle must clear the boundary data: min(h - phi) = {gap.min():.3e} <= 0 on the boundary",
            cfg.lines.get("h"))
    sub = pin_boundary(grid, _sample(cfg, "u", pts), phi) if "u" in trees else None

    problem = Problem(grid=grid, metric=metric, fspec=cfg.fspec,
                      coeff=CoefficientField(s=trees["s"], psi=trees["psi"]),
                      h=h, phi=phi, subsolution=sub)
    return RunSetup(config=cfg, problem=problem)
