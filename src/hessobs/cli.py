"""Command-line interface: solve, sweep, check-structure, verify-lemma.

Exit codes are a public contract:
    0  success
    1  input error (usage, config parse or validation, unreadable file)
    2  solver failure (diagnosis embedded in the report)
    3  condition violation (structure conditions, coefficient signs, lemma)
    4  uniformity warning (sweep solved but monitored norms not eps-uniform)
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import asdict

import numpy as np

from .config import RunSetup, build_runsetup, parse_config
from .errors import ConfigError, HessObsError, StructureViolation
from .monitors import (
    audit_inequalities,
    compute_norm_bundle,
    extract_contact_set,
    solved_state,
    sweep_summary,
    theta_certificate,
)
from .newton import continuation_solve, default_initializer
from .operator import certify_coefficients
from .report import ReportBundleWriter, fmt
from .symfunc import check_structure_conditions

__all__ = ["main", "cmd_sweep", "cmd_check_structure", "cmd_verify_lemma"]


def _load(args) -> RunSetup:
    """Parse the config, apply the override flags and build the run; every
    out-of-range input, an unreadable config and an `--out` below a file
    raise ConfigError."""
    if args.out is not None:  # --out, or the first of its parents that exists, is a directory
        out = pathlib.Path(args.out).absolute()
        existing = next(q for q in (out, *out.parents) if q.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
    if getattr(args, "zeta", None) is not None and not 0.0 < args.zeta < np.inf:
        raise ConfigError(f"--zeta must be positive and finite, got {args.zeta}")
    if getattr(args, "samples", None) is not None and args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if not np.isfinite(getattr(args, "k0", 0.0)):
        raise ConfigError(f"--k0 must be finite, got {args.k0}")
    try:
        text = pathlib.Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"config {args.config}: {exc}") from exc
    cfg = parse_config(text).override(
        eps_min=getattr(args, "eps_min", None),
        grid_m=getattr(args, "grid_m", None),
        seed=getattr(args, "seed", None),
        audit_enabled=(
            None if getattr(args, "audit", None) is None else args.audit == "on"
        ),
    )
    return build_runsetup(cfg)


def _say(args, *msg):
    if not args.quiet:
        print(*msg)


def _fmt_point(v) -> str:
    """A scalar through `fmt`, or a vector as [v1, v2, ...]."""
    return fmt(v) if np.ndim(v) == 0 else "[" + ", ".join(fmt(c) for c in v) + "]"


def _eps_tag(eps: float) -> str:
    return f"{eps:.0e}"


def _solve_row(rep) -> dict:
    return {
        "epsilon": rep.epsilon,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "final_residual": rep.residual_history[-1],
        "final_margin": rep.margin_history[-1],
        "subsolution_dominance": rep.subsolution_dominance,
        "start": rep.start,
        "rejected_margin": rep.rejected_margin,
        "rejected_armijo": rep.rejected_armijo,
        "krylov_iterations": rep.krylov_iterations,
    }


def _write_fields(out: ReportBundleWriter, args, grid, prefix: str, solutions, epsilons):
    """One grid dump per field u and its epsilon, named prefix + epsilon tag."""
    for u, eps in zip(solutions, epsilons):
        out.write_field(f"{prefix}{_eps_tag(eps)}", grid, u, binary=args.field_format == "binary")


def cmd_sweep(rs: RunSetup, args) -> int:
    """`solve` and `sweep`: only `sweep` exits 4 on non-uniform norms.  Any
    library error, in the solve or after it, exits 2 with the failure report
    (the config, the epsilons, `solver_failure`, and the `solves` and
    `norms` rows of the epsilons finished before it), the `u_eps_*` fields
    of the finished epsilons and, after MaxItersExceeded, the failing
    epsilon's best iterate `u_best_eps_*`.  The norms rows stop before the
    first finished field whose monitors raise."""
    out = ReportBundleWriter(args.out)
    doc = {"config": {"text": rs.config.to_text()}, "epsilons": rs.config.schedule.values()}
    reports, solutions = [], []
    try:
        result = continuation_solve(rs.problem, rs.config.schedule, rs.config.newton)
        reports, solutions = result.reports, result.solutions
        return _report_sweep(rs, args, out, dict(doc), result)
    except HessObsError as exc:
        doc["solver_failure"] = {
            "error": type(exc).__name__,
            "message": str(exc),
            "epsilon": getattr(exc, "epsilon", None),
        }
        if getattr(exc, "report", None) is not None:  # the failing epsilon's own solve
            doc["solver_failure"]["solve"] = _solve_row(exc.report)
        finished = [_solve_row(rep) for rep in getattr(exc, "reports", reports)]
        if finished:
            doc["solves"] = finished
        solutions = getattr(exc, "solutions", solutions)
        norms = []
        try:
            for u, eps in zip(solutions, doc["epsilons"]):
                norms.append(asdict(compute_norm_bundle(solved_state(u, rs.problem, eps),
                                                        rs.problem)))
        except HessObsError:
            pass
        if norms:
            doc["norms"] = norms
        out.write_json("report.json", doc)
        grid = rs.problem.grid
        _write_fields(out, args, grid, "u_eps_", solutions, doc["epsilons"])
        if getattr(exc, "best_iterate", None) is not None:
            _write_fields(out, args, grid, "u_best_eps_", [exc.best_iterate], [exc.epsilon])
        _say(args, f"solver failed: {exc}")
        return 2


def _report_sweep(rs: RunSetup, args, out: ReportBundleWriter, doc: dict, result) -> int:
    audit = rs.config.audit
    certificate = (theta_certificate(result.start, rs.problem, audit.theta_samples, audit.seed)
                   if audit.enabled else None)
    bundles, audits = [], []
    solves = [_solve_row(rep) for rep in result.reports]
    hist_rows = []
    for u, eps, rep in zip(result.solutions, result.epsilons, result.reports):
        solved = solved_state(u, rs.problem, eps)
        bundles.append(compute_norm_bundle(solved, rs.problem))
        if audit.enabled:
            audits.append(audit_inequalities(solved, result.start, rs.problem, certificate,
                                             audit.c_audit))
        for it, rmax in enumerate(rep.residual_history):
            step = rep.step_history[it - 1] if it >= 1 else ""
            hist_rows.append((eps, it, rmax, rep.residual_l2_history[it], step,
                              rep.margin_history[it]))

    sweep = sweep_summary(bundles)
    final_eps = result.epsilons[-1]
    final_bundle = bundles[-1]
    contact = extract_contact_set(  # build_runsetup ensured h > phi on the boundary
        result.final, rs.problem.h, rs.problem.grid, final_eps,
        final_bundle.penalty_sup, final_bundle.hess_norm,
    )

    doc["solves"] = solves
    doc["norms"] = sweep.rows
    doc["sweep"] = {"ratios": sweep.ratios, "warnings": sweep.warnings}
    doc["audits"] = [asdict(a) for a in audits]
    doc["contact"] = {
        "epsilon": final_eps,
        "tau": contact.tau,
        "cells": contact.cells,
        "interface_cells": contact.interface_cells,
    }
    out.write_json("report.json", doc)

    out.write_csv(
        "norms_vs_eps.csv",
        list(sweep.rows[0]),
        [list(r.values()) for r in sweep.rows],
        "per-epsilon monitors: c0/grad/hess norms (max over points), penalty sup, max (u-h)_+",
    )
    out.write_csv(
        "residual_history.csv",
        ["epsilon", "iteration", "residual_max", "residual_l2", "step", "margin"],
        hist_rows,
        "damped-Newton history per epsilon: max/l2 residual norms, accepted step, cone margin",
    )
    grid = rs.problem.grid
    contact_rows = [
        (*i, *x, flag)
        for i, x, flag in zip((np.argwhere(contact.mask) + 1).tolist(),
                              grid.interior_points()[contact.mask].tolist(),
                              contact.interface[contact.mask].tolist())
    ]
    out.write_csv(
        "contact_cells.csv",
        [f"i{d+1}" for d in range(grid.n)] + [f"x{d+1}" for d in range(grid.n)] + ["interface"],
        contact_rows,
        f"contact cells at the final epsilon (tau = {contact.tau:.6e}); grid indices, coordinates, interface flag",
    )
    _write_fields(out, args, grid, "u_eps_", result.solutions, result.epsilons)

    for s in solves:
        _say(args, f"epsilon {fmt(s['epsilon'])}: {s['iterations']} iterations, "
             f"residual {fmt(s['final_residual'])}, margin {fmt(s['final_margin'])}")
    _say(args, f"contact cells: {contact.cells}; sweep ratios: "
         + ", ".join(f"{k}={fmt(v)}" for k, v in sweep.ratios.items()))

    if args.command == "sweep" and sweep.warnings:
        _say(args, f"uniformity warning: {', '.join(sweep.warnings)} exceed ratio 2")
        return 4
    return 0


def cmd_check_structure(rs: RunSetup, args) -> int:
    seed = rs.config.audit.seed
    doc = {"family": str(rs.problem.fspec)}
    code = 0
    try:
        rep = check_structure_conditions(rs.problem.fspec, args.samples, seed, K0=args.k0)
        doc["structure"] = {
            "samples": args.samples,
            "K0": args.k0,
            "min_grad_component": rep.min_grad_component,
            "max_hess_eig_scaled": rep.max_hess_eig_scaled,
            "min_f": rep.min_f,
            "min_euler_bound": rep.min_euler_bound,
            "nu0_hat": rep.nu0_hat,
            "boundary_decay_ratios": rep.boundary_decay_ratios,
            "ladder_monotone": rep.ladder_monotone,
            "passed": True,  # check_structure_conditions raises on any failed rule
        }
        _say(args, f"structure conditions: pass ({args.samples} samples)")
    except StructureViolation as exc:
        doc["structure"] = {"passed": False, "condition": exc.condition,
                            "witness": list(np.atleast_1d(exc.witness).ravel())}
        _say(args, f"structure violation: {exc}")
        code = 3

    cert = certify_coefficients(rs.problem, samples=max(64, args.samples // 4), seed=seed)
    doc["coefficients"] = {
        "passed": cert.passed,
        "checks": cert.checks,
        "failed_condition": cert.failed_condition,
    }
    if cert.passed:
        _say(args, "coefficient conditions: pass "
             + ", ".join(f"{k} (worst {fmt(v)})" for k, v in cert.checks.items()))
    else:
        doc["coefficients"]["witness"] = cert.witness
        _say(args, f"coefficient condition violated: {cert.failed_condition} at "
             + ", ".join(f"{k} = {_fmt_point(v)}" for k, v in cert.witness.items()))
        code = 3
    if args.out:
        ReportBundleWriter(args.out).write_json("check_structure.json", doc)
    return code


def cmd_verify_lemma(rs: RunSetup, args) -> int:
    """The audit's theta certificate of the cone cloud, at `--zeta` or zeta0,
    from the start `default_initializer` gives the sweep.  A library error
    exits 2 (3 for a violated lemma) with one `error:` line on stderr."""
    seed = rs.config.audit.seed
    samples = args.samples if args.samples is not None else rs.config.audit.theta_samples
    try:
        K, _, cert = theta_certificate(default_initializer(rs.problem), rs.problem, samples,
                                       seed, args.zeta)
    except HessObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, StructureViolation) else 2
    doc = {
        "zeta": cert.zeta,
        "theta_hat": cert.theta_hat,
        "vacuous": cert.vacuous,
        "sample_count": cert.sample_count,
        "pair_count": cert.pair_count,
        "violations_at_zero": cert.violations_at_zero,
        "min_bracket": cert.min_bracket,
        "K_size": int(K.shape[0]),
        "seed": seed,
    }
    if args.out:
        ReportBundleWriter(args.out).write_json("theta_certificate.json", doc)
    if cert.vacuous:
        _say(args, f"certificate: vacuous (no sampled pair with normal gap >= {fmt(cert.zeta)})")
    else:
        _say(args, f"certificate: theta_hat = {fmt(cert.theta_hat)} over "
             f"{cert.pair_count} pairs (zeta = {fmt(cert.zeta)}, {samples} samples, seed {seed})")
    if cert.violations_at_zero > 0:
        _say(args, f"{cert.violations_at_zero} pairs violate the concavity inequality "
             "at theta = 0: implementation bug")
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hessobs",
        description="Penalized solver and estimate monitors for obstacle problems "
        "of Hessian-type fully nonlinear elliptic equations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_ in (("solve", "the same bundle as sweep, audits included; never exits 4"),
                        ("sweep", "full epsilon sweep with monitors and audits")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("config", help="problem configuration file")
        sp.add_argument("--out", required=True,
                        help="output directory for the report bundle")
        sp.add_argument("--eps-min", type=float, default=None, dest="eps_min",
                        help="override schedule floor")
        sp.add_argument("--grid-m", type=int, default=None, dest="grid_m",
                        help="override points per axis")
        sp.add_argument("--seed", type=int, default=None, help="override audit seed")
        sp.add_argument("--audit", choices=["on", "off"], default=None,
                        help="override audit.enabled")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
        sp.add_argument("--field-format", choices=["text", "binary"], default="text",
                        dest="field_format", help="grid dump format (default text)")
        sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("check-structure",
                        help="certify structure and coefficient conditions")
    sp.add_argument("config")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--k0", type=float, default=0.0,
                    help="constant in the Euler-type lower bound check")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(fn=cmd_check_structure)

    sp = sub.add_parser("verify-lemma",
                        help="sampled certificate for the supporting-hyperplane constant")
    sp.add_argument("config")
    sp.add_argument("--zeta", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(fn=cmd_verify_lemma)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        rs = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return args.fn(rs, args)


if __name__ == "__main__":
    sys.exit(main())
