"""Benchmark of `hessobs sweep`, run in-process through `hessobs.cli.main`.

    python3 perfbench/run.py --workload audited_sweep --seed 1 --seconds 40 --trace 0

Run from anywhere; it benchmarks the sources in `src/` next to this
directory and refuses to run without them.

--trace 0  Runs one warm-up sweep, then timed sweeps until the next one
           would overrun --seconds (at least one), checking every output.
           A pass of the calibration kernel (calibration.py) and
           SETUP_BLOCK timed config set-ups come before the first timed
           sweep and after every one.  Metrics: sweep_cal and solve_cal
           (the timed sweeps' and their continuation_solve calls' total
           wall time over the total, across those sweeps, of the mean of
           the two calibration passes around each), setup_s (median of all
           set-ups, in seconds) and peak_rss_mb (after the warm-up sweep,
           before the kernel allocates).  The wall-time medians are in the
           detail line.
--trace 1  One untraced and one traced sweep.  Metrics: per-layer self
           times and counts from the traced sweep (see NOTES.md), its
           duration and the tracing overhead.  Spans are written as JSON
           lines to .perfbench_out/<run>/spans.jsonl.
--record-ref
           Runs one checked sweep and stores its final field as the
           workload's reference in perfbench/refs/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the environment and every sweep's details.  A
sweep that fails its check counts as failed and gives no timing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_BLOCK = 20
BLAS_THREADS = "1"

END_TO_END_UNITS = {"sweep_cal": "cal", "solve_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_METRICS = ("symfunc.sample_calls", "symfunc.margin_calls", "symfunc.theta_pairs",
                 "geometry.eig_calls", "operator.state_evals", "newton.linsolves",
                 "newton.iters", "report.files", "expressions.evals")
PER_LAYER_UNITS = {
    **{name: "count" for name in COUNT_METRICS},
    "report.bytes": "B",
    "operator.jac_nnz": "count",
    "operator.evals_per_iter": "evals/iter",
    "newton.backtracks": "count",
    "newton.accept_ratio": "ratio",
    "newton.line_search_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}  # plus one "s" metric per spans.SELF_METRIC value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-ref", action="store_true", dest="record_ref")
    return p.parse_args(argv)


def git_sha(root: pathlib.Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(ROOT),
    }


def time_setup(wl, text: str, seed: int):
    """One parse_config + build_runsetup, as every invocation pays it."""
    from hessobs.config import build_runsetup, parse_config

    t0 = time.perf_counter()
    rs = build_runsetup(parse_config(text).override(seed=seed, **wl.overrides))
    return time.perf_counter() - t0, rs


def run_sweep(wl, seed, config_path, outdir, tol, reference, full_trace, run_id):
    """One `hessobs sweep` through cli.main, then its output check."""
    import hessobs.cli as cli
    from spans import Tracer, instrument
    from workloads import check_bundle

    if outdir.exists():
        shutil.rmtree(outdir)
    tracer = Tracer(run_id)
    argv = ["sweep", str(config_path), "--out", str(outdir), "--quiet", *wl.cli_flags(seed)]
    rec = {"run": run_id, "traced": full_trace, "sweep_s": None, "solve_s": None,
           "ref_dev": None, "problems": [], "tracer": tracer, "field": None}
    try:
        with instrument(tracer, full=full_trace):
            rc = cli.main(argv)
        problems, rec["ref_dev"], rec["field"] = check_bundle(wl, rc, outdir, tol, reference)
    except Exception:  # a crash is a failed sweep, not a failed benchmark
        problems = ["exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    rec["problems"] = problems
    if not problems:
        root = tracer.spans[0]
        solve = [s for s in tracer.spans if s[2] == "newton.continuation"]
        rec["sweep_s"] = root[4] - root[3]
        rec["solve_s"] = sum(s[4] - s[3] for s in solve)
    return rec


def summarize(sweeps):
    """(attempted, failed, failed_frac, good sweeps); only good sweeps carry timings."""
    good = [s for s in sweeps if not s["problems"]]
    failed = len(sweeps) - len(good)
    return len(sweeps), failed, failed / len(sweeps), good


def per_layer(tracer) -> dict:
    from spans import self_time_by_metric

    spans = tracer.spans
    values = self_time_by_metric(spans)
    trials = [s for s in spans if s[2] == "newton.trial"]
    iters = tracer.counts["newton.iters"]
    values.update({name: tracer.counts[name] for name in COUNT_METRICS})
    values.update({
        "report.bytes": tracer.counts["report.bytes"],
        "operator.jac_nnz": tracer.maxima.get("operator.jac_nnz", 0),
        "operator.evals_per_iter": tracer.counts["operator.solve_state_evals"] / max(iters, 1),
        "newton.backtracks": len(trials) - iters,
        "newton.accept_ratio": iters / max(len(trials), 1),
        "newton.line_search_s": sum(s[4] - s[3] for s in trials),
        "trace.spans": len(spans),
    })
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hessobs" / "__init__.py").is_file():
        print(f"error: no hessobs sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # one process, one BLAS thread: set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import hessobs
    import numpy as np
    from calibration import Calibration
    from spans import SELF_METRIC
    from workloads import REFS, WORKLOADS

    if pathlib.Path(hessobs.__file__).resolve().parent != (SRC / "hessobs").resolve():
        print(f"error: hessobs imported from {hessobs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    text = wl.config_text(args.seed)
    config_path = run_dir / f"{wl.name}.cfg"
    config_path.write_text(text)
    ref_path = REFS / f"{wl.name}.npy"
    reference = None if args.record_ref else np.load(ref_path)

    setup_s = []

    def time_setups(reps):
        for _ in range(reps):
            t, rs = time_setup(wl, text, args.seed)
            setup_s.append(t)
        return rs

    tol = time_setups(1).newton.tol_residual

    def sweep(i, full):
        return run_sweep(wl, args.seed, config_path, run_dir / "bundle", tol, reference,
                         full, f"{wl.name}:{args.seed}:{args.trace}:{i}")

    metrics, units, medians = {}, {}, {}
    if args.record_ref:
        sweeps = [sweep(0, False)]
        if not sweeps[0]["problems"]:
            REFS.mkdir(exist_ok=True)
            np.save(ref_path, sweeps[0]["field"])
    elif args.trace == 0:
        # a warm-up sweep, then timed sweeps while the next one fits the
        # window (at least one), each between two calibration passes;
        # set-up blocks after each pass spread setup_s over the whole run
        start = time.perf_counter()
        time_setups(SETUP_BLOCK)
        sweeps = [sweep(0, False)]
        # read before the calibration kernel allocates anything
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibrate = Calibration()
        cal_s = [calibrate()]
        time_setups(SETUP_BLOCK)
        while True:
            t0 = time.perf_counter()
            sweeps.append(sweep(len(sweeps), False))
            cal_s.append(calibrate())
            time_setups(SETUP_BLOCK)
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        for s, before, after in zip(sweeps[1:], cal_s, cal_s[1:]):
            s["cal_s"] = (before + after) / 2
        timed = summarize(sweeps[1:])[3]
        if timed and not sweeps[0]["problems"]:
            cal = sum(s["cal_s"] for s in timed)
            metrics = {
                "sweep_cal": sum(s["sweep_s"] for s in timed) / cal,
                "solve_cal": sum(s["solve_s"] for s in timed) / cal,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": peak_rss_mb,
            }
            medians = {m: statistics.median(s[m] for s in timed)
                       for m in ("sweep_s", "solve_s", "cal_s")}
        units = END_TO_END_UNITS
    else:
        plain, traced = sweep(0, False), sweep(1, True)
        sweeps = [plain, traced]
        tracer = traced["tracer"]
        tracer.write_jsonl(run_dir / "spans.jsonl")
        if not (plain["problems"] or traced["problems"]):
            metrics = per_layer(tracer)
            accounted = sum(metrics[m] for m in set(SELF_METRIC.values()))
            if abs(accounted - traced["sweep_s"]) > 1e-9 * traced["sweep_s"]:
                traced["problems"].append(
                    f"self times sum to {accounted!r}, traced sweep took {traced['sweep_s']!r}")
            metrics["trace.sweep_s"] = traced["sweep_s"]
            metrics["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
        units = {**PER_LAYER_UNITS, **{m: "s" for m in SELF_METRIC.values()}}

    attempted, failed, failed_frac, good = summarize(sweeps)
    correct = failed == 0 and (bool(metrics) or args.record_ref)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "failed_frac": failed_frac,
        "ref_dev": max((s["ref_dev"] for s in good if s["ref_dev"] is not None), default=None),
        "wall_medians": medians,
        "setup_s_reps": setup_s,
        "sweeps": [{k: v for k, v in s.items() if k not in ("tracer", "field")} for s in sweeps],
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
