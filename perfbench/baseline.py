"""Repeat run.py over seeds and write a BENCH_<tag>.json summary.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1 --out BENCH_x.json

Runs one process at a time, cycling through the workloads for each seed so
that a slow spell of the machine is shared between them.  For every
end-to-end metric it records the values, their median and quartiles, and
the spread (q3 - q1) / median next to the bound from BENCHMARK.json, and
the same statistics of each run's wall-time medians; for the traced seeds
it records the per-layer metrics (median over those runs).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10")
    p.add_argument("--trace-seeds", default="1", dest="trace_seeds")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {name: {"untraced": [], "traced": []} for name in names}
    environment = None
    for trace, seeds in ((0, seed_list(args.seeds)), (1, seed_list(args.trace_seeds))):
        for seed in seeds:
            for name in names:
                detail, result = run_once(name, seed, spec["run_seconds"], trace)
                environment = environment or detail["environment"]
                runs[name]["traced" if trace else "untraced"].append((seed, detail, result))
                print(f"{name} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())
                    if trace == 0), flush=True)

    doc = {"environment": environment, "run_seconds": spec["run_seconds"],
           "seeds": seed_list(args.seeds), "trace_seeds": seed_list(args.trace_seeds),
           "workloads": {}}
    for name, r in runs.items():
        e2e = {}
        for metric, bound in bounds.items():
            e2e[metric] = stats([res["metrics"][metric]["value"] for _, _, res in r["untraced"]])
            e2e[metric].update(unit=r["untraced"][0][2]["metrics"][metric]["unit"], bound=bound)
            print(f"{name:15s} {metric:12s} median {e2e[metric]['median']:.6g} "
                  f"spread {e2e[metric]['spread']:.4f} (bound {bound})")
        attempted = sum(res["attempted"] for _, _, res in r["untraced"])
        failed = sum(res["failed"] for _, _, res in r["untraced"])
        layers = {}
        for metric, first in (r["traced"][0][2]["metrics"] if r["traced"] else {}).items():
            values = [res["metrics"][metric]["value"] for _, _, res in r["traced"]]
            layers[metric] = {"value": statistics.median(values), "unit": first["unit"]}
        doc["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": attempted,
            "failed_frac": failed / attempted,
            "ref_dev_max": max(d["ref_dev"] for _, d, _ in r["untraced"]),
            "wall_medians": {m: stats([d["wall_medians"][m] for _, d, _ in r["untraced"]])
                             for m in r["untraced"][0][1]["wall_medians"]},
            "per_layer": layers,
        }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
