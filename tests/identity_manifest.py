"""Print one sha256 per output file of a fixed set of `hessobs` runs.

    python3 tests/identity_manifest.py > manifest.txt

The runs go through `hessobs.cli.main` in this one process, on the sources
in the `src/` next to this directory, with one BLAS thread:

- `sweep` of each bundled config with audits on, at seeds 42 and 1;
- `check-structure` and `verify-lemma` of each bundled config: the bundle
  and the progress text on stdout;
- `ma_obstacle` at --grid-m 97 with audits off;
- the generated 3d config of the `solve_3d` benchmark workload
  (`perfbench/workloads.py`), seed 1;
- `ma_manufactured` at --grid-m 25 with audits on;
- `laplacian_obstacle_strong` from the built-in start (`u = builtin`) at
  --grid-m 25 with audits on, the one run that solves the start's harmonic
  lift (the builtin pin of `tests/test_cli.py`);
- `ma_obstacle` on the conformal metric phi = 0.05 x1 at --grid-m 25 with
  audits on (the curved pin of `tests/test_cli.py`);
- `ma_obstacle` with A = kappa_zg 0.05 at --grid-m 33;
- the `solve_3d` config as sigma_3 / sigma_1 (k = 3, l = 1, psi = 0.48) at
  m = 11, which exits 2 on a contact-band failure after its last epsilon.

The first line is the numerics fingerprint, `# numerics  openblas <core>
numpy <features>`: the core type OpenBLAS picked its kernels for and the CPU
features numpy dispatches on, either of which can move the last bits of a
result.  Then each line is `<sha256>  <run>/<file>`, and each run adds
`<exit code>  <run>/rc`.  A change meant to keep every result byte-identical
is checked by running this script on both checkouts (copy it into the older
one) and diffing the two outputs, which compare only under equal
fingerprints; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def runs():
    """(name, argv builder, config text) per run; argv takes the config path."""
    from hessobs.problems import BUNDLED, bundled_config_text

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import solve_3d_config

    for name in BUNDLED:
        text = bundled_config_text(name)
        for seed in (42, 1):
            yield (f"sweep_{name}_seed{seed}", text,
                   lambda cfg, seed=seed: ["sweep", cfg, "--seed", str(seed), "--audit", "on"])
        for command in ("check-structure", "verify-lemma"):
            yield f"{command}_{name}", text, lambda cfg, command=command: [command, cfg]
    yield ("sweep_ma_obstacle_m97", bundled_config_text("ma_obstacle"),
           lambda cfg: ["sweep", cfg, "--grid-m", "97", "--audit", "off"])
    yield "sweep_solve_3d", solve_3d_config(1), lambda cfg: ["sweep", cfg]
    yield ("sweep_ma_manufactured_m25", bundled_config_text("ma_manufactured"),
           lambda cfg: ["sweep", cfg, "--grid-m", "25", "--audit", "on"])
    yield ("sweep_laplacian_strong_m25_builtin",
           re.sub(r'(subsolution \{\n)  u = "[^"]*"', r"\1  u = builtin",
                  bundled_config_text("laplacian_obstacle_strong")),
           lambda cfg: ["sweep", cfg, "--grid-m", "25", "--audit", "on"])
    ma = bundled_config_text("ma_obstacle")
    yield ("sweep_ma_obstacle_conformal_m25",
           ma.replace("kind = flat", 'kind = conformal\n  phi = "0.05*x1"'),
           lambda cfg: ["sweep", cfg, "--grid-m", "25", "--audit", "on"])
    yield ("sweep_ma_obstacle_kappa_zg_m33", ma.replace("A = zero", "A = kappa_zg 0.05"),
           lambda cfg: ["sweep", cfg, "--grid-m", "33"])
    quotient = (solve_3d_config(1).replace("family = sigma_k_root", "family = sigma_quotient_root")
                .replace("k = 2", "k = 3\n  l = 1").replace('psi = "5*sqrt(3)/6"', 'psi = "0.48"'))
    yield "sweep_solve_3d_quotient_m11", quotient, lambda cfg: ["sweep", cfg, "--grid-m", "11"]


def numerics() -> str:
    """The numerics fingerprint: OpenBLAS's core type, read through numpy's
    bundled `libscipy_openblas64_` ("unknown" without it), and the CPU
    features numpy's dispatch finds on.  x86-64 builds alias the Katmai,
    Core2 and Banias tables to Prescott's SSE3 kernels, and the name lookup
    finds Katmai first; it is printed as Prescott, the kernels that run."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_features__

    core = "unknown"
    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*"):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode().replace("Katmai", "Prescott")
    features = ",".join(sorted(name for name, on in __cpu_features__.items() if on))
    return f"# numerics  openblas {core}  numpy {features}"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from hessobs.cli import main as hessobs_main

    print(numerics(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text, argv in runs():
            run_dir = pathlib.Path(tmp) / name
            run_dir.mkdir()
            cfg = run_dir / "run.cfg"
            cfg.write_text(text)
            out = run_dir / "out"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = hessobs_main([*argv(str(cfg)), "--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            files["stdout"] = stdout.getvalue().encode()
            for fname, data in files.items():
                print(f"{hashlib.sha256(data).hexdigest()}  {name}/{fname}")
            print(f"{rc}  {name}/rc", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
