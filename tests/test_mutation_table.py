"""The exit-code contract under a table of single-key mutations.

Each `key = value` line of the four bundled configs, at m = 21 with 200
theta samples, is replaced in turn by each of MUTATIONS, and `sweep --audit
on`, `check-structure` and `verify-lemma` run on the result.  Every run
must keep the README's contract: an exit code in 0-4, no traceback and no
Python warning, exit 1 with one `config error:` line and nothing written,
and a sweep that exits 2 with a `report.json` that holds `solver_failure`.
"""

import collections
import json
import re
import shutil
import warnings

from hessobs.cli import main
from hessobs.problems import bundled_config_text

MUTATIONS = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", '"1/0"', '"x1^0"',
             '"abs(x1)"', '"z"', '"p1"', '"-1e308"', '"x1"']
COMMANDS = [["sweep", "--audit", "on"], ["check-structure", "--samples", "100"],
            ["verify-lemma", "--samples", "100"]]
KEY_LINE = re.compile(r"(?m)^(\s+\w+ = )(.*)$")


def small_config(name):
    text = re.sub(r"(?m)^(  m = )\d+$", r"\g<1>21", bundled_config_text(name))
    return re.sub(r"(?m)^(  theta_samples = )\d+$", r"\g<1>200", text)


def contract_breaks(cfg, out, argv, capsys):
    """Run one command on cfg with --out out; return its exit code and the
    list of the ways it broke the contract."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([argv[0], str(cfg), *argv[1:], "--out", str(out), "--quiet"])
        except Exception as exc:  # an escaping exception is a break of the contract
            return None, [f"raised {exc!r}"]
    captured = capsys.readouterr()
    breaks = [f"warning: {w.message}" for w in caught]
    if code not in (0, 1, 2, 3, 4):
        breaks.append(f"exit {code}")
    if "Traceback" in captured.out + captured.err:
        breaks.append("traceback")
    if code == 1 and (out.exists() or not captured.err.startswith("config error:")
                      or captured.err.count("\n") != 1):
        breaks.append(f"exit 1 wrote {out.exists()}, printed {captured.err!r}")
    if code == 2 and argv[0] == "sweep":
        report = out / "report.json"
        if not report.exists() or "solver_failure" not in json.loads(report.read_text()):
            breaks.append("exit 2 without solver_failure")
    shutil.rmtree(out, ignore_errors=True)
    return code, breaks


def test_single_key_mutations_keep_the_exit_contract(tmp_path, capsys):
    cfg, out = tmp_path / "mutated.cfg", tmp_path / "out"
    codes, breaks = collections.Counter(), []
    for name in ("laplacian_obstacle", "laplacian_obstacle_strong", "ma_manufactured",
                 "ma_obstacle"):
        base = small_config(name)
        cfg.write_text(base)
        for argv in COMMANDS:  # the table runs where every unmutated config exits 0
            assert contract_breaks(cfg, out, argv, capsys) == (0, []), (name, argv)
        for line in KEY_LINE.finditer(base):
            for value in MUTATIONS:
                cfg.write_text(base[:line.start()] + line.group(1) + value + base[line.end():])
                for argv in COMMANDS:
                    code, found = contract_breaks(cfg, out, argv, capsys)
                    codes[code] += 1
                    # x1^0 for a text "1" leaves the problem as it was
                    if line.group(2) == '"1"' and value == '"x1^0"' and code != 0:
                        found.append(f"unchanged problem exits {code}")
                    breaks += [(name, line.group(0).strip(), value, argv[0], b) for b in found]
    assert breaks == []
    assert sum(codes.values()) > 3000 and codes[0] > 100 and codes[2] > 100
