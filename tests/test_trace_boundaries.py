"""The per-layer trace of `perfbench/run.py --trace 1` wraps named functions
at each module boundary; a renamed or removed boundary must fail here, not
only when a trace is taken."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def test_every_traced_boundary_exists_and_is_restored():
    import hessobs.cli as cli
    import hessobs.expressions as expressions
    import hessobs.newton as newton
    import hessobs.operator as operator

    before = (cli.main, newton.residual, operator.sigma_margins,
              expressions.Expression.__call__)
    with spans.instrument(spans.Tracer("t"), full=True):
        assert newton.residual.__wrapped__ is before[1]
        assert operator.sigma_margins.__wrapped__ is before[2]
    assert (cli.main, newton.residual, operator.sigma_margins,
            expressions.Expression.__call__) == before
