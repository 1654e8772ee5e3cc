"""Spans and counts recorded around the calls into each hessobs layer.

Nothing inside the package is edited.  `instrument` replaces a public
function with a wrapper on the module that calls it, exactly under the name
that module imported it by (for example `hessobs.newton.linearize`, or
`scipy.sparse.linalg.spsolve` as `hessobs.newton` reaches it through its
`spla` alias), and puts the originals back on exit.  A boundary that no
longer exists raises AttributeError instead of silently measuring nothing.

A span is (id, parent, name, start, end); a layer's self time is its span's
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

# span name -> the per-layer self-time metric it is booked under; every span
# name maps to exactly one metric, so these metrics add up to the root span
SELF_METRIC = {
    "cli.sweep": "cli.self_s",
    "config.parse": "config.parse_s",
    "config.build": "config.build_s",
    "newton.continuation": "newton.self_s",
    "newton.solve": "newton.self_s",
    "newton.linsolve": "newton.linsolve_s",
    "operator.residual": "operator.state_eval_s",
    "newton.trial": "operator.state_eval_s",
    "operator.state": "operator.state_eval_s",
    "operator.linearize": "operator.linearize_s",
    "operator.assemble": "operator.assemble_s",
    "operator.L": "operator.L_s",
    "geometry.cov_hess": "geometry.cov_hess_s",
    "geometry.eig": "geometry.eig_s",
    "symfunc.f_grad": "symfunc.f_grad_s",
    "symfunc.sample": "symfunc.sample_s",
    "symfunc.theta": "symfunc.theta_s",
    "monitors.norms": "monitors.norms_s",
    "monitors.audit": "monitors.audit_s",
    "monitors.contact": "monitors.contact_s",
    "report.write": "report.write_s",
}


class Tracer:
    """In-memory span and count recorder for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [id, parent, name, start, end]; end is None while open
        self.stack = []  # ids of open spans, innermost last
        self.open = Counter()  # span name -> number currently open
        self.counts = Counter()
        self.maxima = {}
        self._residual_seen = set()  # newton.solve spans that made their first residual call

    def span(self, name, fn, after=None):
        """Wrap fn in a span; name may be a callable choosing it at call time.
        after(tracer, args, kwargs, result) runs outside the span."""

        def wrapper(*args, **kwargs):
            label = name(self) if callable(name) else name
            sid = len(self.spans)
            rec = [sid, self.stack[-1] if self.stack else None, label, None, None]
            self.spans.append(rec)
            self.stack.append(sid)
            self.open[label] += 1
            rec[3] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = self.clock()
                self.stack.pop()
                self.open[label] -= 1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call adds one to counts[name]; no span."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def parent_name(self):
        return self.spans[self.stack[-1]][2] if self.stack else None

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                    "name": name, "start": start, "end": end}) + "\n")


def self_times(spans):
    """Self time per span id: duration minus the union of its children's
    intervals, each clipped to the parent."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[sid]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def self_time_by_metric(spans):
    """Sum of self times per SELF_METRIC entry (every entry present)."""
    totals = dict.fromkeys(SELF_METRIC.values(), 0.0)
    for sid, t in self_times(spans).items():
        totals[SELF_METRIC[spans[sid][2]]] += t
    return totals


@contextlib.contextmanager
def patched(obj, attr, value):
    old = getattr(obj, attr)  # a vanished boundary fails here, loudly
    setattr(obj, attr, value)
    try:
        yield old
    finally:
        setattr(obj, attr, old)


class _Namespace:
    """Stand-in for a module alias: the given attributes, the rest delegated."""

    def __init__(self, real, **override):
        self._real = real
        self.__dict__.update(override)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _residual_name(tr: Tracer) -> str:
    # newton_solve evaluates its start iterate once, then one residual per
    # line-search trial; the initializer's calls sit under the continuation
    if tr.parent_name() == "newton.solve":
        parent = tr.stack[-1]
        if parent in tr._residual_seen:
            return "newton.trial"
        tr._residual_seen.add(parent)
    return "operator.residual"


def _after_continuation(tr, args, kwargs, result):
    tr.counts["newton.iters"] += sum(r.iterations for r in result.reports)


def _after_state(tr, args, kwargs, result):
    tr.counts["operator.state_evals"] += 1
    if tr.open["newton.continuation"]:
        tr.counts["operator.solve_state_evals"] += 1


def _after_assemble(tr, args, kwargs, result):
    tr.maxima["operator.jac_nnz"] = max(tr.maxima.get("operator.jac_nnz", 0), result.nnz)


def _after_theta(tr, args, kwargs, result):
    # ThetaCertificate.sample_count is the lambda rows; K rows is args[1]
    k_rows = len(kwargs["K_samples"]) if "K_samples" in kwargs else len(args[1])
    tr.counts["symfunc.theta_pairs"] += k_rows * result.sample_count


def _after_write(tr, args, kwargs, path):
    tr.counts["report.files"] += 1
    tr.counts["report.bytes"] += path.stat().st_size


@contextlib.contextmanager
def instrument(tr: Tracer, full: bool):
    """Install the wrappers.  With full=False only the root span and the
    continuation span are recorded, which is what the untraced run needs
    for sweep_s and solve_s."""
    import hessobs.cli as cli
    import hessobs.expressions as expressions
    import hessobs.monitors as monitors
    import hessobs.newton as newton
    import hessobs.operator as operator
    import hessobs.symfunc as symfunc

    with contextlib.ExitStack() as stack:
        def span(mod, attr, name, after=None):
            stack.enter_context(patched(mod, attr, tr.span(name, getattr(mod, attr), after)))

        def count(mod, attr, name):
            stack.enter_context(patched(mod, attr, tr.counter(name, getattr(mod, attr))))

        span(cli, "main", "cli.sweep")
        span(cli, "continuation_solve", "newton.continuation", _after_continuation)
        if full:
            span(cli, "parse_config", "config.parse")
            span(cli, "build_runsetup", "config.build")
            span(cli, "compute_norm_bundle", "monitors.norms")
            span(cli, "sweep_summary", "monitors.norms")
            span(cli, "audit_inequalities", "monitors.audit")
            span(cli, "extract_contact_set", "monitors.contact")
            writer = cli.ReportBundleWriter
            traced_writer = type("TracedReportBundleWriter", (writer,), {
                attr: tr.span("report.write", getattr(writer, attr), _after_write)
                for attr in dir(writer) if attr.startswith("write")
            })
            stack.enter_context(patched(cli, "ReportBundleWriter", traced_writer))

            span(newton, "newton_solve", "newton.solve")
            span(newton, "residual", _residual_name)
            span(newton, "linearize", "operator.linearize")
            stack.enter_context(patched(newton, "spla", _Namespace(
                newton.spla, spsolve=tr.span("newton.linsolve", newton.spla.spsolve,
                                             _count("newton.linsolves")))))

            span(operator, "evaluate_state", "operator.state", _after_state)
            span(operator, "assemble_operator", "operator.assemble", _after_assemble)
            span(operator, "covariant_hessian", "geometry.cov_hess")
            span(operator, "eigen_wrt_metric_field", "geometry.eig", _count("geometry.eig_calls"))
            span(operator, "f_and_grad_masked", "symfunc.f_grad")
            count(operator, "sigma_margins", "symfunc.margin_calls")

            span(monitors, "evaluate_state", "operator.state", _after_state)
            span(monitors, "operator_L", "operator.L")
            span(monitors, "sample_cone_points", "symfunc.sample", _count("symfunc.sample_calls"))
            span(monitors, "estimate_theta", "symfunc.theta", _after_theta)

            count(symfunc, "sigma_margins", "symfunc.margin_calls")
            count(expressions.Expression, "__call__", "expressions.evals")
        yield tr


def _count(name):
    def after(tr, args, kwargs, result):
        tr.counts[name] += 1
    return after
