"""Spans around the package's layer boundaries, recorded from outside.

Every layer is timed by replacing a module or class attribute that its
caller looks up at call time (``mpecsvc.newton.bicgstab``,
``scipy.sparse.linalg.splu``, ``KktOperator.materialize_kkt``, ...) with a
wrapper that records one span: name, start, end and the span that was open
when it was called.  Spans live in flat arrays in memory and are written
once, after the run.  ``Tracer.restore`` puts every original attribute back,
so an untraced run executes unmodified code.

``capture`` is the only hook an untraced run installs: it keeps the
arguments and result of a handful of calls per command (subproblem
statuses, probe estimates, grid cell statuses) for the correctness checks,
without timing anything.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array

import numpy as np

# Direction solvers a Newton step may call (span name -> route), in the
# order _direction tries them.
SOLVERS = {"krylov.bicgstab.newton": "bicgstab", "newton.splu": "splu",
           "newton.minres": "minres"}
KRYLOV_STATUSES = ("converged", "max_iters", "breakdown", "stalled",
                   "degraded")
CALLERS = ("newton", "licq_probe")
PROBE_MAX_ITERS = 50      # licq_probe's default budget, which `check` uses


class Tracer:
    """Span recorder; ``wrap`` installs wrappers and ``restore`` removes them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.notes = {}            # span id -> facts read from args/result
        self.raised = {}           # span id -> class of the exception it raised
        self._open = [-1]
        self._saved = []

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a span-recording wrapper.

        ``note(args, kwargs, result)`` runs after the span has closed and
        returns a value kept in ``notes``; a call that raises gets no note and
        its exception's class name in ``raised``.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        name_id, start, end, parent, opened = (
            self.name_id, self.start, self.end, self.parent, self._open)

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(opened[-1])
            end.append(0.0)
            opened.append(sid)
            start.append(clock())
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                opened.pop()
                self.raised[sid] = type(exc).__name__
                raise
            end[sid] = clock()
            opened.pop()
            if note is not None:
                self.notes[sid] = note(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float),
                np.frombuffer(self.parent, dtype=np.int32))

    def write(self, path):
        nid, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid,
                 start=start, end=end, parent=parent)


def span_cost(calls=50000):
    """Seconds one wrapped call adds over a plain call, measured here.

    Tracing overhead is reported as spans * span_cost(): the direct
    difference between a traced and an untraced run is buried in their
    run-to-run noise (10-20% of wall time on a shared 2-core host).
    """
    import types

    probe = types.SimpleNamespace(f=lambda: None)
    costs = []
    for wrapped in (False, True):
        tracer = Tracer()
        if wrapped:
            tracer.wrap(probe, "f", "calibration")
        t0 = time.perf_counter()
        for _ in range(calls):
            probe.f()
        costs.append(time.perf_counter() - t0)
        tracer.restore()
    return max(costs[1] - costs[0], 0.0) / calls


def install(tracer):
    """Wrap every layer boundary of the package (imported lazily)."""
    import scipy.sparse.linalg as spla

    from mpecsvc import cli, data, driver, kkt, newton, problem, svc

    w = tracer.wrap
    for cmd in ("cmd_solve", "cmd_grid", "cmd_check"):
        w(cli, cmd, "cli.command")
    w(data, "parse_libsvm", "data.parse")
    w(data, "make_split", "data.split")
    w(problem, "assemble", "problem.assemble")
    w(problem, "apply_LH", "problem.apply_LH")
    w(problem, "apply_LH_T", "problem.apply_LH_T")
    for fn in ("fb_weights", "fb_value", "fb_curvature"):
        w(kkt, fn, "smoothing")
    w(kkt.KktOperator, "materialize_kkt", "kkt.materialize_kkt",
      note=lambda a, k, out: out.nnz)
    w(kkt.KktOperator, "residual", "kkt.residual")
    w(kkt, "licq_probe", "kkt.licq_probe", note=lambda a, k, out: out[1])
    krylov_note = lambda a, k, out: (out.iterations, out.status)  # noqa: E731
    w(newton, "bicgstab", "krylov.bicgstab.newton", note=krylov_note)
    w(kkt, "bicgstab", "krylov.bicgstab.licq_probe", note=krylov_note)
    w(newton, "_direction", "newton.direction",
      note=lambda a, k, out: (a[1].shape[0],
                              bool(np.array_equal(out[0], -out[1]))))
    w(newton, "armijo_search", "newton.armijo", note=_backtracks)
    w(spla, "splu", "newton.splu",
      note=lambda a, k, out: (a[0].shape[0], out.L.nnz + out.U.nnz))
    w(spla, "minres", "newton.minres")
    w(driver, "solve_subproblem", "driver.subproblem",
      note=lambda a, k, out: out[2])
    w(driver, "run_smoothing", "driver.run_smoothing")
    w(driver, "postprocess", "driver.postprocess")
    w(driver, "assumption2_value", "driver.assumption2")
    dual_note = lambda a, k, out: (out.epochs, out.status)  # noqa: E731
    w(svc, "solve_l1svc_dual", "svc.dual", note=dual_note)
    w(driver, "solve_l1svc_dual", "svc.dual", note=dual_note)


def _backtracks(args, kwargs, s):
    rho = args[3].rho
    return int(round(math.log(s) / math.log(rho))) if s < 1.0 else 0


@contextlib.contextmanager
def capture(targets):
    """Record (args, kwargs, result) of each call to the given attributes.

    ``targets`` maps a key to (owner, attr); yields a dict key -> list.
    """
    calls = {key: [] for key in targets}
    saved = []
    for key, (owner, attr) in targets.items():
        orig = getattr(owner, attr)

        def hook(*args, _orig=orig, _sink=calls[key], **kwargs):
            out = _orig(*args, **kwargs)
            _sink.append((args, kwargs, out))
            return out

        setattr(owner, attr, hook)
        saved.append((owner, attr, orig))
    try:
        yield calls
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(tracer, base_s):
    """Per-layer metrics from the recorded spans: name -> (value, unit).

    Layers that run in every workload (set-up and the CLI itself) report
    seconds; the others, idle in some workload, report their share of
    ``base_s``, the traced commands' wall time, in percent.  Counts are exact
    and repeat run to run.
    """
    nid, start, end, parent = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
    ids = {name: i for i, name in enumerate(tracer.names)}

    def spans(name):
        return np.flatnonzero(nid == ids[name]) if name in ids else np.zeros(0, int)

    def notes(name, ok=lambda note: True):
        """Notes of the spans that returned normally."""
        return [tracer.notes[i] for i in spans(name)
                if i in tracer.notes and ok(tracer.notes[i])]

    def seconds(*names):
        return float(sum(dur[spans(nm)].sum() for nm in names))

    def pct(*names):
        return 100.0 * seconds(*names) / base_s

    def self_pct(name):
        return 100.0 * float(self_t[spans(name)].sum()) / base_s

    m = {}

    def put(unit, **values):
        """Keyword names spell metric names with "__" in place of "."."""
        for key, value in values.items():
            m[key.replace("__", ".")] = (value, unit)

    put("s", data__parse_s=seconds("data.parse"), data__split_s=seconds("data.split"),
        problem__assemble_s=seconds("problem.assemble"),
        cli__self_s=float(self_t[spans("cli.command")].sum()),
        trace__wall_s=base_s)
    put("%", problem__apply_pct=pct("problem.apply_LH", "problem.apply_LH_T"),
        smoothing__pct=pct("smoothing"),
        kkt__materialize_kkt_pct=pct("kkt.materialize_kkt"),
        kkt__licq_probe_pct=pct("kkt.licq_probe"),
        newton__armijo_pct=pct("newton.armijo"),
        newton__direction__self_pct=self_pct("newton.direction"),
        newton__self_pct=self_pct("driver.subproblem"),
        newton__splu_pct=pct("newton.splu"),
        newton__subproblem_max_pct=100.0 * max(
            (float(dur[i]) for i in spans("driver.subproblem")), default=0.0) / base_s,
        driver__run_smoothing_pct=pct("driver.run_smoothing"),
        driver__postprocess_pct=pct("driver.postprocess"),
        driver__assumption2_pct=pct("driver.assumption2"),
        svc__dual_pct=pct("svc.dual"))
    put("count",
        problem__apply_LH__calls=len(spans("problem.apply_LH")),
        problem__apply_LH_T__calls=len(spans("problem.apply_LH_T")),
        smoothing__calls=len(spans("smoothing")),
        kkt__materialize_kkt__calls=len(spans("kkt.materialize_kkt")),
        kkt__kkt_nnz=max(notes("kkt.materialize_kkt"), default=0),
        kkt__residual__calls=len(spans("kkt.residual")),
        kkt__licq_probe__calls=len(spans("kkt.licq_probe")),
        kkt__licq_probe__iters=sum(notes("kkt.licq_probe")),
        kkt__licq_probe__unconverged=len(notes(
            "kkt.licq_probe", lambda it: it >= PROBE_MAX_ITERS)))
    for caller in CALLERS:
        name = f"krylov.bicgstab.{caller}"
        m[f"{name}_pct"] = (pct(name), "%")
        m[f"{name}.calls"] = (len(spans(name)), "count")
        m[f"{name}.iters"] = (sum(it for it, _ in notes(name)), "count")
        for status in KRYLOV_STATUSES:
            m[f"{name}.status.{status}"] = (
                len(notes(name, lambda note, s=status: note[1] == s)), "count")

    routes, lm_calls, tried, useful = _routes(tracer, nid, parent, ids)
    put("count", **{f"newton__route__{k}": v for k, v in routes.items()})
    put("ratio", krylov__bicgstab__useful_frac=useful / tried if tried else 0.0)
    put("count",
        newton__steps=len(spans("newton.direction")),
        newton__backtracks=sum(notes("newton.armijo")),
        newton__line_search_failures=len(spans("newton.armijo"))
        - len(notes("newton.armijo")),
        newton__splu__calls=len(spans("newton.splu")),
        newton__splu_fill_nnz=max((fill for _, fill in notes("newton.splu")),
                                  default=0),
        newton__lm__calls=lm_calls,
        newton__minres__calls=len(spans("newton.minres")),
        driver__subproblems=len(spans("driver.subproblem")),
        driver__subproblems_failed=len(spans("driver.subproblem"))
        - len(notes("driver.subproblem", lambda s: s == "converged")),
        svc__dual__calls=len(spans("svc.dual")),
        svc__dual__epochs=sum(ep for ep, _ in notes("svc.dual")),
        svc__dual__max_epochs_hits=len(notes("svc.dual",
                                             lambda n: n[1] == "max_epochs")),
        trace__spans=len(dur))
    return m


def _routes(tracer, nid, parent, ids):
    """Direction route of each Newton step, from its direct child spans.

    The route is the last direction solver the step called; an augmented
    splu (twice the step's dimension) is Levenberg-Marquardt, and a returned
    d == -grad is steepest descent.  Also counts LM factorizations and the
    Newton-side BiCGStab calls that were tried / not followed by a solver.
    """
    solver = {ids[s]: route for s, route in SOLVERS.items() if s in ids}
    steps = {int(i): [] for i in np.flatnonzero(nid == ids.get("newton.direction", -1))}
    for i in np.flatnonzero(np.isin(nid, list(solver))):
        if int(parent[i]) in steps:
            steps[int(parent[i])].append(int(i))
    routes = dict.fromkeys(("bicgstab", "splu", "lm", "minres", "steepest"), 0)
    lm_calls = tried = useful = 0
    for step, kids in steps.items():
        note = tracer.notes.get(step)
        dim, steepest = note if isinstance(note, tuple) else (0, False)
        kinds = []
        for i in kids:
            kind = solver[nid[i]]
            fact = tracer.notes.get(i)
            if kind == "splu" and isinstance(fact, tuple) and fact[0] == 2 * dim:
                kind = "lm"
                lm_calls += 1
            kinds.append(kind)
        if "bicgstab" in kinds:
            tried += 1
            useful += kinds[-1] == "bicgstab"
        if steepest:
            routes["steepest"] += 1
        elif kinds:
            routes[kinds[-1]] += 1
    return routes, lm_calls, tried, useful
