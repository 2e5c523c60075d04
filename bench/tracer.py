"""Call tracing and latency probes for the benchmark, installed from outside the package.

``Tracer`` wraps every public function and method of the five library modules
at every module binding (``from .calculus import diff_qr`` makes a second
binding of the same function in ``experiments``), records one span per call
in memory and turns the spans into per-layer metrics.  ``Probe`` is the
light instrument of the untraced run: it only times ``fit_arc`` and the curve
evaluations, whose latencies are end-to-end metrics.

Both restore the original bindings on ``uninstall``.  Functions that a later
version of the library renames or removes simply have no spans, and the
metrics built from them are dropped.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
from array import array
from time import perf_counter, perf_counter_ns

MODULES = ("linalg", "stiefel", "calculus", "interpolate", "experiments")
CURVE_CLASSES = ("CompositeCurve", "GeodesicCurve", "TangentRBFCurve")

# Layer -> the functions it covers, as "<module>.<qualname>" glob patterns.
OPS = {
    "linalg.logm": ("linalg.logm",),
    "linalg.expm": ("linalg.expm",),
    "linalg.qr_econ": ("linalg.qr_econ",),
    "linalg.svd_full": ("linalg.svd_full",),
    "linalg.orth_complete": ("linalg.orth_complete",),
    "stiefel.log": ("stiefel.stiefel_log",),
    "stiefel.exp": ("stiefel.stiefel_exp",),
    "stiefel.split_tangent": ("stiefel.split_tangent",),
    "calculus.transport": ("calculus.transport_velocity",),
    "calculus.diff": (
        "calculus.diff_qr",
        "calculus.diff_svd",
        "calculus.diff_svd_truncated",
        "calculus.svd_sign_normalize",
    ),
    "calculus.dexp": ("calculus.dexp_stiefel",),
    "interpolate.fit": ("interpolate.fit_arc",),
    "interpolate.baseline_fit": ("interpolate.geodesic_interp", "interpolate.tangent_rbf_interp"),
    "interpolate.eval": tuple(f"interpolate.{c}.__call__" for c in CURVE_CLASSES),
    "interpolate.arc_tangent": ("interpolate.arc_tangent",),
    "experiments.gen": ("experiments.gen_*",),
    "experiments.reference": ("experiments.*.reference*",),
}

# Per-layer metrics reported by the traced run: (metric, op, stat, unit).
# Each comment names the end-to-end metric the row should move.
LAYER_METRICS = (
    # logm: fit_ms_* on fit_far, run_s on paper; qr_econ/expm: eval_us_* on eval_dense.
    ("linalg.logm.calls", "linalg.logm", "calls", "count"),
    ("linalg.logm.self_s", "linalg.logm", "self_s", "s"),
    ("linalg.expm.calls", "linalg.expm", "calls", "count"),
    ("linalg.expm.self_s", "linalg.expm", "self_s", "s"),
    ("linalg.qr_econ.calls", "linalg.qr_econ", "calls", "count"),
    ("linalg.qr_econ.self_s", "linalg.qr_econ", "self_s", "s"),
    ("linalg.svd_full.calls", "linalg.svd_full", "calls", "count"),
    ("linalg.svd_full.self_s", "linalg.svd_full", "self_s", "s"),
    ("linalg.orth_complete.self_s", "linalg.orth_complete", "self_s", "s"),
    ("linalg.self_s", "linalg", "self_s", "s"),
    # log: fit_ms_* on fit_far, run_s on paper, failed_ratio; exp: eval_us_* on eval_dense.
    ("stiefel.log.calls", "stiefel.log", "calls", "count"),
    ("stiefel.log.incl_s", "stiefel.log", "incl_s", "s"),
    ("stiefel.log.self_s", "stiefel.log", "self_s", "s"),
    ("stiefel.log.ms_p50", "stiefel.log", "ms_p50", "ms"),
    ("stiefel.log.iters_mean", "stiefel.log", "iters_mean", "count"),
    ("stiefel.log.iters_max", "stiefel.log", "iters_max", "count"),
    ("stiefel.log.failed", "stiefel.log", "failed", "count"),
    ("stiefel.exp.calls", "stiefel.exp", "calls", "count"),
    ("stiefel.exp.incl_s", "stiefel.exp", "incl_s", "s"),
    ("stiefel.exp.self_s", "stiefel.exp", "self_s", "s"),
    ("stiefel.split_tangent.self_s", "stiefel.split_tangent", "self_s", "s"),
    ("stiefel.self_s", "stiefel", "self_s", "s"),
    # transport: fit_ms_* on fit_far; diff: setup_s.
    ("calculus.transport.calls", "calculus.transport", "calls", "count"),
    ("calculus.transport.incl_s", "calculus.transport", "incl_s", "s"),
    ("calculus.diff.self_s", "calculus.diff", "self_s", "s"),
    ("calculus.dexp.incl_s", "calculus.dexp", "incl_s", "s"),
    ("calculus.self_s", "calculus", "self_s", "s"),
    # fit: fit_ms_* on fit_far; eval: eval_us_* on eval_dense.
    ("interpolate.fit.calls", "interpolate.fit", "calls", "count"),
    ("interpolate.fit.incl_s", "interpolate.fit", "incl_s", "s"),
    ("interpolate.fit.self_s", "interpolate.fit", "self_s", "s"),
    ("interpolate.baseline_fit.incl_s", "interpolate.baseline_fit", "incl_s", "s"),
    ("interpolate.eval.calls", "interpolate.eval", "calls", "count"),
    ("interpolate.eval.incl_s", "interpolate.eval", "incl_s", "s"),
    ("interpolate.arc_tangent.self_s", "interpolate.arc_tangent", "self_s", "s"),
    ("interpolate.self_s", "interpolate", "self_s", "s"),
    # gen/reference: setup_s on every workload, run_s on paper.
    ("experiments.gen.incl_s", "experiments.gen", "incl_s", "s"),
    ("experiments.reference.incl_s", "experiments.reference", "incl_s", "s"),
    ("experiments.self_s", "experiments", "self_s", "s"),
)


def _public_callables(package):
    """(name, owner, attribute, function) for every public function and method.

    ``owner`` is the module or class that defines it.  Methods are the public
    ones plus ``__call__``; properties and dunders are skipped.
    """
    found = []
    for mod_name in MODULES:
        module = getattr(package, mod_name)
        full = module.__name__
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == full:
                found.append((f"{mod_name}.{attr}", module, attr, obj))
            elif inspect.isclass(obj) and obj.__module__ == full:
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                        found.append((f"{mod_name}.{attr}.{meth}", obj, meth, fn))
    return found


class _Patcher:
    """Replaces functions at every module binding and class attribute; undoable."""

    def __init__(self, package):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _namespaces(self):
        return [getattr(self.package, m) for m in MODULES if hasattr(self.package, m)]

    def replace(self, owner, attr, original, wrapper) -> None:
        if inspect.isclass(owner):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def restore(self) -> None:
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()


class Probe:
    """Start/end times (``perf_counter`` seconds) of ``fit_arc`` and curve calls.

    ``before`` runs ahead of each timed call, outside its interval, and ahead
    of every ``stiefel_log`` and ``stiefel_exp``, so that it runs often
    throughout any workload.  Times are kept in flat arrays, which add no
    objects for the garbage collector to scan.
    """

    def __init__(self, package, before=lambda: None):
        self.fit_starts, self.fit_ends = array("d"), array("d")
        self.eval_starts, self.eval_ends = array("d"), array("d")
        self._before = before
        self._patcher = _Patcher(package)
        self._package = package

    def _timed(self, fn, starts, ends):
        before = self._before

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            before()
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            ends.append(perf_counter())
            starts.append(t0)
            return out

        return timed

    def _preceded(self, fn):
        before = self._before

        @functools.wraps(fn)
        def preceded(*args, **kwargs):
            before()
            return fn(*args, **kwargs)

        return preceded

    def install(self) -> None:
        interp = self._package.interpolate
        fit = getattr(interp, "fit_arc", None)
        if fit is not None:
            self._patcher.replace(interp, "fit_arc", fit, self._timed(fit, self.fit_starts, self.fit_ends))
        for cls_name in CURVE_CLASSES:
            cls = getattr(interp, cls_name, None)
            if cls is not None and "__call__" in vars(cls):
                call = vars(cls)["__call__"]
                self._patcher.replace(cls, "__call__", call, self._timed(call, self.eval_starts, self.eval_ends))
        geo = self._package.stiefel
        for name in ("stiefel_log", "stiefel_exp"):
            fn = getattr(geo, name, None)
            if fn is not None:
                self._patcher.replace(geo, name, fn, self._preceded(fn))

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    """Spans of every public library call, kept in flat arrays.

    Span i has ``names[i]`` (index into ``self.names``), ``parents[i]`` (span
    id or -1), ``starts[i]``/``ends[i]`` in ns, ``runs[i]`` (the run id set
    with ``run_id``) and ``oks[i]`` (0 if the call raised).
    """

    def __init__(self, package):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.runs = array("i")
        self.oks = array("b")
        self.run_id = 0
        self._stack = [-1]
        self._self_ns: array | None = None
        self._patcher = _Patcher(package)
        self._package = package

    def _wrap(self, fn, idx: int):
        name_ids, parents, starts, ends, runs, oks = (
            self.name_ids, self.parents, self.starts, self.ends, self.runs, self.oks
        )
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(idx)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            oks.append(0)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
                oks[sid] = 1
                return out
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owner, attr, fn in _public_callables(self._package):
            if name not in self.names:
                self.names.append(name)
            self._patcher.replace(owner, attr, fn, self._wrap(fn, self.names.index(name)))

    def uninstall(self) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def spans(self, run_ids) -> list[int]:
        wanted = set(run_ids)
        return [i for i, r in enumerate(self.runs) if r in wanted]

    def self_times(self) -> array:
        """Self time of every span in ns: its duration minus its children's.

        Computed once, after tracing has ended.
        """
        if self._self_ns is None or len(self._self_ns) != len(self.starts):
            child = array("q", bytes(8 * len(self.starts)))
            for i, p in enumerate(self.parents):
                if p >= 0:
                    child[p] += self.ends[i] - self.starts[i]
            self._self_ns = array(
                "q", (self.ends[i] - self.starts[i] - child[i] for i in range(len(child)))
            )
        return self._self_ns

    def layer_stats(self, run_ids) -> dict[str, dict[str, float]]:
        """Stats of every op in OPS and every module over the given runs.

        Ops whose functions do not exist in the installed library are
        omitted, so renamed or removed functions drop their rows.
        """
        ids = self.spans(run_ids)
        self_ns = self.self_times()
        by_name: dict[int, list[int]] = {}
        for i in ids:
            by_name.setdefault(self.name_ids[i], []).append(i)
        op_members = {
            op: {k for k, n in enumerate(self.names) if any(fnmatch.fnmatchcase(n, p) for p in pats)}
            for op, pats in OPS.items()
        }
        stats: dict[str, dict[str, float]] = {}
        for op, members in op_members.items():
            if not members:
                continue
            mine = sorted(i for k in members for i in by_name.get(k, ()))
            outer = [i for i in mine if self._nearest_ancestor_in(i, members) < 0]
            stats[op] = {
                "calls": float(len(mine)),
                "incl_s": sum(self.ends[i] - self.starts[i] for i in outer) * 1e-9,
                "self_s": sum(self_ns[i] for i in mine) * 1e-9,
                "failed": float(sum(1 for i in mine if not self.oks[i])),
            }
            if mine:
                durs = sorted((self.ends[i] - self.starts[i]) * 1e-6 for i in mine)
                stats[op]["ms_p50"] = durs[len(durs) // 2]
        log_ids = op_members.get("stiefel.log", set())
        logm_ids = op_members.get("linalg.logm", set())
        if "stiefel.log" in stats and logm_ids:
            iters = {i: 0 for k in log_ids for i in by_name.get(k, ())}
            for k in logm_ids:
                for i in by_name.get(k, ()):
                    owner = self._nearest_ancestor_in(i, log_ids)
                    if owner in iters:
                        iters[owner] += 1
            counts = list(iters.values()) or [0]
            stats["stiefel.log"]["iters_mean"] = sum(counts) / len(counts)
            stats["stiefel.log"]["iters_max"] = float(max(counts))
        for mod in MODULES:
            prefix = mod + "."
            stats[mod] = {
                "self_s": sum(
                    self_ns[i] for k, spans in by_name.items()
                    if self.names[k].startswith(prefix) for i in spans
                ) * 1e-9
            }
        return stats

    def _nearest_ancestor_in(self, i: int, members: set[int]) -> int:
        p = self.parents[i]
        while p >= 0:
            if self.name_ids[p] in members:
                return p
            p = self.parents[p]
        return -1

    def root_ns(self, run_ids) -> int:
        """Summed duration of the outermost spans, i.e. the traced self time of all layers."""
        return sum(self.ends[i] - self.starts[i] for i in self.spans(run_ids) if self.parents[i] < 0)

    def dump(self, path, **extra) -> None:
        """Write the spans as columns of a NumPy ``.npz`` archive, plus ``extra``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            run=np.frombuffer(self.runs, dtype=np.int32),
            ok=np.frombuffer(self.oks, dtype=np.int8),
            **{k: np.array(v) for k, v in extra.items()},
        )


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The LAYER_METRICS rows that ``stats`` can fill, as name -> (value, unit)."""
    out = {}
    for metric, op, stat, unit in LAYER_METRICS:
        if op in stats and stat in stats[op]:
            out[metric] = (stats[op][stat], unit)
    return out
