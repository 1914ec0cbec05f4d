"""Spans around curvelab's public functions, installed from outside the package.

`Tracer.install()` replaces each function in WRAPPED by a wrapper that records
a span (name, start, end, parent).  The wrapper goes on the module attribute
and on every other curvelab module global bound to the same function, the
names `curvelab.cli` imported included, so calls between modules are seen
too.  `ExperimentReport.to_csv`/`to_json` are wrapped as `report.write`, and
`cli.main`, the whole invocation, as `cli.subcommand`: its self time is
everything a subcommand does outside the wrapped calls.

Time in a helper that is not wrapped counts toward its caller's self time.
Spans are kept in memory in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# the functions behind the per-layer metrics in BENCHMARK.json
WRAPPED = {
    "tiling": ["whitney_decompose", "whitney_properties", "whitney_pair_properties", "greedy_tree_selection", "tree_size"],
    "signals": ["maximal_p", "hl_maximal"],
    "oscillatory": ["oscillatory_integral", "sublevel_check", "dk_norm", "inverse_function", "inverse_derivatives"],
    "operators": ["apply_Tj", "apply_M", "multiplier_Mmn"],
    "polynomials": ["level_set_measure", "real_roots_with_orders"],
    "scales": ["classify_scales"],
    "sharpness": ["endpoint_scaling_experiment", "rootorder_scaling_experiment"],
    "cli": ["fd_inverse_derivative"],
}

# work counts read off a function's result: name -> (count name, size of result)
WORK_COUNTS = {
    "tiling.whitney_decompose": ("cells", len),
    "tiling.greedy_tree_selection": ("trees", lambda out: len(out[0])),
}


def _osc_name(args, kwargs):
    """oscillatory_integral spans split by component: (1/2, 2) holds the
    stationary point on phase-ladder, (-2, -1/2) does not."""
    interval = kwargs.get("interval", args[3] if len(args) > 3 else None)
    lo = float(interval[0]) if interval is not None else float(args[1].domain[0])
    suffix = "stationary" if lo >= 0.0 else "no_stationary"
    return f"oscillatory.oscillatory_integral.{suffix}"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack = [-1]
        self._restore: list = []

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name, namer=None, counter=None):
        tracer = self
        fixed_id = None if namer else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if namer is None else tracer._id(namer(args, kwargs))
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                key, size = counter
                tracer.counts[key] = tracer.counts.get(key, 0) + size(out)
            return out

        return wrapper

    def install(self):
        """Wrap every function in WRAPPED, `cli.main` and the report writers."""
        import curvelab
        import curvelab.cli
        from curvelab.report import ExperimentReport

        modules = [m for k, m in sys.modules.items() if k == "curvelab" or k.startswith("curvelab.")]
        for mod_name, fn_names in WRAPPED.items():
            mod = sys.modules[f"curvelab.{mod_name}"]
            for fn_name in fn_names:
                orig = getattr(mod, fn_name)
                name = f"{mod_name}.{fn_name}"
                namer = _osc_name if name == "oscillatory.oscillatory_integral" else None
                counter = None
                if name in WORK_COUNTS:
                    count_name, size = WORK_COUNTS[name]
                    counter = (f"{name}.{count_name}", size)
                wrapped = self._wrap(orig, name, namer, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        for meth in ("to_csv", "to_json"):
            orig = getattr(ExperimentReport, meth)
            self._restore.append((ExperimentReport, meth, orig))
            setattr(ExperimentReport, meth, self._wrap(orig, "report.write"))
        self._restore.append((curvelab.cli, "main", curvelab.cli.main))
        curvelab.cli.main = self._wrap(curvelab.cli.main, "cli.subcommand")

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def reset(self):
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def summary(self):
        """Per span name: total self time, total time and calls."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.name_id[i]], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            rec["self_s"] += dur[i] - child[i]
            rec["total_s"] += dur[i]
            rec["calls"] += 1
        return out

    def write_spans(self, path, offset=0):
        """Append spans as CSV rows: index, name, start, end, parent."""
        with open(path, "a") as fh:
            for i in range(len(self.start)):
                p = self.parent[i]
                fh.write(
                    f"{i + offset},{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{p + offset if p >= 0 else -1}\n"
                )
        return offset + len(self.start)
