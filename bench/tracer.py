"""Spans around the public functions of the ``wiretap`` modules, from outside.

``Tracer.install`` replaces every public function defined in a ``wiretap``
module, apart from three per-word helpers (PER_WORD), by a wrapper, in every ``wiretap`` namespace that refers to it
(``baselines`` imports ``equivocation_rate`` by name, the package
re-exports everything), so calls between modules pass through the
wrappers too.  Each call records a span: function, start, end and the
span that was open when it began.  A generator function gets one span
per resumption, so ``sample_binning`` is timed while it is consumed.
Spans stay in memory until ``layer_metrics`` and ``save`` run.
"""

import functools
import inspect
import json
import time
import types
from array import array

import numpy as np

# metric -> (kind, span names or a "module." prefix, unit).  "time" sums
# the outermost spans of the names, "self" sums span time minus the time
# of child spans, "calls" counts spans and "rows" sums the lengths of the
# arrays the named functions return.
LAYER_METRICS = {
    "lp_limit.solve_s": ("time", ["lp_limit.solve_lp"], "s"),
    "lp_limit.solves": ("calls", ["lp_limit.solve_lp"], "count"),
    "lp_limit.rows_s": ("time", ["lp_limit.enumerate_rows"], "s"),
    "lp_limit.rows": ("rows", ["lp_limit.enumerate_rows"], "count"),
    "lp_limit.build_s": ("self", ["lp_limit.build_lp"], "s"),
    "equivocation.total_s": ("time", ["equivocation.total_equivocation"], "s"),
    "equivocation.total_calls": ("calls", ["equivocation.total_equivocation"], "count"),
    "equivocation.linear_s": ("time", ["equivocation.total_equivocation_linear"], "s"),
    "equivocation.profile_calls": ("calls", ["equivocation.distance_profile"], "count"),
    "bitcore.validate_s": ("time", ["bitcore.validate_table"], "s"),
    "bitcore.validate_calls": ("calls", ["bitcore.validate_table"], "count"),
    "bitcore.parse_s": ("time", ["bitcore.parse_table"], "s"),
    "bitcore.format_s": ("time", ["bitcore.format_table"], "s"),
    "ni_code.build_s": ("time", ["ni_code.standard_table", "ni_code.closed_form_table"], "s"),
    "baselines.sample_s": ("time", ["baselines.sample_binning"], "s"),
    "baselines.compare_self_s": ("self", ["baselines.compare_form"], "s"),
    "cli.self_s": ("self", "cli.", "s"),
}

ROW_COUNTED = {names[0] for kind, names, _ in LAYER_METRICS.values() if kind == "rows"}

# Called once per word: 2**20 times for each text round trip at n = 20.
# Wrapped, they would double the traced time of format_table and
# parse_table, so they stay unwrapped and their time counts in the caller.
PER_WORD = {"bitcore.word_str", "bitcore.parse_word", "bitcore.hamming_distance"}


class Tracer:
    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = {}
        self._stack = [-1]

    def _open(self, sid):
        idx = len(self.start)
        self.fn.append(sid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        sid = len(self.names)
        self.names.append(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return resumed

        counts_rows = name in ROW_COUNTED

        @functools.wraps(fn)
        def called(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts_rows:
                tracer.rows[name] = tracer.rows.get(name, 0) + len(result)
            return result

        return called

    def install(self, package):
        """Wrap the public functions of every loaded module of `package`."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for m in vars(package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                short = obj.__module__[len(prefix):] + "." + obj.__name__
                if short in PER_WORD:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, short)
                setattr(mod, attr, wrappers[obj])
        return len(wrappers)

    def _arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return fn, parent, dur, dur - child

    def _selected(self, fn, names):
        if isinstance(names, str):
            ids = [i for i, nm in enumerate(self.names) if nm.startswith(names)]
        else:
            ids = [i for i, nm in enumerate(self.names) if nm in names]
        return np.isin(fn, ids)

    def layer_metrics(self):
        """Every metric of LAYER_METRICS; 0 for a layer the run never reached."""
        fn, parent, dur, self_time = self._arrays()
        out = {}
        for metric, (kind, names, _) in LAYER_METRICS.items():
            sel = self._selected(fn, names)
            if kind == "calls":
                value = int(sel.sum())
            elif kind == "rows":
                value = sum(self.rows.get(nm, 0) for nm in names)
            elif kind == "self":
                value = float(self_time[sel].sum())
            else:
                value = float(dur[sel & ~self._nested_in(sel, parent)].sum())
            out[metric] = value
        return out

    @staticmethod
    def _nested_in(sel, parent):
        # True where some ancestor span is also selected
        nested = np.zeros(len(sel), dtype=bool)
        up = parent.copy()
        while (up >= 0).any():
            live = up >= 0
            nested[live] |= sel[up[live]]
            up[live] = parent[up[live]]
        return nested

    def save(self, stem):
        """Write the raw spans (npz) and per-function totals (json) next to `stem`."""
        fn, parent, dur, self_time = self._arrays()
        np.savez(str(stem) + ".npz", fn=fn, parent=parent,
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))
        summary = {}
        for sid, name in enumerate(self.names):
            sel = fn == sid
            if sel.any():
                summary[name] = {"spans": int(sel.sum()), "time_s": float(dur[sel].sum()),
                                 "self_s": float(self_time[sel].sum())}
        with open(str(stem) + ".json", "w") as fh:
            json.dump({"names": self.names, "functions": summary}, fh, indent=1)
