"""Outside-in layer tracing for the frobex benchmark.

``LayerTrace.installed()`` wraps the public functions of frobex's layers
(groebner, frobenius, filterreg, localcoh, linalg and the process pools) for
the length of a ``with`` block.  A name imported with ``from .groebner import
colon`` is a separate binding in the importing module, so each wrapper
replaces the original in every loaded ``frobex`` module that binds it, and
the originals are put back on exit.  Nothing in the program changes.

Spans (name, start, end, parent) are kept in memory; counts are read at the
same boundaries, from arguments and results (``buchberger_basis`` returns its
``GBStats``).  Counts repeat exactly for a fixed input; timings do not, so the
two are reported apart.  Pool workers run untraced: only the pool itself is
measured, by wall time and by the CPU of its reaped workers.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import sys
import time
from collections import defaultdict

import numpy as np

_PREFIX = "frobex"

# (module, attribute) -> span name; every call becomes a span
SPANNED = {
    ("groebner", "buchberger_basis"): "groebner.gb",
    ("groebner", "colon"): "groebner.colon",
    ("groebner", "saturation"): "groebner.saturation",
    ("groebner", "intersect"): "groebner.intersect",
    ("frobenius", "qpower_preimage"): "frobenius.preimage",
    ("frobenius", "frobenius_closure"): "frobenius.closure",
    ("filterreg", "random_filter_regular_sop"): "filterreg.sop",
    ("filterreg", "is_filter_regular_sequence"): "filterreg.verify",
    ("localcoh", "torsion_quotient"): "localcoh.torsion",
    ("localcoh", "limit_system"): "localcoh.limit_system",
    ("localcoh", "nilpotent_part"): "localcoh.nilpotent",
    ("localcoh", "hsl_estimate"): "localcoh.hsl",
    ("localcoh", "verify_inequality"): "localcoh.mechanism",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "matmul"): "linalg.matmul",
}

# work counts: exact for a fixed input, compared between traced passes
COUNTS = (
    "groebner.gb_calls", "groebner.pairs_popped", "groebner.zero_reductions",
    "groebner.pairs_max", "groebner.basis_size_max", "groebner.degree_max",
    "groebner.handle_gb_calls", "groebner.nf_calls",
    "groebner.colon_calls", "groebner.saturation_calls",
    "groebner.saturation_steps", "groebner.intersect_calls",
    "frobenius.preimage_calls", "frobenius.preimage_pairs",
    "frobenius.closure_calls", "frobenius.closure_levels",
    "filterreg.sop_calls", "filterreg.verify_calls",
    "localcoh.torsion_calls",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.matmul_calls",
    "linalg.object_fallbacks",
    "pool.calls", "pool.tasks",
)

_INT64_GUARD = 2**62  # frobex.linalg.matmul falls back to object dtype here


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class LayerTrace:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.headroom = 1.0
        self.pool_wall = 0.0
        self.pool_capacity = 0.0  # sum of jobs x pool wall
        self.pool_child_cpu = 0.0

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def times(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds (outermost spans of that name
        only, so recursion is not counted twice), self seconds (duration
        minus the time direct children cover) and the longest span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"incl": 0.0, "self": 0.0, "max": 0.0})
            dur = end - start
            row["self"] += dur - covered[i]
            row["max"] = max(row["max"], dur)
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["incl"] += dur
        return out

    # -- counts read at the boundaries --------------------------------

    def _after(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        calls = name + "_calls"
        if calls in c:
            c[calls] += 1
        if name == "groebner.saturation":
            c["groebner.saturation_steps"] += result[1]
        elif name == "frobenius.closure":
            c["frobenius.closure_levels"] += result.levels_computed
        elif name == "linalg.rref":
            c["linalg.rref_cells"] += int(np.size(args[0]))
        elif name == "linalg.matmul":
            a = args[0]
            p = args[2] if len(args) > 2 else kwargs["p"]
            inner = a.shape[1] if a.ndim == 2 else a.shape[0]
            if inner * (p - 1) ** 2 >= _INT64_GUARD:
                c["linalg.object_fallbacks"] += 1

    def _gb_done(self, stats, config) -> None:
        c = self.counts
        c["groebner.gb_calls"] += 1
        c["groebner.pairs_popped"] += stats.pairs_processed
        c["groebner.zero_reductions"] += stats.zero_reductions
        c["groebner.pairs_max"] = max(c["groebner.pairs_max"], stats.pairs_processed)
        c["groebner.basis_size_max"] = max(c["groebner.basis_size_max"], stats.basis_size)
        c["groebner.degree_max"] = max(c["groebner.degree_max"], stats.max_degree_seen)
        if self._open["frobenius.preimage"]:
            c["frobenius.preimage_pairs"] += stats.pairs_processed
        self.headroom = min(self.headroom, 1 - stats.pairs_processed / config.max_pairs)

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            self._after(name, args, kwargs, result)
            return result
        return traced

    def _gb_wrapper(self, fn, default_config, cap_error):
        @functools.wraps(fn)
        def traced(polys, order, p, config=default_config):
            idx = self._enter("groebner.gb")
            try:
                basis, stats = fn(polys, order, p, config)
            except cap_error as exc:
                self._gb_done(exc.stats, config)
                raise
            finally:
                self._exit(idx)
            self._gb_done(stats, config)
            return basis, stats
        return traced

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _pool_class(self, base):
        trace = self

        class TracedPool(base):
            """The program's process pool, timed and counted from outside."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._jobs = max_workers or 1

            def __enter__(self):
                trace.counts["pool.calls"] += 1
                self._t0 = time.perf_counter()
                self._cpu0 = _children_cpu()
                return super().__enter__()

            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                trace.counts["pool.tasks"] += len(items[0]) if items else 0
                return super().map(fn, *items, **kwargs)

            def __exit__(self, *exc):
                out = super().__exit__(*exc)  # joins, so workers are reaped
                wall = time.perf_counter() - self._t0
                trace.pool_wall += wall
                trace.pool_capacity += self._jobs * wall
                trace.pool_child_cpu += _children_cpu() - self._cpu0
                return out

        return TracedPool

    def _replacements(self):
        """(original, wrapper) pairs for every traced name."""
        mods = {name: sys.modules[f"{_PREFIX}.{name}"]
                for name in ("groebner", "frobenius", "filterreg", "localcoh",
                             "linalg")}
        groebner = mods["groebner"]
        out = []
        for (mod, attr), span in SPANNED.items():
            fn = getattr(mods[mod], attr)
            if span == "groebner.gb":
                wrapper = self._gb_wrapper(fn, groebner.DEFAULT_GB_CONFIG,
                                           groebner.ResourceCapExceeded)
            else:
                wrapper = self._span_wrapper(span, fn)
            out.append((fn, wrapper))
        pool = mods["frobenius"].ProcessPoolExecutor
        out.append((pool, self._pool_class(pool)))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in at every binding site, and back out on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            swaps = {id(orig): wrapper for orig, wrapper in self._replacements()}
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == _PREFIX or name.startswith(_PREFIX + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    wrapper = swaps.get(id(value))
                    if wrapper is not None:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            handle = sys.modules[f"{_PREFIX}.groebner"].IdealHandle
            for attr, key in (("groebner_basis", "groebner.handle_gb_calls"),
                              ("normal_form", "groebner.nf_calls")):
                orig = handle.__dict__[attr]
                undo.append((handle, attr, orig))
                setattr(handle, attr, self._count_wrapper(key, orig))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def layer_metrics(trace: LayerTrace) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c = trace.counts
    t = trace.times()

    def incl(name):
        return t.get(name, {}).get("incl", 0.0)

    def own(name):
        return t.get(name, {}).get("self", 0.0)

    popped = c["groebner.pairs_popped"]
    handle_calls = c["groebner.handle_gb_calls"]
    m: dict[str, tuple[float, str]] = {k: (c[k], "count") for k in COUNTS
                                       if k != "groebner.handle_gb_calls"}
    m.update({
        "groebner.gb_s": (own("groebner.gb"), "s"),
        "groebner.zero_reduction_frac": (c["groebner.zero_reductions"] / popped
                                         if popped else 0.0, "ratio"),
        "groebner.cap_headroom": (trace.headroom, "ratio"),
        "groebner.gb_cache_hit_frac": (1 - c["groebner.gb_calls"] / handle_calls
                                       if handle_calls else 0.0, "ratio"),
        "groebner.colon_s": (incl("groebner.colon"), "s"),
        "groebner.saturation_s": (incl("groebner.saturation"), "s"),
        "groebner.intersect_s": (incl("groebner.intersect"), "s"),
        "frobenius.preimage_s": (incl("frobenius.preimage"), "s"),
        "frobenius.closure_s_max": (t.get("frobenius.closure", {}).get("max", 0.0), "s"),
        "filterreg.sop_s": (incl("filterreg.sop"), "s"),
        "filterreg.verify_s": (incl("filterreg.verify"), "s"),
        "localcoh.torsion_s": (own("localcoh.torsion"), "s"),
        "localcoh.limit_system_s": (own("localcoh.limit_system"), "s"),
        "localcoh.nilpotent_s": (incl("localcoh.nilpotent"), "s"),
        "localcoh.hsl_s": (incl("localcoh.hsl"), "s"),
        "localcoh.mechanism_s": (incl("localcoh.mechanism"), "s"),
        "linalg.rref_s": (incl("linalg.rref"), "s"),
        "linalg.matmul_s": (incl("linalg.matmul"), "s"),
        "pool.wall_s": (trace.pool_wall, "s"),
        "pool.child_cpu_s": (trace.pool_child_cpu, "s"),
        "pool.efficiency": (trace.pool_child_cpu / trace.pool_capacity
                            if trace.pool_capacity else 0.0, "ratio"),
    })
    return m
