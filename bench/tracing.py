"""Outside-in layer spans: the library's public functions are wrapped from
here, never edited.

Every binding of a wrapped function in any loaded ``mmsdist`` module is
replaced while the tracer is installed, so calls between modules
(``from .coupling import prokhorov_distance``) are caught as well as calls
from the benchmark.  A span records (name, start, end, parent, task).
``min_vertex_cover`` runs up to ~10^5 times per task, so it is not stored
per call: its calls, time and ``None`` results are summed into the span
that called it.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

# span fields
NAME, START, END, PARENT, TASK, COVERED, EXTRA = range(7)

LEAF = "matmetric.min_vertex_cover"


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _dpi_name(args, kwargs):
    mode = _arg(args, kwargs, 2, "mode", "exact")
    return "matmetric.dpi_heuristic" if mode == "heuristic" else "matmetric.dpi_exact"


def _prokhorov_name(args, kwargs):
    exact = _arg(args, kwargs, 4, "exact", False)
    return "coupling.prokhorov_exact" if exact else "coupling.prokhorov_float"


def _ghp_name(args, kwargs):
    return "ghp.upper_bound." + _arg(args, kwargs, 2, "strategy", "permutation")


def _levels(args, kwargs, result):
    return {"levels": int(np.unique(np.asarray(_arg(args, kwargs, 2, "dist", None))).size)}


# (module, function names, span name or namer, counter on (args, kwargs, result))
WRAPPED = [
    ("matmetric", ["dm_distance"], "matmetric.dm_distance", None),
    ("matmetric", ["dpi_distance"], _dpi_name, None),
    ("coupling", ["prokhorov_distance"], _prokhorov_name, _levels),
    ("coupling", ["delta_of_coupling"], "coupling.delta_of_coupling", None),
    ("coupling", ["epsilon_matching"], "coupling.epsilon_matching", None),
    ("coupling", ["birkhoff_decompose"], "coupling.birkhoff_decompose", lambda a, k, r: {"terms": r.size}),
    ("ghp", ["ghp_upper_bound"], _ghp_name, None),
    ("ghp", ["ghp_bounds_uniform"], "ghp.bounds_uniform", None),
    ("ghp", ["best_ghp_upper_bound"], "ghp.best_upper_bound", None),
    ("sampling", ["enumerate_matrix_ensemble"], "sampling.enumerate_matrix_ensemble", lambda a, k, r: {"atoms": r.size}),
    ("sampling", ["sample_indices"], "sampling.sample_indices", None),
    (
        "experiments",
        ["check_finspc_sandwich", "check_hoelder_small_n", "check_sharp_exponent",
         "check_sampling_convergence", "check_group_invariance"],
        "experiments.check",
        None,
    ),
    ("cli", ["main"], "cli.main", None),
    ("fileio", ["read_matrix", "read_mms", "read_mass_vector", "read_model_space"], "fileio.read", None),
]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.task = -1
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][COVERED] += rec[END] - rec[START]

    @staticmethod
    def _count(rec, counts):
        if rec[EXTRA] is None:
            rec[EXTRA] = {}
        rec[EXTRA].update(counts)

    def _wrap(self, fn, name, counter, rejects):
        namer = name if callable(name) else (lambda a, k: name)

        def wrapper(*args, **kwargs):
            rec = self.open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except rejects:
                self._count(rec, {"rejected": 1})
                raise
            finally:
                self.close(rec)
            if counter is not None:
                self._count(rec, counter(args, kwargs, result))
            return result

        return wrapper

    def _wrap_leaf(self, fn):
        spans, stack = self.spans, self.stack

        def leaf(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = spans[stack[-1]]
            parent[COVERED] += dt
            if parent[EXTRA] is None:
                parent[EXTRA] = {}
            agg = parent[EXTRA].get(LEAF)
            if agg is None:
                agg = parent[EXTRA][LEAF] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += result is None
            return result

        return leaf

    # -- installation --------------------------------------------------------

    def install(self, lib) -> None:
        rejects = (lib.M.StrategyError, lib.M.GluingError)
        swaps = {}
        for mod, names, name, counter in WRAPPED:
            module = sys.modules[f"mmsdist.{mod}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                swaps[id(fn)] = (fn, self._wrap(fn, name, counter, rejects))
        mvc = sys.modules["mmsdist.matmetric"].min_vertex_cover
        swaps[id(mvc)] = (mvc, self._wrap_leaf(mvc))
        for modname, module in list(sys.modules.items()):
            if modname != "mmsdist" and not modname.startswith("mmsdist."):
                continue
            for attr, value in list(vars(module).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

COUNTED = {
    "matmetric.dm_distance": (),
    "matmetric.dpi_exact": ("total_s",),
    "matmetric.dpi_heuristic": ("total_s",),
    "coupling.prokhorov_float": ("levels",),
    "coupling.prokhorov_exact": ("levels",),
    "coupling.delta_of_coupling": (),
    "coupling.epsilon_matching": (),
    "coupling.birkhoff_decompose": ("terms",),
    "ghp.upper_bound.permutation": ("reject_frac",),
    "ghp.upper_bound.identify": ("reject_frac",),
    "ghp.upper_bound.net": ("reject_frac",),
    "ghp.bounds_uniform": (),
    "ghp.best_upper_bound": (),
    "sampling.enumerate_matrix_ensemble": ("atoms",),
    "sampling.sample_indices": (),
    "experiments.check": (),
    "cli.main": (),
    "fileio.read": (),
}


def per_layer(spans) -> dict:
    """Per-layer metrics: calls, self time (span minus the spans and leaf
    calls inside it) and the layer's own counts.  Idle layers report 0."""
    acc = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "levels": 0, "terms": 0, "atoms": 0, "rejected": 0}
           for name in list(COUNTED) + ["task"]}
    leaf = {"calls": 0, "self_s": 0.0, "none": 0}
    for rec in spans:
        a = acc[rec[NAME]]
        dur = rec[END] - rec[START]
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += dur - rec[COVERED]
        extra = rec[EXTRA]
        if extra:
            for key, val in extra.items():
                if key == LEAF:
                    leaf["calls"] += val[0]
                    leaf["self_s"] += val[1]
                    leaf["none"] += val[2]
                else:
                    a[key] += val
    out = {
        f"{LEAF}.calls": (leaf["calls"], "count"),
        f"{LEAF}.self_s": (leaf["self_s"], "s"),
        f"{LEAF}.none_frac": (leaf["none"] / leaf["calls"] if leaf["calls"] else 0.0, "ratio"),
    }
    for name, extras in COUNTED.items():
        a = acc[name]
        out[f"{name}.calls"] = (a["calls"], "count")
        out[f"{name}.self_s"] = (a["self_s"], "s")
        for key in extras:
            if key == "reject_frac":
                out[f"{name}.reject_frac"] = (a["rejected"] / a["calls"] if a["calls"] else 0.0, "ratio")
            elif key == "total_s":
                out[f"{name}.total_s"] = (a["total_s"], "s")
            else:
                out[f"{name}.{key}"] = (a[key], "count")
    return out


def layer_shares(spans) -> dict:
    """Share of traced task time spent as self time in each module; the
    ``bench`` share is task time outside every wrapped function."""
    self_by_module: dict = {}
    total = 0.0
    for rec in spans:
        dur = rec[END] - rec[START]
        own = dur - rec[COVERED]
        if rec[NAME] == "task":
            total += dur
            module = "bench"
        else:
            module = rec[NAME].split(".")[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own
        if rec[EXTRA] and LEAF in rec[EXTRA]:
            self_by_module["matmetric"] = self_by_module.get("matmetric", 0.0) + rec[EXTRA][LEAF][1]
    return {m: round(t / total, 4) for m, t in sorted(self_by_module.items())} if total else {}
