"""Per-layer tracing for the untimed traced pass.

:func:`install` wraps the public functions of each layer -- the
modules under ``src/repro`` -- in timing wrappers owned by a
:class:`Tracer`.  Nothing under ``src/`` is edited: the wrappers are
installed by rebinding the function (or method) in its defining module
or class and in every already-imported ``repro`` module that bound it
by name.

Every wrapped call is a span: name, start, end, the span that caused
it, and the workload task (figure cell, verify/synth case, campaign
job) it ran under.  Calls of coarse functions (builds, simulator
construction and runs, explorations, searches, campaign calls) are
kept as individual spans in memory until the pass ends.  Calls of the
hot functions -- one per simulated core tick, memory access,
store-buffer scan or scope-tracker update, millions per pass -- are
folded into per-(task, name) call counts and busy/self times instead,
so the trace stays bounded.  A span's self time is its duration minus
the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: (module, qualified name, layer group, hot) for every wrapped function
TARGETS = (
    ("repro.runtime.lang", "Env.__init__", "runtime.build", False),
    ("repro.apps.pst", "build_pst", "runtime.build", False),
    ("repro.apps.ptc", "build_ptc", "runtime.build", False),
    ("repro.apps.barnes", "build_barnes", "runtime.build", False),
    ("repro.apps.radiosity", "build_radiosity", "runtime.build", False),
    ("repro.apps.cilk_fib", "build_cilk_fib", "runtime.build", False),
    ("repro.litmus.dsl", "build_program", "runtime.build", False),
    ("repro.litmus.dsl", "parse_litmus", "litmus.parse", False),
    ("repro.litmus.dsl", "run_litmus", "litmus.run", False),
    ("repro.sim.simulator", "Simulator.__init__", "sim.init", False),
    ("repro.sim.simulator", "Simulator.run", "sim.run", False),
    ("repro.cpu.core", "Core.tick", "cpu.tick", True),
    ("repro.cpu.core", "Core.tick_compiled", "cpu.tick", True),
    ("repro.cpu.store_buffer", "StoreBuffer.next_issuable", "cpu.sb_scan", True),
    ("repro.mem.backend", "create_backend", "mem.backend_build", False),
    ("repro.verify.explorer", "explore_allowed_outcomes", "verify.explore", False),
    ("repro.core.semantics", "reference_allowed_outcomes", "verify.explore", False),
    ("repro.synth.search", "synthesize", "synth.search", False),
    ("repro.synth.cost", "placement_cycles", "synth.probe", False),
    ("repro.campaign.jobs", "execute_job", "campaign.job", False),
    ("repro.campaign.engine", "run_campaign", "campaign.run", False),
    ("repro.campaign.cache", "ResultCache.get", "campaign.cache_get", False),
    ("repro.campaign.cache", "ResultCache.put", "campaign.cache_put", False),
    ("repro.campaign.cache", "ResultCache.put_many", "campaign.cache_put", False),
)

#: coherence-backend methods, wrapped on every class that defines them
BACKEND_CLASSES = (
    ("repro.mem.backend", "CoherenceBackend"),
    ("repro.mem.hierarchy", "MemoryHierarchy"),
    ("repro.mem.sisd", "SiSdHierarchy"),
)
BACKEND_METHODS = {
    "access": "mem.access",
    "load_timed": "mem.access",
    "access_batch": "mem.access",
    "completion_cycle": "mem.access",
    "fence": "mem.sync",
    "warm": "mem.warm",
}

#: the layers, in report order (``bench`` is the benchmark's own code
#: plus everything not inside a wrapped call)
LAYERS = ("runtime", "litmus", "sim", "cpu", "core", "mem", "verify",
          "synth", "campaign", "bench")


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self._stack: list[list] = []       # open frames: [child_s, span id]
        self._ids = 0
        #: closed coarse spans: (id, name, start, end, parent id, task)
        self.spans: list[tuple] = []
        #: task -> name -> [calls, busy_s, self_s]
        self.tasks: dict[str, dict[str, list]] = {}
        self.groups: dict[str, str] = {}    # span name -> layer group
        self.transitions = 0
        self.interleavings = 0
        self.task = ""
        self._cur: dict[str, list] = self.tasks.setdefault("", {})

    def begin_task(self, label: str) -> None:
        self.task = label
        self._cur = self.tasks.setdefault(label, {})

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        dur = t1 - t0
        stack = self._stack
        if stack:
            stack[-1][0] += dur
        rec = self._cur.get(name)
        if rec is None:
            rec = self._cur[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]
        if frame[1] is not None:
            parent = stack[-1][1] if stack else None
            self.spans.append((frame[1], name, t0, t1, parent, self.task))

    def wrap(self, fn, name: str, group: str, hot: bool, on_result=None):
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        self.groups[name] = group
        stack = self._stack
        close = self._close
        perf = time.perf_counter

        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    close(name, frame, t0, t1)
            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._ids += 1
            frame = [0.0, self._ids]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                close(name, frame, t0, t1)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    @contextmanager
    def region(self, name: str, group: str = "bench"):
        """A span around the benchmark's own code (not a layer call)."""
        self.groups[name] = group
        self._ids += 1
        frame = [0.0, self._ids]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(name, frame, t0, t1)

    def _on_exploration(self, exploration) -> None:
        self.transitions += exploration.transitions
        self.interleavings += exploration.interleavings

    # ------------------------------------------------------------ reductions
    def totals(self) -> dict[str, list]:
        """name -> [calls, busy_s, self_s] summed over tasks."""
        out: dict[str, list] = {}
        for names in self.tasks.values():
            for name, (calls, busy, own) in names.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += own
        return out

    def _group(self, totals, group: str, field: int) -> float:
        return sum(rec[field] for name, rec in totals.items()
                   if self.groups.get(name) == group)

    def layer_breakdown(self) -> dict[str, dict[str, float]]:
        """task -> layer -> self seconds (the per-task report)."""
        out = {}
        for task, names in self.tasks.items():
            if not names:
                continue
            row = dict.fromkeys(LAYERS, 0.0)
            for name, (_calls, _busy, own) in names.items():
                layer = self.groups.get(name, "bench").split(".")[0]
                row[layer] += own
            out[task or "(outside tasks)"] = {
                k: round(v, 6) for k, v in row.items()}
        return out

    def metrics(self, core_cycles: int, memo_blocks: int,
                campaign: dict) -> dict[str, float]:
        """Every per-layer metric of this pass, in report order."""
        t = self.totals()

        def calls(group):
            return self._group(t, group, 0)

        def own(group):
            return self._group(t, group, 2)

        by_id = {span[0]: span for span in self.spans}

        def ancestors(span):
            parent = span[4]
            while parent is not None and parent in by_id:
                yield by_id[parent]
                parent = by_id[parent][4]

        litmus_sims = 0
        probing = set()   # placement_cycles spans that ran a simulation
        for span in self.spans:
            if span[1] == "Simulator.run":
                if any(a[1] == "run_litmus" for a in ancestors(span)):
                    litmus_sims += 1
            elif span[1] == "run_litmus":
                probing.update(a[0] for a in ancestors(span)
                               if a[1] == "placement_cycles")
        probes = calls("synth.probe")
        ticks = calls("cpu.tick")
        regions = {name: rec[1] for name, rec in t.items()}
        return {
            "runtime.build_s": own("runtime.build"),
            "litmus.parse_s": own("litmus.parse"),
            "litmus.sims": litmus_sims,
            "sim.sims": calls("sim.init"),
            "sim.init_s": own("sim.init"),
            "sim.run_s": own("sim.run"),
            "sim.memo_blocks": memo_blocks,
            "cpu.ticks": ticks,
            "cpu.tick_frac": ticks / core_cycles if core_cycles else 0.0,
            "cpu.tick_s": own("cpu.tick"),
            "cpu.sb_scans": calls("cpu.sb_scan"),
            "core.scope_s": own("core.scope"),
            "mem.backends_built": calls("mem.backend_build"),
            "mem.backend_build_s": self._group(t, "mem.backend_build", 1),
            "mem.access_calls": calls("mem.access"),
            "mem.access_s": own("mem.access"),
            "mem.sync_calls": calls("mem.sync"),
            "mem.sync_s": own("mem.sync"),
            "mem.warm_s": own("mem.warm"),
            "verify.explore_s": own("verify.explore"),
            "verify.transitions": self.transitions,
            "verify.interleavings": self.interleavings,
            "synth.search_s": own("synth.search"),
            "synth.probes": probes,
            "synth.probe_hit_frac": (
                (probes - len(probing)) / probes if probes else 0.0),
            "campaign.cold_s": regions.get("campaign.cold", 0.0),
            "campaign.warm_s": regions.get("campaign.warm", 0.0),
            "campaign.job_s": self._group(t, "campaign.job", 1),
            "campaign.cache_get_s": self._group(t, "campaign.cache_get", 1),
            "campaign.cache_put_s": own("campaign.cache_put"),
            "campaign.cache_hits": campaign.get("cache_hits", 0),
            "campaign.cache_misses": campaign.get("cache_misses", 0),
            "campaign.executed": campaign.get("executed", 0),
            "campaign.retried": campaign.get("retried", 0),
        }

    def dump(self) -> dict:
        """The JSON-safe span store (coarse spans + folded hot calls)."""
        return {
            "spans": [list(s) for s in self.spans],
            "calls": {task: {n: list(r) for n, r in names.items()}
                      for task, names in self.tasks.items() if names},
            "groups": self.groups,
        }


def _rebind(orig, wrapper) -> None:
    """Point every ``repro`` module's name for ``orig`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function in :data:`TARGETS` and the backends."""
    import importlib
    import inspect
    import pkgutil

    import repro

    # import the whole package first, so every module that bound a
    # target by name is rebound too
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    for module_name, qualname, group, hot in TARGETS:
        module = importlib.import_module(module_name)
        on_result = (tracer._on_exploration
                     if qualname == "explore_allowed_outcomes" else None)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(orig, qualname, group, hot, on_result))
        else:
            orig = getattr(module, qualname)
            _rebind(orig, tracer.wrap(orig, qualname, group, hot, on_result))

    from repro.core.scope_tracker import ScopeTracker

    for meth, orig in list(vars(ScopeTracker).items()):
        if inspect.isfunction(orig) and not meth.startswith("_"):
            setattr(ScopeTracker, meth, tracer.wrap(
                orig, f"ScopeTracker.{meth}", "core.scope", True))

    for module_name, cls_name in BACKEND_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for meth, group in BACKEND_METHODS.items():
            orig = cls.__dict__.get(meth)
            if orig is not None:
                setattr(cls, meth, tracer.wrap(
                    orig, f"{cls_name}.{meth}", group, True))
