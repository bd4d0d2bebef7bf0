"""Stats tap: read every simulation's result as the workload runs it.

The workloads drive the simulator only through its public entry points
(``measure``, ``execute_job``, ``run_campaign``), which return figure
cells and job payloads, not the per-simulation ``SimResult``.  The tap
wraps ``Env.__init__`` and ``Simulator.run`` once per process and hands
each finished simulation to a :class:`SimTap`, which sums the simulated
quantities (cycles, fence stalls, instructions), records the host time
from environment construction to the end of the run (one *task* of
``litmus-probes``), and -- on request -- the modelled counters and a
per-simulation stats digest for the dense-engine cross-check.

The tap adds two Python calls per simulation and nothing per simulated
cycle; it is the only wrapper present during timed (untraced) passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

#: CoreStats fields copied into the traced report as modelled-component
#: counters, with the per-layer metric each one is reported under
CORE_COUNTERS = {
    "instructions": "cpu.instructions",
    "rob_full_stalls": "cpu.rob_full_stalls",
    "sb_full_stalls": "cpu.sb_full_stalls",
    "mshr_stalls": "cpu.mshr_stalls",
    "branch_mispredicts": "cpu.branch_mispredicts",
    "scope_overflows": "core.scope_overflows",
    "l1_hits": "mem.l1_hits",
    "l1_misses": "mem.l1_misses",
    "l2_hits": "mem.l2_hits",
    "l2_misses": "mem.l2_misses",
}

#: SiSd ``backend_stats()`` counters (MESI reports none)
SISD_COUNTERS = {
    "sync_points": "mem.sisd_sync_points",
    "self_downgrades": "mem.sisd_self_downgrades",
    "self_invalidations": "mem.sisd_self_invalidations",
    "eviction_writebacks": "mem.sisd_eviction_writebacks",
}


class SimTap:
    """Per-pass accumulator of every simulation's result."""

    def __init__(self, counters: bool = False, digests: bool = False) -> None:
        self.counters = counters
        self.digests = digests
        self.sims = 0
        self.cycles = 0
        self.fence_stall_cycles = 0
        self.instructions = 0
        self.core_cycles = 0          # simulated cycles x cores, summed
        self.sim_ms: list[float] = []
        self.modelled = dict.fromkeys(
            list(CORE_COUNTERS.values()) + list(SISD_COUNTERS.values()), 0)
        #: (task label, index within task) -> stats digest
        self.stats_digest: dict[tuple, str] = {}
        self.task = ""
        self._task_sims = 0
        self._env_t0 = 0.0

    def begin_task(self, label: str) -> None:
        self.task = label
        self._task_sims = 0

    def record(self, sim, result, t_end: float) -> None:
        stats = result.stats
        self.sims += 1
        self.cycles += result.cycles
        self.fence_stall_cycles += stats.fence_stall_cycles
        self.instructions += stats.instructions
        self.core_cycles += result.cycles * len(sim.cores)
        self.sim_ms.append((t_end - self._env_t0) * 1e3)
        if self.counters:
            for core in stats.cores:
                for field, metric in CORE_COUNTERS.items():
                    self.modelled[metric] += getattr(core, field)
            for key, value in sim.hierarchy.backend_stats().items():
                metric = SISD_COUNTERS.get(key)
                if metric is not None:
                    self.modelled[metric] += value
        if self.digests:
            cores = [dataclasses.astuple(c) for c in stats.cores]
            text = repr((result.cycles, cores,
                         sorted(sim.hierarchy.backend_stats().items())))
            key = (self.task, self._task_sims)
            self.stats_digest[key] = hashlib.sha256(text.encode()).hexdigest()
        self._task_sims += 1


def install(tap: SimTap, force_dense: bool = False) -> None:
    """Route every ``Env``/``Simulator`` of this process through ``tap``.

    ``force_dense`` swaps each environment's config for the same config
    on the dense reference engine (``dense_loop=True``): the check mode
    that proves the default engine's simulated stats on the workload's
    own inputs.
    """
    from repro.runtime.lang import Env
    from repro.sim.simulator import Simulator

    env_init = Env.__init__
    sim_run = Simulator.run

    def tapped_env_init(self, config=None):
        if force_dense:
            from repro.sim.config import SimConfig

            config = (config or SimConfig()).with_(dense_loop=True)
        tap._env_t0 = time.perf_counter()
        env_init(self, config)

    def tapped_run(self, max_cycles=None):
        result = sim_run(self, max_cycles)
        tap.record(self, result, time.perf_counter())
        return result

    Env.__init__ = tapped_env_init
    Simulator.run = tapped_run
