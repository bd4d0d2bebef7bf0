"""The three benchmark workloads.

Each workload is a ``setup(seed)`` that imports the simulator,
builds its inputs from the seed and returns a state object, and a
``run(state, ctx)`` that does the timed work through the simulator's
public entry points and checks every output, recording failures on
``ctx`` instead of raising.  ``campaign-sweep`` adds a ``reference``
phase after the timed part: the same jobs in-process, serially.

Inputs are a pure function of the seed.  Seed 0 is the default: it
gives the apps their committed RNG seeds, the verify cells their
committed offset grids and the chaos sweep ``seed_base`` 0.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import shutil
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the apps' default RNG seeds (seed 0 reproduces the committed reports)
APP_SEEDS = {"pst": 11, "ptc": 23, "barnes": 5, "radiosity": 17}
#: the figure-table sizes at scale 1.0 (``campaign.figures._app_builders``)
APP_SIZES = {"pst": ("n_vertices", 160), "ptc": ("n_vertices", 48),
             "barnes": ("n_bodies", 192), "radiosity": ("n_patches", 128)}
#: the paper's Fig 13 S bars (S-Fence time normalized to full fence)
PAPER_S = {"pst": 0.90, "ptc": 0.957, "barnes": 0.805, "radiosity": 0.842}
#: the Fig 15 memory latency of the high-latency cells
HIGH_LATENCY = 2000
#: chaos seeds per (algorithm, scenario) in ``campaign-sweep``
CHAOS_SEEDS = 3
#: committed three-way report the default seed must reproduce
BACKEND_REPORT = ROOT / "backend-compare-report.json"
#: scratch space (result caches) and traced-pass span dumps
WORK_DIR = ROOT / ".perfbench"


class PassContext:
    """Everything one pass records besides its two timings."""

    def __init__(self, tap, tracer=None, reverse: bool = False) -> None:
        self.tap = tap
        self.tracer = tracer
        self.reverse = reverse
        self.task_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.report: dict = {}
        self.campaign: dict = {}
        self.fingerprints: dict[str, str] = {}

    def order(self, items: list) -> list:
        return list(reversed(items)) if self.reverse else list(items)

    @contextmanager
    def task(self, label: str, outputs: int = 1):
        """Attribute simulations (and trace spans) to one task.

        ``outputs`` is how many checked outputs the task produces (one
        per cell or case; one per job for a whole campaign sweep).
        """
        self.attempted += outputs
        self.tap.begin_task(label)
        if self.tracer is None:
            yield
            return
        self.tracer.begin_task(label)
        with self.tracer.region("bench.task"):
            yield

    def region(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.region(name)

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")


def _rename(source: str, seed: int) -> str:
    """Seed a litmus source's offset grids by tagging its test name.

    Verify cells key their randomised timing-offset grids (every sweep
    seed after the fixed seed-0 grid) on the test name, so a seeded
    name draws fresh grids while the test itself is unchanged.  Seed 0
    keeps the committed names and grids.
    """
    if not seed:
        return source
    return re.sub(r"(?m)^(\s*name\s+)(\S+)", rf"\g<1>\g<2>~s{seed}",
                  source, count=1)


def _seeded_verify(jobs, seed: int):
    from repro.campaign.jobs import Job

    out = []
    for job in jobs:
        params = dict(job.params)
        params["source"] = _rename(params["source"], seed)
        if seed:
            params["name"] = f"{params['name']}~s{seed}"
        out.append(Job(job.kind, params))
    return out


def _execute(ctx: PassContext, execute, job) -> dict | None:
    """Run one job; an exception is a failed output, not a crash."""
    try:
        return execute(job)
    except Exception as exc:  # a failed job is a result
        ctx.fail(job.label(), f"{type(exc).__name__}: {exc}")
        return None


def _check_verify(ctx: PassContext, label: str, r: dict) -> None:
    observed = {tuple(o) for o in r["observed"]}
    allowed = {tuple(o) for o in r["allowed"]}
    if not observed:
        ctx.fail(label, "no outcome observed")
    if not observed <= allowed or not r["sound"]:
        ctx.fail(label, f"outcomes outside the DPOR-allowed set: "
                        f"{sorted(observed - allowed)}")
    if not r["reference_match"]:
        ctx.fail(label, "DPOR explorer and reference enumerator disagree")


# ---------------------------------------------------------------- figure-cells
class FigureCells:
    name = "figure-cells"

    def setup(self, seed: int):
        from repro.analysis.speedup import measure
        from repro.apps.barnes import build_barnes
        from repro.apps.cilk_fib import build_cilk_fib
        from repro.apps.pst import build_pst
        from repro.apps.ptc import build_ptc
        from repro.apps.radiosity import build_radiosity
        from repro.campaign.figures import _app_builders
        from repro.isa.instructions import FenceKind
        from repro.sim.config import SimConfig

        builds = {"pst": build_pst, "ptc": build_ptc, "barnes": build_barnes,
                  "radiosity": build_radiosity}
        native = {app: kind for app, (_b, kind) in _app_builders(1.0).items()}

        def builder(app, scope):
            size_arg, size = APP_SIZES[app]
            kwargs = {size_arg: size, "seed": APP_SEEDS[app] + seed}
            return lambda env: builds[app](env, scope=scope, **kwargs)

        cells = []   # (label, app, config label, build, SimConfig)
        for app in builds:   # the figbackend cells (Fig 13's T/S pairs)
            for label, scope, backend in (("S-Fence", native[app], "mesi"),
                                          ("full-fence", FenceKind.GLOBAL, "mesi"),
                                          ("SiSd", native[app], "sisd")):
                cells.append((f"{app}/{label}", app, label,
                              builder(app, scope), SimConfig(mem_backend=backend)))
        # Fig 15's memory-latency axis at 2000 cycles: every full-fence
        # point, and the S-Fence point of all apps but barnes (which
        # would take more than half the workload)
        high = SimConfig(mem_latency=HIGH_LATENCY)
        for app in builds:
            for label, scope in (("full-fence", FenceKind.GLOBAL),
                                 ("S-Fence", native[app])):
                if app == "barnes" and label == "S-Fence":
                    continue
                cells.append((f"{app}/{label}@{HIGH_LATENCY}", app,
                              f"{label}@{HIGH_LATENCY}", builder(app, scope), high))
        cells.append(("cilk_fib/n11x8", "cilk_fib", "S-Fence",
                      lambda env: build_cilk_fib(env, n=11, n_threads=8),
                      SimConfig(n_cores=8)))
        return {"measure": measure, "cells": cells, "seed": seed}

    def run(self, state, ctx: PassContext) -> None:
        import time

        measure = state["measure"]
        points = {}
        for label, app, config, build, cfg in ctx.order(state["cells"]):
            with ctx.task(label):
                t0 = time.perf_counter()
                try:
                    points[(app, config)] = measure(build, cfg, label=label)
                except Exception as exc:  # a failed cell is a result
                    ctx.fail(label, f"{type(exc).__name__}: {exc}")
                ctx.task_ms.append((time.perf_counter() - t0) * 1e3)
        self._summarise(state, ctx, points)

    def _summarise(self, state, ctx: PassContext, points: dict) -> None:
        apps = list(APP_SEEDS)
        pairs = [(points.get((a, "full-fence")), points.get((a, "S-Fence")))
                 for a in apps]
        if not all(full and scoped for full, scoped in pairs):
            return
        speedups = {a: full.cycles / scoped.cycles
                    for a, (full, scoped) in zip(apps, pairs)}
        ctx.report["sfence_speedup"] = math.exp(
            sum(math.log(s) for s in speedups.values()) / len(speedups))
        ctx.report["paper_err"] = sum(
            abs(1 / speedups[a] - PAPER_S[a]) for a in apps) / len(apps)
        ctx.report["paper_err_reference"] = (
            "distance from the paper's Fig 13 S bars (SESC); the model is "
            "not validated against hardware")
        ctx.report["sfence_speedup_by_app"] = speedups
        ctx.report["sfence_speedup_at_2000"] = {
            a: points[(a, f"full-fence@{HIGH_LATENCY}")].cycles
            / points[(a, f"S-Fence@{HIGH_LATENCY}")].cycles
            for a in apps
            if (a, f"S-Fence@{HIGH_LATENCY}") in points
            and (a, f"full-fence@{HIGH_LATENCY}") in points}
        if state["seed"] == 0:   # the committed report is the reference
            committed = json.loads(BACKEND_REPORT.read_text())["apps"]
            for app in apps:
                for config, want in committed[app]["configs"].items():
                    got = points.get((app, config))
                    if got is None or (got.cycles, got.fence_stall_cycles) != (
                            want["cycles"], want["fence_stall_cycles"]):
                        ctx.fail(f"{app}/{config}",
                                 f"differs from {BACKEND_REPORT.name}: "
                                 f"{got and (got.cycles, got.fence_stall_cycles)}"
                                 f" != {(want['cycles'], want['fence_stall_cycles'])}")


# --------------------------------------------------------------- litmus-probes
class LitmusProbes:
    name = "litmus-probes"

    def setup(self, seed: int):
        from repro.campaign.jobs import execute_job, synth_jobs, verify_jobs
        from repro.core.semantics import reference_allowed_outcomes
        from repro.litmus.dsl import abstract_threads, parse_litmus
        from repro.sim.config import MEM_BACKENDS
        from repro.synth.corpus import synth_entry
        from repro.synth.sites import apply_placement, fence_sites, strip_test
        from repro.verify.explorer import explore_allowed_outcomes

        verify = _seeded_verify(
            verify_jobs(engines=["event"], backends=list(MEM_BACKENDS)), seed)

        def reprove(name: str, assignment: list, forbidden: list) -> str | None:
            """Re-prove a synthesized placement by both oracles."""
            stripped = strip_test(parse_litmus(synth_entry(name).source))
            variant = apply_placement(stripped, fence_sites(stripped),
                                      tuple(assignment))
            threads = abstract_threads(variant)
            dpor = explore_allowed_outcomes(threads, dict(variant.init)).outcomes
            ref = reference_allowed_outcomes(threads, dict(variant.init))
            bad = {tuple(o) for o in forbidden}
            if dpor != ref:
                return "oracles disagree on the synthesized placement"
            if dpor & bad:
                return f"synthesized placement admits {sorted(dpor & bad)}"
            return None

        return {"execute": execute_job, "verify": verify,
                "synth": synth_jobs(), "reprove": reprove}

    def run(self, state, ctx: PassContext) -> None:
        for job in ctx.order(state["verify"]):
            label = job.label()
            with ctx.task(label):
                r = _execute(ctx, state["execute"], job)
                if r is not None:
                    _check_verify(ctx, label, r)
        for job in ctx.order(state["synth"]):
            label = job.label()
            with ctx.task(label):
                r = _execute(ctx, state["execute"], job)
                if r is None:
                    continue
                hand = r["handwritten"]
                if not (r["ok"] and hand["sound"] and hand["oracles_agree"]):
                    ctx.fail(label, "hand-written placement rejected or "
                                    "synthesis costlier than hand")
                problem = state["reprove"](
                    r["name"], r["synthesized"]["assignment"], r["forbidden"])
                if problem:
                    ctx.fail(label, problem)
        ctx.task_ms.extend(ctx.tap.sim_ms)


# -------------------------------------------------------------- campaign-sweep
class CampaignSweep:
    name = "campaign-sweep"
    #: cold+warm sweep rounds per pass, each against a new cache
    rounds = 3
    #: the timed work runs in this many pool workers, each running
    #: this function per job
    parallel = min(2, os.cpu_count() or 1)
    pool_entry = ("repro.campaign.engine", "execute_job")

    def setup(self, seed: int):
        from repro.analysis.campthru import outcome_fingerprint
        from repro.campaign.cache import ResultCache, code_fingerprint
        from repro.campaign.engine import CampaignResult, JobOutcome, run_campaign
        from repro.campaign.jobs import (
            chaos_jobs,
            clear_warm_state,
            execute_job,
            litmus_jobs,
            verify_jobs,
        )

        jobs = (litmus_jobs()
                + _seeded_verify(verify_jobs(engines=["event"]), seed)
                + chaos_jobs(n_seeds=CHAOS_SEEDS, seed_base=seed * CHAOS_SEEDS))
        work = WORK_DIR / f"work-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        code_fingerprint()   # the tree hash every cache opened below keys on
        return {
            "jobs": jobs, "work": work, "caches": 0, "cache": ResultCache,
            "parallel": self.parallel,
            "run_campaign": run_campaign, "execute": execute_job,
            "fingerprint": outcome_fingerprint, "clear": clear_warm_state,
            "CampaignResult": CampaignResult, "JobOutcome": JobOutcome,
        }

    def _check_outcomes(self, ctx: PassContext, phase: str, outcomes) -> None:
        for outcome in outcomes:
            label = f"{phase} {outcome.job.label()}"
            if not outcome.ok:
                ctx.fail(label, f"{outcome.status}: {outcome.error[-300:]}")
                continue
            r, kind = outcome.result, outcome.job.kind
            if kind == "litmus" and not r["ok"]:
                ctx.fail(label, "observability differs from the corpus entry")
            elif kind == "verify":
                _check_verify(ctx, label, r)
            elif kind == "chaos" and (r["status"] != "ok" or r["violations"]):
                ctx.fail(label, f"chaos case {r['status']}, "
                                f"{r['violations']} violation(s)")

    def _in_order(self, ctx: PassContext, campaign):
        """Outcomes back in forward job order (for the fingerprint)."""
        if ctx.reverse:
            campaign.outcomes.reverse()
        return campaign

    def run(self, state, ctx: PassContext) -> None:
        jobs = ctx.order(state["jobs"])
        fingerprint = state["fingerprint"]
        state["caches"] += 1
        cache = state["cache"](state["work"] / f"cache{state['caches']}")
        fingerprints = {}
        for phase in ("cold", "warm"):
            with ctx.task(f"campaign.{phase}", outputs=len(jobs)), \
                    ctx.region(f"campaign.{phase}"):
                campaign = state["run_campaign"](
                    jobs, parallel=state["parallel"], cache=cache)
            self._check_outcomes(ctx, phase, campaign.outcomes)
            expect = (len(jobs), 0) if phase == "cold" else (0, len(jobs))
            if (campaign.executed, campaign.cached) != expect:
                ctx.fail(phase, f"executed/cached {campaign.executed}/"
                                f"{campaign.cached}, expected {expect}")
            if campaign.retried:
                ctx.fail(phase, f"{campaign.retried} job(s) retried")
            fingerprints[phase] = fingerprint(self._in_order(ctx, campaign))
            for key in ("executed", "retried"):
                ctx.campaign[key] = ctx.campaign.get(key, 0) + getattr(campaign, key)
        for phase, value in fingerprints.items():
            if value != ctx.fingerprints.setdefault(phase, fingerprints["cold"]):
                ctx.fail(phase, "outcome fingerprint differs from the first "
                                "cold sweep")
        ctx.campaign["cache_hits"] = ctx.campaign.get("cache_hits", 0) + cache.hits
        ctx.campaign["cache_misses"] = (ctx.campaign.get("cache_misses", 0)
                                        + cache.misses)
        ctx.report["worker_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def reference(self, state, ctx: PassContext) -> None:
        """The same jobs in-process and serially; one task per job."""
        import time

        state["clear"]()
        JobOutcome = state["JobOutcome"]
        outcomes = []
        for job in ctx.order(state["jobs"]):
            with ctx.task(job.label()):
                t0 = time.perf_counter()
                try:
                    outcomes.append(JobOutcome(job, "ok", state["execute"](job)))
                except Exception as exc:
                    outcomes.append(JobOutcome(job, "error", None, error=repr(exc)))
                ctx.task_ms.append((time.perf_counter() - t0) * 1e3)
        self._check_outcomes(ctx, "serial", outcomes)
        serial = self._in_order(ctx, state["CampaignResult"](outcomes=outcomes))
        ctx.fingerprints["serial"] = state["fingerprint"](serial)
        if ctx.fingerprints["serial"] != ctx.fingerprints.get("cold"):
            ctx.fail("serial", "outcome fingerprint differs from the pool sweep")

    def teardown(self, state) -> None:
        shutil.rmtree(state["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (FigureCells(), LitmusProbes(), CampaignSweep())}
