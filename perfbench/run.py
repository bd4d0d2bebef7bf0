"""The repository benchmark: one command, three workloads, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure-cells --seed 0 --seconds 30 --trace 0

``--trace 0`` runs timed passes until ``--seconds`` is spent (at least
:data:`MIN_PASSES`) and prints the end-to-end metrics: medians over the
passes.  A workload with a ``rounds`` attribute repeats its timed part
that many times per pass, from cold state each time, and a pass's
``run_s`` is the median round.  Host times are in reference seconds:
wall seconds corrected for the host's speed while the pass ran, as a
fixed reference kernel measures it (``hostspeed.py``); the wall
seconds go on the report line.  ``--trace 1`` runs one untimed pass
and one traced pass and prints the per-layer metrics plus the tracing
overhead.  ``--check``
proves the outputs instead: the simulated stats of every task must be
identical under another hash seed, in reversed task order and on the
dense reference engine.

Every pass is a fresh interpreter (``--pass``), started with its own
``PYTHONHASHSEED``, so each starts as a CLI invocation would: no class
ids, warm memos, compiled blocks or cached results from an earlier
pass.  The last line of standard output is the result object; anything
before it is a human-readable report.  The command exits 1 when any
output is wrong, and 2 -- printing no result -- when the checkout has
no simulator source to run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # setup time counts from here in a pass

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("figure-cells", "litmus-probes", "campaign-sweep")
MIN_PASSES = 3
#: a run ends within this many seconds: it starts no pass that the
#: slowest pass so far says would not finish in time
RUN_LIMIT_S = 170.0

END_TO_END = {   # metric -> unit
    "setup_s": "s",
    "run_s": "s",
    "sim_instr_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "fence_stall_cycles": "cycles",
}


# ------------------------------------------------------------------ one pass
def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_pass(args) -> dict:
    """One workload pass in this (fresh) process; returns its record."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hostspeed

    # only timed passes sample the host's speed, from here on; where the
    # work runs in pool workers, the workers sample, and the pass waits
    timed = not (args.trace or args.digests)
    clock = hostspeed.HostClock()
    if timed:
        clock.start()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    import resource

    import tap as tap_mod
    from workloads import WORK_DIR, WORKLOADS as IMPLS, PassContext

    workload = IMPLS[args.workload]
    sim_tap = tap_mod.SimTap(counters=args.trace, digests=args.digests)
    tap_mod.install(sim_tap, force_dense=args.dense)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)   # before setup binds any layer function
    ctx = PassContext(sim_tap, tracer, reverse=args.reverse)
    state = workload.setup(args.seed)
    from repro.campaign.jobs import clear_warm_state
    from repro.runtime.lang import reset_cids
    from repro.sim.tracecomp import memo_stats

    sampler = None
    if timed and hasattr(workload, "pool_entry"):
        clock.stop()
        import importlib

        module, name = workload.pool_entry
        sampler = hostspeed.WorkerSampler(WORK_DIR / f"speed-{os.getpid()}")
        sampler.install(importlib.import_module(module), name)
    rounds = []   # (start, end) of every timed round
    try:
        for _ in range(1 if args.trace else getattr(workload, "rounds", 1)):
            reset_cids()
            clear_warm_state()
            if memo_stats()["blocks"]:
                ctx.fail("setup", "compiled-block memo not empty before a run")
            t_round = time.perf_counter()
            workload.run(state, ctx)
            rounds.append((t_round, time.perf_counter()))
        clock.stop()
        worker_samples = sampler.collect() if sampler else []
        if hasattr(workload, "reference"):
            workload.reference(state, ctx)
    finally:
        clock.stop()
        if sampler is not None:
            shutil.rmtree(sampler.directory, ignore_errors=True)
        if hasattr(workload, "teardown"):
            workload.teardown(state)
    setup = (T_START, rounds[0][0])
    if sampler is not None:
        work = [clock.pooled(*r, worker_samples, workload.parallel)
                for r in rounds]
    elif timed:
        work = [clock.timed(*r) for r in rounds]
    else:
        work = [(clock.wall_work(*r), None) for r in rounds]
    record = {
        "wall_setup_s": clock.wall_work(*setup),
        "wall_run_s": statistics.median(wall for wall, _ in work),
        "task_ms.p50": statistics.median(ctx.task_ms),
        "task_ms.p99": _percentile(ctx.task_ms, 0.99),
        "tasks": len(ctx.task_ms),
        "sims": sim_tap.sims,
        "sim_cycles": sim_tap.cycles,
        "fence_stall_cycles": sim_tap.fence_stall_cycles,
        "instructions": sim_tap.instructions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ctx.attempted,
        "failures": ctx.failures,
        "fingerprints": ctx.fingerprints,
        "report": ctx.report,
    }
    if timed:   # reference seconds: wall seconds at the reference speed
        setup_wall, setup_speed = clock.timed(*setup)
        record.update({
            "setup_s": setup_wall * setup_speed,
            "run_s": statistics.median(wall * speed for wall, speed in work),
            "rounds_s": [wall * speed for wall, speed in work],
            "host_speed": statistics.median(speed for _, speed in work),
        })
    if args.digests:
        record["digests"] = {f"{task}#{i}": d
                             for (task, i), d in sim_tap.stats_digest.items()}
    if tracer is not None:
        record["layers"] = {
            **tracer.metrics(sim_tap.core_cycles, memo_stats()["blocks"],
                             ctx.campaign),
            **sim_tap.modelled,
        }
        record["breakdown"] = tracer.layer_breakdown()
        WORK_DIR.mkdir(exist_ok=True)
        dump = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps(
            {"record": {k: v for k, v in record.items() if k != "digests"},
             "trace": tracer.dump()}))
    return record


# ------------------------------------------------------------------ the runs
def _fixed_layout() -> None:
    """Turn off address-space randomisation in the pass about to start.

    Object addresses feed id-based hashing, so with randomisation the
    peak resident memory of one pass moves in 2 MB steps from run to
    run; without it, peak memory repeats exactly.  Where the kernel
    refuses, the pass runs randomised.
    """
    import ctypes

    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def _spawn(args, hash_seed: int, deadline: float, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and parse its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass",
           "--workload", args.workload, "--seed", str(args.seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, cwd=ROOT, preexec_fn=_fixed_layout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def _simulated(record: dict) -> tuple:
    """The deterministic part of a pass record."""
    return (record["sims"], record["sim_cycles"],
            record["fence_stall_cycles"], record["instructions"],
            record["fingerprints"].get("cold"),
            record["report"].get("sfence_speedup"),
            record["report"].get("paper_err"))


def _problems(records: list[dict]) -> list[str]:
    """Every failed output, and every simulated result that did not repeat."""
    first = _simulated(records[0])
    return [f for r in records for f in r["failures"]] + [
        f"pass {i}: simulated results {_simulated(r)} != {first}"
        for i, r in enumerate(records[1:], 2) if _simulated(r) != first]


def _result(records: list[dict], problems: list[str], metrics: dict) -> dict:
    attempted = max(1, sum(r["attempted"] for r in records))
    return {"correct": not problems, "attempted": attempted,
            "failed": min(len(problems), attempted), "metrics": metrics}


def timed_run(args, t0: float) -> tuple[dict, dict]:
    """Passes until ``--seconds`` is spent; medians of the host metrics."""
    deadline = t0 + RUN_LIMIT_S
    records, longest = [], 0.0
    while True:
        start = time.monotonic()
        records.append(_spawn(args, len(records) + 1, deadline))
        longest = max(longest, time.monotonic() - start)
        elapsed = time.monotonic() - t0
        if elapsed + longest > RUN_LIMIT_S or (
                len(records) >= MIN_PASSES and elapsed + longest / 2 > args.seconds):
            break

    def med(values):
        return statistics.median(list(values))

    values = {
        "setup_s": med(r["setup_s"] for r in records),
        "run_s": med(r["run_s"] for r in records),
        "sim_instr_per_s": med(r["instructions"] / r["run_s"] for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "sim_cycles": records[0]["sim_cycles"],
        "fence_stall_cycles": records[0]["fence_stall_cycles"],
    }
    problems = _problems(records)
    attempted = sum(r["attempted"] for r in records)
    report = {
        **records[0]["report"],
        "passes": len(records),
        "wall_setup_s": med(r["wall_setup_s"] for r in records),
        "wall_run_s": med(r["wall_run_s"] for r in records),
        "host_speed": med(r["host_speed"] for r in records),
        "run_s_passes": [x for r in records for x in r["rounds_s"]],
        "task_ms.p50": med(r["task_ms.p50"] for r in records),
        "task_samples_per_pass": records[0]["tasks"],
        "failed_frac": min(len(problems), attempted) / max(1, attempted),
        "problems": problems[:20],
    }
    if records[0]["tasks"] >= 1000:
        report["task_ms.p99"] = med(r["task_ms.p99"] for r in records)
    if "worker_peak_rss_mb" in report:
        report["worker_peak_rss_mb"] = med(
            r["report"]["worker_peak_rss_mb"] for r in records)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return _result(records, problems, metrics), report


def traced_run(args, t0: float) -> tuple[dict, dict]:
    """One plain and one traced pass; the traced pass's layer metrics."""
    deadline = t0 + RUN_LIMIT_S
    plain = _spawn(args, 1, deadline)
    traced = _spawn(args, 2, deadline, "--trace", "1")
    problems = _problems([plain, traced])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_run_s"] - plain["wall_run_s"]
    sys.path.insert(0, str(HERE))
    from tracing import unit_of

    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in layers.items()}
    report = {"untraced_wall_run_s": plain["wall_run_s"],
              "traced_wall_run_s": traced["wall_run_s"],
              "breakdown": traced["breakdown"], "problems": problems[:20]}
    return _result([plain, traced], problems, metrics), report


def check_run(args, t0: float) -> tuple[dict, dict]:
    """Hash-seed, task-order and dense-engine identity of every task."""
    deadline = t0 + 3600.0
    base = _spawn(args, 1, deadline, "--digests")
    variants = {
        "hash-seed 2, reversed order": _spawn(args, 2, deadline, "--digests",
                                              "--reverse"),
        "dense engine": _spawn(args, 3, deadline, "--digests", "--dense"),
    }
    problems = list(base["failures"])
    for name, rec in variants.items():
        problems += [f"{name}: {p}" for p in _problems([base, rec])
                     if p not in base["failures"]]
        diff = sorted(k for k in base["digests"].keys() | rec["digests"].keys()
                      if base["digests"].get(k) != rec["digests"].get(k))
        if diff:
            problems.append(f"{name}: {len(diff)} task(s) with different "
                            f"simulated stats, first {diff[:5]}")
    records = [base, *variants.values()]
    metrics = {"tasks_compared": {"value": len(base["digests"]), "unit": "count"}}
    report = {"simulated": dict(zip(
        ("sims", "sim_cycles", "fence_stall_cycles", "instructions",
         "fingerprint", "sfence_speedup", "paper_err"), _simulated(base))),
        "problems": problems}
    return _result(records, problems, metrics), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="prove outputs against reordering and the dense engine")
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reverse", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dense", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.one_pass:
        print(json.dumps(run_pass(args)))
        return 0

    t0 = time.monotonic()
    runner = check_run if args.check else traced_run if args.trace else timed_run
    try:
        result, report = runner(args, t0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
