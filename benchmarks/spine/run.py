#!/usr/bin/env python3
"""The spine benchmark: one command, four workloads, every metric.

    python3 benchmarks/spine/run.py --seed 7                 # all four
    python3 benchmarks/spine/run.py --workload warm_mix --seed 7
    python3 benchmarks/spine/run.py --seed 7 --traced        # + waterfall
    python3 benchmarks/spine/run.py --aa 10                  # A/A check

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for what each
workload loads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stages  # noqa: E402
import stats  # noqa: E402
from stages import HERE, ROOT  # noqa: E402

sys.path.insert(0, stages.SRC)

OUT = os.path.join(HERE, "out")
#: the scale every gated run uses; ``--scale`` is for the hand-run
#: sweep towards the UEK-calibrated 1.0
GATED_SCALE = 0.05
#: the driver allows a run 180 s; give up, loudly, before that
RUN_TIMEOUT = 170.0
#: per-run facts about the machine that ``--aa`` keeps beside the metrics
MACHINE_KEYS = ("run_s", "machine_busy_s", "machine_steal_s")


def contract() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=stages.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics only")
    parser.add_argument("--traced", action="store_true",
                        help="the untraced run, then the traced one")
    parser.add_argument("--scale", type=float, default=GATED_SCALE)
    parser.add_argument("--aa", type=int, metavar="K", default=0,
                        help="A/A self-check: two sets of K runs per "
                        "workload, each run on another seed")
    parser.add_argument("--stage", choices=("setup", "workload",
                                            "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    return parser.parse_args()


# -- one stage, in this (fresh) interpreter ------------------------------------


def run_stage(args: argparse.Namespace) -> int:
    if args.stage == "setup":
        stages.run_setup(args.dir, args.seed, args.scale,
                         args.workload)
        return 0
    if args.stage == "workload":
        result = stages.run_workload(args.workload, args.dir,
                                     args.seconds)
    else:
        import tracing
        result = tracing.run_traced(
            args.workload, args.dir,
            os.path.join(OUT, f"trace-{args.workload}.json"))
    with open(os.path.join(args.dir, f"{args.stage}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def spawn_stage(stage: str, run_dir: str, args: argparse.Namespace,
                workload: str, deadline: float) -> None:
    """Run one stage in its own interpreter and wait for it.

    The stage leads its own process group, so when it overruns or
    dies the server and worker processes it started go with it.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--stage", stage, "--dir", run_dir,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--scale", str(args.scale)]
    process = subprocess.Popen(command, stdout=sys.stderr,
                               start_new_session=True)
    code = None
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if code != 0:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if code != 0:
        raise SystemExit(f"{stage} stage of {workload} exited "
                         f"with {code}")


def load_result(run_dir: str, stage: str) -> dict[str, Any]:
    with open(os.path.join(run_dir, f"{stage}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload, end to end -------------------------------------------------------


def machine_cpu_s() -> dict[str, float]:
    """CPU seconds the whole machine has spent busy (every process,
    not only ours) and stolen by the host, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return {}
    per_s = os.sysconf("SC_CLK_TCK")
    idle = ticks[3] + ticks[4]  # idle + iowait
    return {"machine_busy_s": (sum(ticks[:8]) - idle - ticks[7]) / per_s,
            "machine_steal_s": ticks[7] / per_s}


def provenance(args: argparse.Namespace,
               setup: dict[str, Any]) -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds,
        "nodes": setup["nodes"], "edges": setup["edges"],
        "store_bytes": setup["sizes"]["total"],
        "page_cache_bytes": setup["page_cache_bytes"],
        "generate_s": setup["generate_s"],
    }


def run_one(workload: str, args: argparse.Namespace,
            traced: bool) -> dict[str, Any]:
    """Set-up stage, then the workload (or traced) stage; the store
    is built once and dropped afterwards."""
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    deadline = time.monotonic() + RUN_TIMEOUT
    cpu_before = machine_cpu_s()
    try:
        spawn_stage("setup", run_dir, args, workload, deadline)
        stage = "traced" if traced else "workload"
        spawn_stage(stage, run_dir, args, workload, deadline)
        result = load_result(run_dir, stage)
        result["provenance"] = provenance(
            args, stages.load_setup(run_dir))
        # a run that shared the machine shows here: busy seconds well
        # above the run's own, or seconds stolen by the host
        result["provenance"]["run_s"] = \
            time.monotonic() - deadline + RUN_TIMEOUT
        for key, value in machine_cpu_s().items():
            result["provenance"][key] = value - cpu_before[key]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["workload"] = workload
    result["traced"] = traced
    return result


def units(traced: bool) -> dict[str, str]:
    key = "per_layer" if traced else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in contract()[key]}


def report(result: dict[str, Any]) -> dict[str, Any]:
    """Print one run for people; return its contract-shaped summary."""
    unit_of = units(result["traced"])
    missing = sorted(set(unit_of) - set(result["metrics"]))
    unnamed = sorted(set(result["metrics"]) - set(unit_of))
    if missing or unnamed:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, unnamed {unnamed}")
    kind = "per-layer (traced)" if result["traced"] else "end-to-end"
    print(f"== {result['workload']}: {kind} ==")
    for name in unit_of:
        print(f"  {name:<36}{result['metrics'][name]:>14.4f} "
              f"{unit_of[name]}")
    for name, value in sorted(result["extras"].items()):
        print(f"  ({name:<34}{value:>14.4f})")
    if "waterfall" in result:
        print(result["waterfall"])
    print(f"  attempted {result['attempted']}, failed "
          f"{result['failed']}; " + ", ".join(
              f"{key}={value}"
              for key, value in result["provenance"].items()))
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": unit_of[name]} for name in unit_of},
    }


#: what the workloads exist to tell apart, as (left, relation, right)
#: over (workload, traced?, metric); printed when both sides were run
SEPARATIONS = (
    (("cold_open", False, "heavy_p50_ms"), ">",
     ("warm_mix", False, "heavy_p50_ms")),
    (("served_http", False, "light_p50_ms"), ">",
     ("warm_mix", False, "light_p50_ms")),
    (("cold_open", True, "storage.pagecache.misses_per_op"), ">",
     ("warm_mix", True, "storage.pagecache.misses_per_op")),
    (("cold_open", True, "cypher.plan_cache.hit_ratio"), "<",
     ("warm_mix", True, "cypher.plan_cache.hit_ratio")),
)


def print_separations(summaries: dict[tuple[str, bool],
                                      dict[str, Any]]) -> None:
    for left, relation, right in SEPARATIONS:
        if left[:2] not in summaries or right[:2] not in summaries:
            continue
        a, b = (summaries[side[:2]]["metrics"][side[2]]["value"]
                for side in (left, right))
        holds = a > b if relation == ">" else a < b
        print(f"separation: {left[2]} on {left[0]} ({a:.4f}) "
              f"{relation} on {right[0]} ({b:.4f}): "
              f"{'holds' if holds else 'DOES NOT HOLD'}")


def run_and_report(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(stages.WORKLOADS)
    modes = [False, True] if args.traced else [bool(args.trace)]
    summaries: dict[tuple[str, bool], dict[str, Any]] = {}
    for traced in modes:
        for workload in names:
            result = run_one(workload, args, traced)
            summaries[workload, traced] = report(result)
            with open(os.path.join(
                    OUT, f"result-{workload}-"
                    f"{'traced' if traced else 'untraced'}.json"),
                    "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
    print_separations(summaries)
    if len(summaries) == 1:
        (last,) = summaries.values()
    else:
        last = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"]
                             for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{workload}{'.traced' if traced else ''}/{name}": value
                for (workload, traced), summary in summaries.items()
                for name, value in summary["metrics"].items()},
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


# -- A/A: two sets of runs of the same code must agree ---------------------------------


def run_aa(args: argparse.Namespace) -> int:
    """Two sets of K runs per workload, every run on another seed
    (the second set's seeds are never used by the first). Fails when
    a metric's quartile spread exceeds its bound (``setup_s``
    excepted, as in the driver) or the second set's median is worse
    than the first's by more than the bound."""
    count = args.aa
    if count < 5:
        raise SystemExit("--aa needs K >= 5")
    gated = contract()["end_to_end"]
    names = [args.workload] if args.workload else list(stages.WORKLOADS)
    verdict = 0
    for workload in names:
        sets: list[dict[str, list[float]]] = []
        for offset in (0, count):
            values: dict[str, list[float]] = {
                metric["name"]: [] for metric in gated}
            values_of_machine: dict[str, list[Any]] = {}
            for run in range(count):
                args.seed = 1000 + offset + run
                result = run_one(workload, args, traced=False)
                if result["failed"]:
                    print(f"{workload} seed {args.seed}: "
                          f"{result['failed']} failed")
                    verdict = 1
                for name in values:
                    values[name].append(result["metrics"][name])
                for key in MACHINE_KEYS:  # saved, to explain a slow run
                    values_of_machine.setdefault(key, []).append(
                        result["provenance"].get(key))
            sets.append({**values, **values_of_machine})
        with open(os.path.join(OUT, f"aa-{workload}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(sets, handle)
        print(f"== A/A {workload}: {count} runs x 2 sets ==")
        print(f"  {'metric':<22}{'median A':>12}{'median B':>12}"
              f"{'spread A':>10}{'spread B':>10}{'B worse':>9}"
              f"{'bound':>7}")
        for metric in gated:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[name] for s in sets)
            spreads = [stats.quartile_spread(v) for v in (first, second)]
            shift = stats.worse_by(statistics.median(first),
                                   statistics.median(second),
                                   metric["better"])
            bad = shift > bound or (name != "setup_s"
                                    and max(spreads) > bound)
            verdict |= bad
            print(f"  {name:<22}{statistics.median(first):>12.4f}"
                  f"{statistics.median(second):>12.4f}"
                  f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}"
                  f"{shift:>9.4f}{bound:>7.3f}"
                  f"{'  EXCEEDED' if bad else ''}")
    return verdict


def main() -> int:
    args = parse_args()
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    if args.stage:
        return run_stage(args)
    try:
        import repro  # noqa: F401
    except ImportError:
        raise SystemExit("src/repro is not in this checkout: no "
                         "program, no benchmark, no result") from None
    # a terminated run must still unwind and take its stages with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.aa:
        return run_aa(args)
    return run_and_report(args)


# ReplicaSet starts its workers with the spawn method, which imports
# this file again in each worker: nothing may run at import time
if __name__ == "__main__":
    sys.exit(main())
