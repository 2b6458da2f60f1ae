"""vcmarkov benchmark: closed-loop CLI jobs on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resample --seed 0 --seconds 30 --trace 0

``--workload`` is ``resample``, ``probe``, ``chapters`` or ``all``. The
run generates the workload's inputs from ``--seed`` under
``.bench_work/<workload>/``, times ``setup_s`` in fresh interpreters,
starts one worker process that runs the jobs (see ``worker.py``), and then
checks every timed job's outputs (see ``checks.py``). It prints a
readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--workload all`` the metric names carry a ``<workload>/`` prefix.

The program under test is the ``vcmarkov`` package in the checkout's
``src`` directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import DEFAULT_SEED, Checker  # noqa: E402
from gen import WorkloadInputs, generate  # noqa: E402
from tracing import per_layer_names  # noqa: E402
from workloads import WORKLOADS, cycle_jobs  # noqa: E402

SETUP_RUNS = 5
SETUP_SNIPPET = "import vcmarkov.cli as cli; cli.build_parser()"
DEADLINE_S = 170.0
MAX_PROBLEMS = 20


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's package, capped threads,
    and a pinned manifest timestamp so outputs are byte-identical."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def measure_setup(env: dict[str, str], cwd: str, deadline: float) -> list[float]:
    """Wall time of fresh interpreters importing the CLI and building its parser."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=cwd,
                       check=True, timeout=max(deadline - time.monotonic(), 1.0))
        times.append(time.perf_counter() - start)
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    workdir = os.path.join(ROOT, ".bench_work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = generate(workload, seed, os.path.join(workdir, "inputs"))
    env = child_env()
    setup = [] if trace else measure_setup(env, workdir, deadline)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    subprocess.run(cmd, env=env, cwd=workdir, check=True, stdout=sys.stderr,
                   timeout=max(deadline - time.monotonic(), 1.0))
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    checker = check_outputs(workload, seed, inputs, result["records"], workdir)
    return summarize(workload, result, setup, checker)


def check_outputs(workload: str, seed: int, inputs: WorkloadInputs, records: list[dict],
                  workdir: str) -> Checker:
    """Check every timed job's outputs; store its problems in its record."""
    reference = None
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)[workload]
    checker = Checker(inputs, reference)
    jobs = {job.name: job for job in cycle_jobs(workload, inputs, seed)}
    for r in records:
        if r["rc"] != 0:
            r["problems"] = [f"{r['job']}: exit code {r['rc']}"]
        else:
            r["problems"] = checker.check(jobs[r["job"]], os.path.join(workdir, r["out"]))
    return checker


def summarize(workload: str, result: dict, setup: list[float], checker: Checker) -> dict:
    records = result["records"]
    timed = [r for r in records if not r["traced"]]
    failed = sum(bool(r["problems"]) for r in records)
    problems = result["warm_failures"] + result.get("accounting_errors", [])
    correct = failed == 0 and not problems
    problems += [p for r in records for p in r["problems"]]
    groups: dict[str, list[float]] = {}
    for r in timed:
        groups.setdefault(r["kind"], []).append(r["wall_s"])
        if r["job"] != r["kind"]:
            groups.setdefault(r["job"], []).append(r["wall_s"])
    report = {
        f"job.{name}_s": (statistics.median(walls), "s", len(walls))
        for name, walls in groups.items()
    }
    report["failed_frac"] = (failed / len(records), "ratio", len(records))
    if "trace" in result:
        metrics = {name: (result["trace"][name], unit)
                   for name, unit in per_layer_names().items()}
        n_traced = len({r["cycle"] for r in records if r["traced"]})
        report.update({name: (value, "s", n_traced)
                       for name, value in result["layer_seconds"].items()})
    else:
        # a cycle with every job at its median wall time, so that one cycle
        # slowed by other tenants of the machine does not set the figure
        per_job: dict[str, tuple[list[float], float]] = {}
        for r in timed:
            per_job.setdefault(r["job"], ([], r["ksym"]))[0].append(r["wall_s"])
        cycle_s = sum(statistics.median(walls) for walls, _ in per_job.values())
        cycle_ksym = sum(ksym for _, ksym in per_job.values())
        n_cycles = len({r["cycle"] for r in timed})
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cycle_s": (cycle_s, "s"),
            "ksym_per_s": (cycle_ksym / cycle_s, "ksym/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        samples = {"setup_s": len(setup), "cycle_s": n_cycles,
                   "ksym_per_s": n_cycles, "peak_rss_mb": 1}
        report.update({name: (*metrics[name], n) for name, n in samples.items()})
    return {
        "workload": workload,
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "defects": sorted(checker.defects),
        "metrics": metrics,
        "report": report,
        "trace": "trace" in result,
    }


def print_report(summary: dict) -> None:
    print(f"== {summary['workload']}: {summary['attempted']} timed jobs, "
          f"{summary['failed']} failed, correct={summary['correct']}")
    for problem in summary["problems"]:
        print(f"   problem: {problem}")
    for defect in summary["defects"]:
        print(f"   known defect, not counted as a failure: {defect}")
    for name, (value, unit, n) in summary["report"].items():
        print(f"   {name:<30} {value:12.6g} {unit:<7} n={n}")
    if summary["trace"]:
        for name, (value, unit) in summary["metrics"].items():
            print(f"   {name:<30} {value:12.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vcmarkov", "cli.py")):
        print(f"no vcmarkov package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        summary = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        print_report(summary)
        summaries.append(summary)

    def key(summary, name):
        return name if len(summaries) == 1 else f"{summary['workload']}/{name}"

    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            key(s, name): {"value": value, "unit": unit}
            for s in summaries for name, (value, unit) in s["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
