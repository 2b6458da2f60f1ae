"""One workload's closed loop, in a process of its own.

Started by ``run.py`` with the checkout's ``src`` on the path and the
workload's generated inputs in the working directory. One client runs the
workload's jobs back to back through ``vcmarkov.cli.main`` in this
process: untimed warm-up jobs first, then whole cycles of timed jobs until
the next cycle would end after ``--seconds``. Each job writes into its own
``out/c<cycle>/<job>`` directory, which ``run.py`` checks once this
process has ended, so the checks' memory stays out of ``peak_rss_mb``.
With ``--trace 1`` one untraced cycle comes first, then the cycles run
with the tracer installed. The result goes to ``result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gen import WorkloadInputs  # noqa: E402
from tracing import RATIOS, SPAN_KINDS, Tracer, layer_name  # noqa: E402
from workloads import Job, cycle_jobs, warmup_jobs  # noqa: E402


class Loop:
    def __init__(self, main, jobs: list[Job]):
        self.main = main
        self.jobs = jobs
        self.records: list[dict] = []

    def cycle(self, index: int, tracer=None) -> float:
        """Run one cycle; return the summed job wall time."""
        total = 0.0
        for job in self.jobs:
            out_dir = f"out/c{index}/{job.name}"
            argv = job.command(out_dir)
            start = time.perf_counter()
            rc = self.main(argv) if tracer is None else tracer.job(lambda: self.main(argv))
            wall = time.perf_counter() - start
            self.records.append({
                "job": job.name, "kind": job.kind, "cycle": index, "wall_s": wall,
                "ksym": job.ksym, "rc": rc, "out": out_dir, "traced": tracer is not None,
            })
            total += wall
        return total

    def run(self, seconds: float, first: int = 0, tracer=None) -> list[float]:
        """Whole cycles, at least one, while the next one fits in ``seconds``."""
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(self.cycle(first + len(walls), tracer))
            if time.perf_counter() - start + walls[-1] > seconds:
                return walls


def trace_metrics(tracer: Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics per traced cycle, and the layers' seconds per cycle."""
    n_cycles = len(traced_walls)
    totals = dict.fromkeys(SPAN_KINDS, 0.0)
    for per_kind in tracer.self_times().values():
        for kind, value in per_kind.items():
            totals[kind] += value
    traced = sum(totals.values())
    seconds = {layer_name(kind, "s"): value / n_cycles for kind, value in totals.items()}
    metrics = {layer_name(kind, "share"): value / traced for kind, value in totals.items()}
    metrics.update({name: value / n_cycles for name, value in tracer.counts.items()})
    for name, (num, den) in RATIOS.items():
        metrics[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
    )
    return metrics, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root holding src/")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import vcmarkov.cli

    if not os.path.abspath(vcmarkov.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"vcmarkov imported from {vcmarkov.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    with open(os.path.join("inputs", "inputs.json"), encoding="utf-8") as fh:
        inputs = WorkloadInputs.from_dict(json.load(fh))
    loop = Loop(vcmarkov.cli.main, cycle_jobs(args.workload, inputs, args.seed))

    warm_failures = []
    for job in warmup_jobs(args.workload, inputs, args.seed):
        rc = vcmarkov.cli.main(job.command(f"out/warm/{job.name}"))
        if rc != 0:
            warm_failures.append(f"warm-up {job.name}: exit code {rc}")

    result: dict = {"warm_failures": warm_failures}
    if args.trace:
        untraced = [loop.cycle(0)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds - untraced[0], first=1, tracer=tracer)
        finally:
            tracer.restore()
        result["accounting_errors"] = tracer.accounting_errors()
        result["trace"], result["layer_seconds"] = trace_metrics(tracer, traced, untraced)
        tracer.write("trace")
    else:
        loop.run(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = loop.records
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
