"""Write ``reference.json``: output summaries of every job at the default seed.

Run from the root of a checkout after a change that is meant to alter the
program's outputs:

    python3 perfbench/make_reference.py

Each workload's jobs run once on the inputs of the default seed; their
outputs must pass the structural checks before they are summarized.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import DEFAULT_SEED, Checker, read_outputs, summarize  # noqa: E402
from gen import generate  # noqa: E402
from workloads import WORKLOADS, cycle_jobs  # noqa: E402


def main() -> int:
    from vcmarkov.cli import main as cli_main

    os.environ["SOURCE_DATE_EPOCH"] = "0"
    reference = {}
    for workload in WORKLOADS:
        workdir = os.path.join(ROOT, ".bench_work", "reference", workload)
        shutil.rmtree(workdir, ignore_errors=True)
        inputs = generate(workload, DEFAULT_SEED, os.path.join(workdir, "inputs"))
        os.chdir(workdir)
        checker = Checker(inputs, None)
        reference[workload] = {}
        for job in cycle_jobs(workload, inputs, DEFAULT_SEED):
            out_dir = f"out/{job.name}"
            rc = cli_main(job.command(out_dir))
            problems = [f"exit code {rc}"] if rc else checker.check(job, out_dir)
            if problems:
                print(f"{workload}/{job.name}: {problems}", file=sys.stderr)
                return 1
            reference[workload][job.name] = summarize(read_outputs(out_dir))
            print(f"{workload}/{job.name}: ok", file=sys.stderr)
        os.chdir(ROOT)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
