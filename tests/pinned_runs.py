"""The model commands whose output bytes ``test_fitpath`` pins.

They live apart from the test module so that a child process can run them
without loading pytest or hypothesis. Run as a script in an empty
directory, this writes the inputs there, runs the named commands and
prints the sha256 of every output file, with the bytes of a long ACF:

    PYTHONPATH=src python tests/pinned_runs.py profile acf
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from poems import build_poem
from vcmarkov import RUSSIAN, autocorrelation, cli

# (run name, argv after the output option); a.txt and b.txt are the two
# poems, and every run writes into the directory named by its run name
_SINGLE = ["--input", "a.txt", "--layout", "layout.json", "--block-len", "400"]
_MBB = ["--subblock-len", "50", "--replicates", "12", "--seed", "5"]
_REGRESS = [
    "--source", "a=a.txt", "--source", "b=b.txt",
    "--layout", "a=layout.json", "--layout", "b=layout.json", "--block-len", "400",
]
RUNS = {
    "profile": ["profile", *_SINGLE],
    "profile-simple": [
        "profile", *_SINGLE, "--scheme", "scheme.json", "--which-cf", "simple",
        "--control-set", "none",
    ],
    "profile-b": [
        "profile", "--input", "b.txt", "--layout", "layout.json", "--block-len", "400",
    ],
    "bootstrap": ["bootstrap", *_SINGLE, *_MBB],
    "bootstrap-simple": ["bootstrap", *_SINGLE, *_MBB, "--which-cf", "simple"],
    "acf": ["acf", *_SINGLE, *_MBB, "--max-lag", "6", "--lb-lag", "6"],
    "simulate": [
        "simulate", *_SINGLE, "--ensemble", "15", "--sim-length", "600",
        "--model-block", "2", "--seed", "3",
    ],
    "regress": ["regress", *_REGRESS, *_MBB],
    "regress-blocks": [
        "regress", "--blocks", "a=profile/blocks.csv", "--blocks", "b=profile-b/blocks.csv",
    ],
    "surrogate-profile": ["surrogate", "--surrogate-subblock-len", "40", "profile", *_SINGLE],
    "surrogate-bootstrap": [
        "surrogate", "--surrogate-seed", "2", "bootstrap", *_SINGLE, *_MBB,
    ],
    "surrogate-acf": ["surrogate", "acf", *_SINGLE, *_MBB],
    "surrogate-simulate": [
        "surrogate", "simulate", *_SINGLE, "--ensemble", "10", "--sim-length", "400",
    ],
    "surrogate-regress": ["surrogate", "--apply-to", "b", "regress", *_REGRESS, *_MBB],
}


def write_inputs() -> None:
    """The two poems, the layout and a scheme file, in the working directory."""
    with open("a.txt", "w", encoding="utf-8") as fh:
        fh.write(build_poem())
    with open("b.txt", "w", encoding="utf-8") as fh:
        fh.write(build_poem(n_parts=4, stanzas_per_part=12, seed=9))
    with open("layout.json", "w", encoding="utf-8") as fh:
        json.dump({"part_numerals": "roman", "stanza_numerals": "arabic"}, fh)
    with open("scheme.json", "w", encoding="utf-8") as fh:
        json.dump({**RUSSIAN.to_dict(), "name": "ru-file"}, fh)


def output_digests(runs: dict[str, list[str]]) -> dict[str, str]:
    """Write the inputs, run each command in the working directory and
    return the sha256 of every output file, keyed "run/file"."""
    write_inputs()
    digests = {}
    for run, argv in runs.items():
        assert cli.main([*argv, "--out", run]) == 0, run
        for name in sorted(os.listdir(run)):
            with open(os.path.join(run, name), "rb") as fh:
                digests[f"{run}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def long_symbols() -> np.ndarray:
    """50,000 independent symbols: long enough for OpenBLAS to thread a dot
    product over them."""
    return np.random.default_rng(0).integers(0, 2, 50_000, dtype=np.uint8)


if __name__ == "__main__":
    print(json.dumps({
        "files": output_digests({run: RUNS[run] for run in sys.argv[1:]}),
        "acf": autocorrelation(long_symbols(), 10).rho.tobytes().hex(),
    }))
