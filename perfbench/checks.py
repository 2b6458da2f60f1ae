"""Output checks for every timed job.

Two kinds of check run on a job's output directory:

* structural checks, for any seed: the expected files exist and carry the
  run's manifest hash, every number is finite, row counts follow from the
  inputs and arguments (replicate rows = blocks x replicates, encoded
  length = the generator's own symbol count, probe matches = a numpy count
  of class windows in the ``encode`` output), and every interval has
  lo <= hi;
* for the default seed, a comparison with stored reference summaries:
  floats within 1e-9 relative, everything else exact.

Outputs are byte-identical across repeats of a job (``SOURCE_DATE_EPOCH``
is set), so a directory whose digest matches one already verified passes
without being parsed again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from typing import Optional

import numpy as np

from gen import WorkloadInputs
from workloads import CLASSES, Job

DEFAULT_SEED = 0
REL_TOL = 1e-9

EXPECTED_FILES = {
    "bootstrap": {"replicates.csv", "intervals.csv"},
    "acf": {"acf.csv", "ljung_box.csv"},
    "regress": {"regression.json", "coefficients.csv", "md_blocks.csv"},
    "encode": {"sequence.txt", "origins.csv"},
    "probe": {
        "class_totals.csv", "matches.csv", "trigram_ranks.csv", "candidates.csv",
        "latin_tokens.csv", "latin_density.csv", "category_counts.csv",
        "category_trends.csv", "labeled_matches.csv", "cooccurrence.json",
    },
    "profile": {"blocks.csv", "correlations.csv"},
    "simulate": {"ensemble.csv", "simulation.json"},
}


class Csv:
    """A manifest-stamped CSV: stamp line, header, and rows of strings."""

    def __init__(self, text: str):
        stamp, _, body = text.partition("\n")
        self.stamp = stamp
        reader = csv.reader(io.StringIO(body))
        self.header = next(reader)
        self.rows = list(reader)

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def floats(self, name: str) -> list[float]:
        return [_as_float(v) for v in self.column(name) if v != ""]


def read_outputs(out_dir: str) -> dict[str, object]:
    """Parse every file of an output directory by its extension."""
    parsed: dict[str, object] = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            text = fh.read()
        if name.endswith(".csv"):
            parsed[name] = Csv(text)
        elif name.endswith(".json"):
            parsed[name] = json.loads(text)
        else:
            parsed[name] = text
    return parsed


def directory_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


# numpy >= 2 scalars written with repr(): a known output-format defect.
# The value inside still counts, so the checks see the numbers.
NUMPY_REPR = re.compile(r"np\.(?:float|int|uint)\d*\((.*)\)")


def _as_float(value: str) -> Optional[float]:
    match = NUMPY_REPR.fullmatch(value)
    try:
        return float(match.group(1) if match else value)
    except ValueError:
        return None


def _numeric(values: list[str]) -> Optional[list[Optional[float]]]:
    out = []
    for v in values:
        if v == "":
            out.append(None)
            continue
        f = _as_float(v)
        if f is None:
            return None
        out.append(f)
    return out


def _flatten(obj, prefix="") -> dict[str, object]:
    if isinstance(obj, dict):
        flat = {}
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
        return flat
    if isinstance(obj, list):
        flat = {}
        for i, v in enumerate(obj):
            flat.update(_flatten(v, f"{prefix}{i}."))
        return flat
    return {prefix[:-1]: obj}


# ---------------------------------------------------------------- summaries


def summarize(parsed: dict[str, object]) -> dict[str, object]:
    """Compact, tolerance-comparable description of a job's outputs.

    A numeric CSV column becomes [count, sum, sum of |x|, position-weighted
    sum, min, max], so a changed or moved value shows; a text column
    becomes the digest of its cells. JSON keeps every leaf except the
    manifest hash, the manifest only its input digests.
    """
    out: dict[str, object] = {}
    for name, content in parsed.items():
        if name == "manifest.json":
            out[name] = {"inputs": content["inputs"]}
        elif isinstance(content, Csv):
            columns = {}
            n = max(len(content.rows), 1)
            for col in content.header:
                cells = content.column(col)
                nums = _numeric(cells)
                if nums is None:
                    columns[col] = hashlib.sha256("\x1f".join(cells).encode()).hexdigest()
                    continue
                present = [(i, v) for i, v in enumerate(nums) if v is not None]
                vals = [v for _, v in present]
                columns[col] = [
                    len(vals),
                    math.fsum(vals),
                    math.fsum(abs(v) for v in vals),
                    math.fsum((i + 1) / n * v for i, v in present),
                    min(vals) if vals else 0.0,
                    max(vals) if vals else 0.0,
                ]
            out[name] = {"header": content.header, "rows": len(content.rows),
                         "columns": columns}
        elif isinstance(content, dict):
            out[name] = {k: v for k, v in _flatten(content).items() if k != "manifest_hash"}
        else:
            body = content.partition("\n")[2]
            out[name] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return out


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _close(float(a), float(b))
    return a == b


def compare_summaries(expected: dict, actual: dict) -> list[str]:
    """Differences between a reference summary and a job's summary."""
    problems = []
    if set(expected) != set(actual):
        return [f"files {sorted(actual)} != reference {sorted(expected)}"]
    for name, exp in expected.items():
        act = actual[name]
        if isinstance(exp, dict) and "columns" in exp:
            if exp["header"] != act["header"] or exp["rows"] != act["rows"]:
                problems.append(f"{name}: header or row count differs from reference")
                continue
            for col, e in exp["columns"].items():
                a = act["columns"][col]
                if isinstance(e, str) or isinstance(a, str):
                    ok = e == a
                else:
                    ok = (e[0] == a[0] and _close(e[1], a[1], e[2]) and _close(e[2], a[2])
                          and _close(e[3], a[3], e[2]) and _close(e[4], a[4])
                          and _close(e[5], a[5]))
                if not ok:
                    problems.append(f"{name}: column {col!r} differs from reference")
        elif isinstance(exp, dict):
            if set(exp) != set(act):
                problems.append(f"{name}: keys differ from reference")
                continue
            bad = [k for k in exp if not _same(exp[k], act[k])]
            if bad:
                problems.append(f"{name}: {', '.join(bad[:5])} differ from reference")
        elif exp != act:
            problems.append(f"{name}: content differs from reference")
    return problems


# ---------------------------------------------------------------- structure


def class_window_count(vc: str, classes) -> int:
    """Overlapping trigram windows of ``vc`` (a V/C string) in ``classes``."""
    x = (np.frombuffer(vc.encode("ascii"), dtype=np.uint8) == ord("V")).astype(np.int64)
    if x.size < 3:
        return 0
    codes = (x[:-2] << 2) | (x[1:-1] << 1) | x[2:]
    wanted = [int(c.replace("V", "1").replace("C", "0"), 2) for c in classes]
    return int(np.count_nonzero(np.isin(codes, wanted)))


def _intervals_ordered(lo: list[float], hi: list[float]) -> bool:
    return len(lo) == len(hi) and all(a <= b for a, b in zip(lo, hi))


def _probabilities(values: list[float]) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


class Checker:
    """Checks the jobs of one workload run; remembers what it verified."""

    def __init__(self, inputs: WorkloadInputs, reference: Optional[dict]):
        self.inputs = inputs
        self.reference = reference
        self.verified: set[str] = set()
        self.class_windows: dict[str, int] = {}
        self.defects: set[str] = set()

    def check(self, job: Job, out_dir: str) -> list[str]:
        """Problems with the outputs ``job`` wrote into ``out_dir``."""
        if not os.path.isdir(out_dir):
            return [f"{job.name}: no output directory"]
        digest = directory_digest(out_dir)
        if digest in self.verified:
            return []
        problems = [f"{job.name}: {p}" for p in self._check(job, read_outputs(out_dir))]
        if not problems:
            self.verified.add(digest)
        return problems

    def _check(self, job: Job, parsed: dict[str, object]) -> list[str]:
        names = set(parsed)
        expected = EXPECTED_FILES[job.kind] | {"manifest.json"}
        if names != expected:
            return [f"files {sorted(names)}, expected {sorted(expected)}"]
        problems = self._stamps(parsed)
        problems += getattr(self, f"_{job.kind}")(job, parsed)
        if self.reference is not None:
            ref = self.reference.get(job.name)
            if ref is None:
                problems.append("no reference summary for this job")
            else:
                problems += compare_summaries(ref, summarize(parsed))
        return problems

    def _stamps(self, parsed) -> list[str]:
        """Every data file carries the run's manifest hash; numbers are finite."""
        problems = []
        manifest_hash = parsed["manifest.json"]["manifest_hash"]
        stamp = f"# manifest: {manifest_hash}"
        for name, content in parsed.items():
            if name == "manifest.json":
                continue
            if isinstance(content, Csv):
                if content.stamp != stamp:
                    problems.append(f"{name}: missing the run's manifest hash")
                for col in content.header:
                    cells = content.column(col)
                    nums = _numeric(cells)
                    if nums is not None and any(NUMPY_REPR.fullmatch(v) for v in cells):
                        self.defects.add(f"{name}: {col!r} written as numpy scalar reprs")
                    if nums is not None and not all(
                        v is None or math.isfinite(v) for v in nums
                    ):
                        problems.append(f"{name}: non-finite value in {col!r}")
            elif isinstance(content, dict):
                if content.get("manifest_hash") != manifest_hash:
                    problems.append(f"{name}: missing the run's manifest hash")
                for key, v in _flatten(content).items():
                    if isinstance(v, float) and not math.isfinite(v):
                        problems.append(f"{name}: non-finite value at {key}")
            elif content.partition("\n")[0] != stamp:
                problems.append(f"{name}: missing the run's manifest hash")
        return problems

    def _blocks(self, job: Job) -> int:
        return sum(self.inputs.texts[label].blocks for label in job.texts)

    def _rows(self, parsed, name, expected) -> list[str]:
        got = len(parsed[name].rows)
        return [] if got == expected else [f"{name}: {got} rows, expected {expected}"]

    def _bootstrap(self, job, parsed) -> list[str]:
        blocks = self._blocks(job)
        iv = parsed["intervals.csv"]
        problems = self._rows(parsed, "replicates.csv", blocks * job.params["replicates"])
        problems += self._rows(parsed, "intervals.csv", 3 * blocks)
        if not _intervals_ordered(iv.floats("lo"), iv.floats("hi")):
            problems.append("intervals.csv: an interval has lo > hi")
        return problems

    def _acf(self, job, parsed) -> list[str]:
        blocks = self._blocks(job)
        acf = parsed["acf.csv"]
        problems = self._rows(parsed, "acf.csv", blocks * job.params["max_lag"])
        problems += self._rows(parsed, "ljung_box.csv", blocks)
        if not _intervals_ordered(acf.floats("band_lo"), acf.floats("band_hi")):
            problems.append("acf.csv: a band has lo > hi")
        if not _probabilities(parsed["ljung_box.csv"].floats("p_value")):
            problems.append("ljung_box.csv: p-value outside [0, 1]")
        return problems

    def _regress(self, job, parsed) -> list[str]:
        problems = self._rows(parsed, "coefficients.csv", 4 * job.params["replicates"])
        problems += self._rows(parsed, "md_blocks.csv", self._blocks(job))
        for name, coef in parsed["regression.json"]["coefficients"].items():
            if not coef["lo"] <= coef["hi"]:
                problems.append(f"regression.json: {name} interval has lo > hi")
        return problems

    def _encode(self, job, parsed) -> list[str]:
        (label,) = job.texts
        symbols = self.inputs.texts[label].symbols
        vc = parsed["sequence.txt"].partition("\n")[2].rstrip("\n")
        problems = self._rows(parsed, "origins.csv", symbols)
        if len(vc) != symbols or set(vc) - {"V", "C"}:
            problems.append(f"sequence.txt: {len(vc)} symbols, expected {symbols} of V/C")
        else:
            self.class_windows[label] = class_window_count(vc, CLASSES)
        return problems

    def _probe(self, job, parsed) -> list[str]:
        (label,) = job.texts
        matches = parsed["matches.csv"]
        n = len(matches.rows)
        problems = []
        expected = self.class_windows.get(label)
        if expected is None:
            problems.append("no verified encode output to count class windows in")
        elif n != expected:
            problems.append(f"matches.csv: {n} matches, numpy counts {expected} windows")
        if sum(int(v) for v in parsed["class_totals.csv"].column("count")) != n:
            problems.append("class_totals.csv: totals do not add up to the matches")
        if sum(int(v) for v in parsed["trigram_ranks.csv"].column("count")) != n:
            problems.append("trigram_ranks.csv: counts do not add up to the matches")
        single = sum(v == "true" for v in matches.column("single_word"))
        problems += self._rows(parsed, "labeled_matches.csv", single)
        if sum(int(v) for v in parsed["category_counts.csv"].column("count")) != single:
            problems.append("category_counts.csv: counts do not add up to the labels")
        if not all(p < job.params["threshold"]
                   for p in parsed["candidates.csv"].floats("spearman_p")):
            problems.append("candidates.csv: a candidate misses the threshold")
        if not _probabilities(parsed["category_trends.csv"].floats("p_value")):
            problems.append("category_trends.csv: p-value outside [0, 1]")
        return problems

    def _profile(self, job, parsed) -> list[str]:
        blocks = self._blocks(job)
        corr = parsed["correlations.csv"]
        problems = self._rows(parsed, "blocks.csv", blocks)
        problems += self._rows(parsed, "correlations.csv", 5)
        if not _probabilities(corr.floats("p_value")):
            problems.append("correlations.csv: p-value outside [0, 1]")
        method = "exact" if blocks <= 10 else "t-approx"
        if set(corr.column("method")) != {method}:
            problems.append(f"correlations.csv: expected the {method} method")
        return problems

    def _simulate(self, job, parsed) -> list[str]:
        problems = self._rows(parsed, "ensemble.csv", job.params["ensemble"])
        summary = parsed["simulation.json"]
        for key in ("md_interval", "discrepancy_interval", "median_interval"):
            if not summary[key]["lo"] <= summary[key]["hi"]:
                problems.append(f"simulation.json: {key} has lo > hi")
        return problems

