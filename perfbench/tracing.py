"""Per-layer tracing from outside the package.

The tracer replaces public functions of the ``vcmarkov`` modules where
their callers look them up (``vcmarkov.pipeline.sequence_report`` is the
name ``bootstrap_blocks`` calls, ``vcmarkov.probes.spearman_test`` the one
``trigram_trend_table`` calls) with wrappers that record a span around the
call and update counts. Spans live in memory and are written out when the
run ends; :meth:`Tracer.restore` puts the original functions back.

A span kind's self time is its duration minus the time its child spans
cover. The job's root span is the ``cli`` layer, so the self times of all
kinds of one job add up to its wall time.

``schemes.classify`` runs once per character and gets no wrapper: the
wrapper would cost more than the call. Its time stays inside
``corpus.parse`` and ``encoding.encode``.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# (module, attribute, span kind); each kind is reported as "<kind>_s"
SPAN_TABLE: tuple[tuple[str, str, str], ...] = (
    ("vcmarkov.cli", "load_source", "pipeline"),
    ("vcmarkov.cli", "profile_rows", "pipeline"),
    ("vcmarkov.cli", "md_parameter_correlations", "pipeline"),
    ("vcmarkov.cli", "bootstrap_blocks", "pipeline"),
    ("vcmarkov.cli", "acf_blocks", "pipeline"),
    ("vcmarkov.cli", "simulation_ensemble", "pipeline"),
    ("vcmarkov.cli", "blocks_by_label", "pipeline"),
    ("vcmarkov.pipeline", "parse_corpus", "corpus.parse"),
    ("vcmarkov.cli", "extract_latin_tokens", "corpus.latin_tokens"),
    ("vcmarkov.pipeline", "encode_text", "encoding.encode"),
    ("vcmarkov.pipeline", "segment_blocks", "encoding.encode"),
    ("vcmarkov.pipeline", "sequence_report", "markov.report"),
    ("vcmarkov.pipeline", "fit_sequence", "markov.report"),
    ("vcmarkov.pipeline", "dispersion_report", "markov.report"),
    ("vcmarkov.pipeline", "count_ngrams", "markov.report"),
    ("vcmarkov.pipeline", "trigram_discrepancy", "markov.report"),
    ("vcmarkov.stats", "sequence_report", "markov.report"),
    ("vcmarkov.pipeline", "simulate_sequence", "markov.simulate"),
    ("vcmarkov.pipeline", "mbb_replicate", "resample.mbb"),
    ("vcmarkov.stats", "mbb_replicate", "resample.mbb"),
    ("vcmarkov.resample", "derived_rng", "resample.rng"),
    ("vcmarkov.pipeline", "derived_rng", "resample.rng"),
    ("vcmarkov.pipeline", "percentile_interval", "resample.interval"),
    ("vcmarkov.stats", "percentile_interval", "resample.interval"),
    ("vcmarkov.pipeline", "autocorrelation", "stats.acf"),
    ("vcmarkov.pipeline", "ljung_box_test", "stats.acf"),
    ("vcmarkov.pipeline", "partial_spearman", "stats.partial_spearman"),
    ("vcmarkov.stats", "spearman_test", "stats.spearman"),
    ("vcmarkov.probes", "spearman_test", "stats.spearman"),
    ("vcmarkov.stats", "fit_interaction_model", "stats.ols"),
    ("vcmarkov.cli", "bootstrap_model_coefficients", "stats.coef_bootstrap"),
    ("vcmarkov.cli", "regression_rows_from_blocks", "stats.coef_bootstrap"),
    ("vcmarkov.stats", "regression_rows_from_blocks", "stats.coef_bootstrap"),
    ("vcmarkov.cli", "scan_pattern_class", "probes.scan"),
    ("vcmarkov.cli", "trigram_trend_table", "probes.trend"),
    ("vcmarkov.cli", "rank_letter_trigrams", "probes.rank"),
    ("vcmarkov.probes", "rank_letter_trigrams", "probes.rank"),
    ("vcmarkov.cli", "categorize_matches", "probes.categorize"),
    ("vcmarkov.cli", "name_cooccurrence", "probes.cooccurrence"),
    ("vcmarkov.cli", "build_manifest", "manifest.hash"),
    ("vcmarkov.manifest.OutputSet", "write_csv", "manifest.write"),
    ("vcmarkov.manifest.OutputSet", "write_json", "manifest.write"),
    ("vcmarkov.manifest.OutputSet", "write_text", "manifest.write"),
    ("vcmarkov.manifest.OutputSet", "write_manifest", "manifest.write"),
    ("vcmarkov.manifest.OutputSet", "discard_all", "manifest.write"),
)

ROOT_KIND = "cli"
SPAN_KINDS: tuple[str, ...] = (ROOT_KIND,) + tuple(
    dict.fromkeys(kind for _, _, kind in SPAN_TABLE)
)

# count name -> unit; reported per cycle next to the self times
COUNTS: dict[str, str] = {
    "corpus.chars": "count",
    "encoding.symbols": "count",
    "markov.report_calls": "count",
    "markov.ngram_windows": "count",
    "markov.sim_symbols": "count",
    "markov.domain_errors": "count",
    "resample.replicates": "count",
    "stats.acf_calls": "count",
    "stats.spearman_calls": "count",
    "stats.spearman_exact_calls": "count",
    "stats.permutations_enumerated": "count",
    "stats.ols_fits": "count",
    "probes.matches": "count",
    "probes.trend_tests": "count",
    "probes.candidates": "count",
    "manifest.bytes": "bytes",
    "manifest.rows": "count",
    "manifest.discards": "count",
}

# ratio name -> (numerator count, denominator count): useful / attempted
RATIOS: dict[str, tuple[str, str]] = {
    "encoding.symbols_per_char": ("encoding.symbols", "corpus.chars"),
    "probes.candidate_ratio": ("probes.candidates", "probes.trend_tests"),
}


def layer_name(kind: str, suffix: str) -> str:
    """``cli.self_s``, ``markov.report_s``; ``cli.self_share``, ...."""
    base = f"{kind}.self" if kind in (ROOT_KIND, "pipeline") else kind
    return f"{base}_{suffix}"


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric of a traced run's result line, with its unit.

    Layer times appear as shares of the traced cycle's wall time: they sum
    to 1, do not move with the machine's speed, and read 0 for a layer
    that does not run on the workload. The seconds per cycle go to the
    readable report.
    """
    names = {layer_name(kind, "share"): "ratio" for kind in SPAN_KINDS}
    names.update(COUNTS)
    names.update({ratio: "ratio" for ratio in RATIOS})
    names["trace.overhead_s"] = "s"
    return names


def _resolve(path: str):
    """Object named by a dotted path whose head is an importable module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


@dataclass
class Tracer:
    """In-memory spans and counts for the jobs of one traced run.

    A span is ``[kind, start, end, parent, job]``; ``parent`` indexes the
    enclosing span (-1 for a job's root) and ``job`` numbers the job.
    """

    spans: list[list] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    _stack: list[int] = field(default_factory=list)
    _job: int = -1
    _installed: list[tuple[object, str, object]] = field(default_factory=list)
    _domain_error: type = Exception

    # ------------------------------------------------------------ recording

    def _open(self, kind: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([kind, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def job(self, call: Callable[[], int]) -> int:
        """Run one job under a root span and return its exit code."""
        self._job += 1
        idx = self._open(ROOT_KIND)
        try:
            return call()
        finally:
            self._close(idx)

    def open_kind(self) -> Optional[str]:
        """Kind of the innermost open span; in a hook, the caller's span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, kind: str, fn, hook=None):
        """``fn`` under a span of ``kind``; ``hook(args, kwargs, result)``
        updates counts after a successful call."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(kind)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if kind.startswith("markov.") and isinstance(exc, tracer._domain_error):
                    tracer.count("markov.domain_errors")
                raise
            tracer._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every function of :data:`SPAN_TABLE` and the n-gram counter."""
        self._domain_error = _resolve("vcmarkov.errors.DomainError")
        hooks = _hooks(self)
        for owner_path, attr, kind in SPAN_TABLE:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            if attr == "write_csv":
                original = self._counting_rows(original)
            self._set(owner, attr, self.wrap(kind, original, hooks.get((owner_path, attr))))
        # count_ngrams runs three times per model fit; a count is enough here
        markov = _resolve("vcmarkov.markov")
        count_ngrams = markov.count_ngrams

        def counted(seq, order):
            result = count_ngrams(seq, order)
            self.counts["markov.ngram_windows"] += result.n_effective
            return result

        self._set(markov, "count_ngrams", counted)

    def _counting_rows(self, write_csv):
        """``OutputSet.write_csv`` counting the rows it consumes, so rows
        produced lazily are still produced inside the write span."""
        counts = self.counts

        def write_counted(output_set, name, header, rows):
            def counted_rows():
                for row in rows:
                    counts["manifest.rows"] += 1
                    yield row

            return write_csv(output_set, name, header, counted_rows())

        return write_counted

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job: span kind -> self time in seconds."""
        child = [0.0] * len(self.spans)
        for kind, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for i, (kind, start, end, _, job) in enumerate(self.spans):
            per_job = out.setdefault(job, dict.fromkeys(SPAN_KINDS, 0.0))
            per_job[kind] += (end - start) - child[i]
        return out

    def wall_times(self) -> dict[int, float]:
        return {
            job: end - start
            for kind, start, end, parent, job in self.spans
            if parent < 0
        }

    def accounting_errors(self, tolerance_s: float = 1e-6) -> list[str]:
        """Jobs whose self times do not add up to their wall time, and
        spans that do not nest inside their parent or job."""
        problems = []
        walls = self.wall_times()
        for job, per_kind in self.self_times().items():
            total = sum(per_kind.values())
            wall = walls.get(job)
            if wall is None:
                problems.append(f"job {job}: spans without a root span")
            elif abs(total - wall) > tolerance_s:
                problems.append(f"job {job}: self times sum to {total!r} s, wall {wall!r} s")
        for i, (kind, start, end, parent, job) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({kind}) ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if p[4] != job or start < p[1] or end > p[2]:
                    problems.append(f"span {i} ({kind}) escapes its parent {parent}")
        return problems

    def write(self, directory: str) -> None:
        """Write spans and counts as CSV files into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.csv"), "w", encoding="utf-8") as fh:
            fh.write("span,kind,start,end,parent,job\n")
            for i, (kind, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{kind},{start!r},{end!r},{parent},{job}\n")
        with open(os.path.join(directory, "counts.csv"), "w", encoding="utf-8") as fh:
            fh.write("count,value\n")
            for name, value in self.counts.items():
                fh.write(f"{name},{value!r}\n")


def _hooks(tracer: Tracer) -> dict[tuple[str, str], Callable]:
    count = tracer.count

    def chars(args, kwargs, result):
        count("corpus.chars", len(args[0] if args else kwargs["raw"]))

    def encoded(args, kwargs, result):
        count("encoding.symbols", len(result))

    def fit(args, kwargs, result):
        count("markov.report_calls")

    def windows(args, kwargs, result):
        count("markov.ngram_windows", result.n_effective)

    def simulated(args, kwargs, result):
        count("markov.sim_symbols", len(result))

    def replicate(args, kwargs, result):
        count("resample.replicates")

    def acf(args, kwargs, result):
        count("stats.acf_calls")

    def spearman(args, kwargs, result):
        count("stats.spearman_calls")
        if result.method == "exact":
            count("stats.spearman_exact_calls")
            count("stats.permutations_enumerated", math.factorial(result.n))
        if tracer.open_kind() == "probes.trend":
            count("probes.trend_tests")

    def ols(args, kwargs, result):
        count("stats.ols_fits")

    def matches(args, kwargs, result):
        count("probes.matches", len(result))

    def candidates(args, kwargs, result):
        count("probes.candidates", len(result))

    def written(args, kwargs, result):
        count("manifest.bytes", os.path.getsize(result))

    def discarded(args, kwargs, result):
        count("manifest.discards")

    return {
        ("vcmarkov.pipeline", "parse_corpus"): chars,
        ("vcmarkov.pipeline", "encode_text"): encoded,
        ("vcmarkov.pipeline", "sequence_report"): fit,
        ("vcmarkov.pipeline", "fit_sequence"): fit,
        ("vcmarkov.stats", "sequence_report"): fit,
        ("vcmarkov.pipeline", "count_ngrams"): windows,
        ("vcmarkov.pipeline", "simulate_sequence"): simulated,
        ("vcmarkov.pipeline", "mbb_replicate"): replicate,
        ("vcmarkov.stats", "mbb_replicate"): replicate,
        ("vcmarkov.pipeline", "autocorrelation"): acf,
        ("vcmarkov.stats", "spearman_test"): spearman,
        ("vcmarkov.probes", "spearman_test"): spearman,
        ("vcmarkov.stats", "fit_interaction_model"): ols,
        ("vcmarkov.cli", "scan_pattern_class"): matches,
        ("vcmarkov.cli", "trigram_trend_table"): candidates,
        ("vcmarkov.manifest.OutputSet", "write_csv"): written,
        ("vcmarkov.manifest.OutputSet", "write_json"): written,
        ("vcmarkov.manifest.OutputSet", "write_text"): written,
        ("vcmarkov.manifest.OutputSet", "write_manifest"): written,
        ("vcmarkov.manifest.OutputSet", "discard_all"): discarded,
    }
