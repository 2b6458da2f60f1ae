"""Tests of the benchmark itself: input generation, output checks, tracing.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

import vcmarkov.cli
import vcmarkov.pipeline
import vcmarkov.stats
from checks import Checker, compare_summaries, read_outputs, summarize
from gen import LAYOUT, WorkloadInputs, generate
from tracing import Tracer, per_layer_names
from worker import trace_metrics
from workloads import Job, warmup_jobs


def _digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("probe")
    inputs = generate("probe", 11, str(workdir / "inputs"))
    return workdir, inputs


def test_same_seed_gives_identical_files(probe_inputs, tmp_path):
    workdir, _ = probe_inputs
    generate("probe", 11, str(tmp_path / "again"))
    generate("probe", 12, str(tmp_path / "other"))
    first = _digests(str(workdir / "inputs"))
    assert _digests(str(tmp_path / "again")) == first
    other = _digests(str(tmp_path / "other"))
    assert other["long.txt"] != first["long.txt"]
    assert other["layout.json"] == first["layout.json"]


def test_texts_carry_the_layout_features(probe_inputs):
    workdir, inputs = probe_inputs
    text = (workdir / "inputs" / "long.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert {"I", "II", "III", "VIII"} <= set(lines)
    assert "@epigraph" in lines
    assert any(ln.startswith(". . .") for ln in lines)
    assert any(ln.count(".") == 1 and ln.replace(".", " ").split()[0].isdigit()
               and len(ln.split()) == 2 for ln in lines)
    assert any(p in text for p in ("comme il faut", "dandy", "madame", "vale"))
    assert (workdir / "inputs" / "annotations.csv").read_text(
        encoding="utf-8").startswith("context,lemma,category\n")
    assert (workdir / "inputs" / "names.csv").read_text(
        encoding="utf-8").startswith("character,form\n")
    assert inputs.texts["long"].blocks == 30


def test_symbol_count_matches_the_package(probe_inputs):
    from vcmarkov import RUSSIAN, LayoutConfig, encode_text, parse_corpus

    workdir, inputs = probe_inputs
    spec = inputs.texts["warm_ru"]
    raw = (workdir / "inputs" / spec.path).read_text(encoding="utf-8")
    corpus = parse_corpus(raw, LayoutConfig.from_dict(LAYOUT), scheme=RUSSIAN)
    seq = encode_text(corpus, RUSSIAN)
    assert len(seq) == spec.symbols
    report = vcmarkov.pipeline.sequence_report(seq.symbols)
    assert 0.0 < report.md < 1.0


OUT = "out/boot"


@pytest.fixture()
def warm_bootstrap(probe_inputs, monkeypatch):
    """A small real bootstrap job, run in the probe inputs' directory."""
    workdir, inputs = probe_inputs
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["bootstrap", "--input", "inputs/warm_ru.txt", "--layout", "inputs/layout.json",
            "--block-len", "1000", "--replicates", "20", "--seed", "1"]
    job = Job("boot", "bootstrap", argv, 0.0, ("warm_ru",), {"replicates": 20})
    shutil.rmtree(OUT, ignore_errors=True)
    assert vcmarkov.cli.main(job.command(OUT)) == 0
    return job, inputs


def _perturb(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def test_reference_check_rejects_a_perturbed_output(warm_bootstrap):
    job, inputs = warm_bootstrap
    reference = {job.name: summarize(read_outputs(OUT))}
    assert Checker(inputs, reference).check(job, OUT) == []

    rows = read_outputs(OUT)["intervals.csv"].rows
    point = rows[0][3]
    _perturb(f"{OUT}/intervals.csv", point, repr(float(point) * (1 + 1e-6)))
    problems = Checker(inputs, reference).check(job, OUT)
    assert any("intervals.csv" in p and "reference" in p for p in problems)


def test_reference_check_tolerates_rounding_and_sees_moved_values(warm_bootstrap):
    job, inputs = warm_bootstrap
    parsed = read_outputs(OUT)
    expected = summarize(parsed)
    rows = parsed["intervals.csv"].rows
    rows[0][3] = repr(float(rows[0][3]) * (1 + 1e-13))
    assert compare_summaries(expected, summarize(parsed)) == []
    rows[0][4], rows[1][4] = rows[1][4], rows[0][4]
    assert compare_summaries(expected, summarize(parsed)) != []


def test_structural_checks_need_no_reference(warm_bootstrap):
    job, inputs = warm_bootstrap
    assert Checker(inputs, None).check(job, OUT) == []
    point = read_outputs(OUT)["intervals.csv"].rows[0][3]
    _perturb(f"{OUT}/intervals.csv", f",{point},", ",nan,")
    problems = Checker(inputs, None).check(job, OUT)
    assert any("non-finite" in p for p in problems)


def test_trace_self_times_add_up_to_job_wall_time(probe_inputs, tmp_path, monkeypatch):
    workdir, inputs = probe_inputs
    generate("resample", 5, str(tmp_path / "inputs"))
    resample_inputs = WorkloadInputs.from_dict(
        json.loads((tmp_path / "inputs" / "inputs.json").read_text(encoding="utf-8")))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    original = vcmarkov.pipeline.sequence_report
    tracer = Tracer()
    tracer.install()
    try:
        assert vcmarkov.pipeline.sequence_report is not original
        for directory, jobs in ((tmp_path, warmup_jobs("resample", resample_inputs, 3)),
                                (workdir, warmup_jobs("probe", inputs, 3))):
            monkeypatch.chdir(directory)
            for job in jobs:
                out_dir = f"out/{job.name}"
                assert tracer.job(lambda: vcmarkov.cli.main(job.command(out_dir))) == 0
    finally:
        tracer.restore()
    assert vcmarkov.pipeline.sequence_report is original
    assert vcmarkov.stats.spearman_test.__name__ == "spearman_test"
    assert tracer.accounting_errors() == []
    walls = tracer.wall_times()
    for job_id, per_kind in tracer.self_times().items():
        assert sum(per_kind.values()) == pytest.approx(walls[job_id], abs=1e-6)
        assert all(v >= 0.0 for v in per_kind.values())
    warm = resample_inputs.texts
    blocks = warm["warm_ru"].blocks
    shares, seconds = trace_metrics(tracer, [1.0], [1.0])
    assert sum(v for k, v in shares.items() if k.endswith("_share")) == pytest.approx(1.0)
    assert seconds["markov.report_s"] > 0.0 and seconds["probes.scan_s"] > 0.0
    assert tracer.counts["resample.replicates"] == 20 * (3 * blocks + warm["warm_it"].blocks)
    assert tracer.counts["stats.ols_fits"] == 21
    assert tracer.counts["probes.trend_tests"] > 0
    assert tracer.counts["markov.ngram_windows"] > 0


def test_trace_accounting_flags_a_span_outside_its_parent():
    tracer = Tracer()
    tracer.spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["pipeline", 1.0, 4.0, 0, 0],
        ["markov.report", 2.0, 3.0, 1, 0],
    ]
    per_kind = tracer.self_times()[0]
    assert per_kind["cli"] == 7.0 and per_kind["pipeline"] == 2.0
    assert per_kind["markov.report"] == 1.0
    assert tracer.accounting_errors() == []
    tracer.spans[2][2] = 5.0
    assert tracer.accounting_errors()


def test_every_per_layer_metric_is_declared():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == per_layer_names()
