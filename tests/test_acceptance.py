"""Acceptance gate.

The first half runs on synthetic data only and pins the core numerical
contracts: dispersion formulas against independent oracles, simulator
round trips, bootstrap spread, portmanteau calibration, surrogate null
behavior, and exact regression recovery.

The second half checks known reference values on user-supplied texts. It
needs VCMARKOV_CORPUS_DIR to point at a directory with ru.txt, it.txt,
ru_layout.json, it_layout.json, and (for the category checks) an
annotations.csv; without the variable those tests skip.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from vcmarkov import (
    FourStateModel,
    ITALIAN,
    MbbConfig,
    RUSSIAN,
    load_layout,
    scan_pattern_class,
)
from vcmarkov.markov import (
    dispersion_report,
    fit_sequence,
    sequence_report,
    simulate_sequence,
)
from vcmarkov.pipeline import (
    blocks_by_label,
    load_source,
    md_parameter_correlations,
    profile_rows,
)
from vcmarkov.probes import PATTERNS, categorize_matches, load_annotation_csv
from vcmarkov.resample import (
    derived_rng,
    make_surrogate,
    mbb_replicate,
    replicate_symbols,
    subblocks,
)
from vcmarkov.stats import (
    autocorrelation,
    bootstrap_model_coefficients,
    fit_interaction_model,
    ljung_box_test,
    regression_rows_from_blocks,
)

CORPUS_DIR = os.environ.get("VCMARKOV_CORPUS_DIR")


# ================================================================ synthetic


def test_cf_simple_matches_independent_bigram_oracle():
    """CF_simple from the fitted model equals a brute-force evaluation.

    The oracle counts bigrams with plain boolean reductions, never touching
    the n-gram counter, and applies the closed form directly. The collapsed
    four-state model (both contexts forced back to the one-symbol
    probabilities) must reproduce CF_simple through the two-symbol formula
    bit for bit.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p00, p01, p10, p11 = rng.uniform(0.05, 0.95, size=4)
        model = FourStateModel(p00=p00, p01=p01, p10=p10, p11=p11)
        seq = simulate_sequence(model, 100_000, seed=int(rng.integers(2**32)))
        x = seq.symbols.astype(bool)
        a, b = x[:-1], x[1:]
        p1_oracle = np.sum(a & b) / np.sum(a)
        p0_oracle = np.sum(~a & b) / np.sum(~a)
        d = p1_oracle - p0_oracle
        cf_oracle = (1.0 + d) / (1.0 - d)
        rep = sequence_report(seq, which_cf="simple")
        worst = max(worst, abs(rep.cf_simple - cf_oracle))

        two, four = fit_sequence(seq)
        collapsed = FourStateModel(
            p11=two.p1, p10=two.p1, p01=two.p0, p00=two.p0
        )
        both = dispersion_report(two, collapsed, n=len(seq))
        assert both.cf_complex == both.cf_simple
        assert both.eta == 0.0 and both.nu == 0.0
    assert worst <= 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_simulator_parameters_recoverable(fixture_chain):
    t0 = time.perf_counter()
    seq = simulate_sequence(fixture_chain, 1_000_000, seed=99)
    _, four = fit_sequence(seq)
    for name in ("p00", "p01", "p10", "p11"):
        assert abs(getattr(four, name) - getattr(fixture_chain, name)) <= 0.005
    assert time.perf_counter() - t0 < 30.0


def test_mbb_relative_spread_within_ten_percent(fixture_chain):
    block = simulate_sequence(fixture_chain, 10_000, seed=2024).symbols
    cfg = MbbConfig(10_000, 250, 1_000, master_seed=11)
    values = np.empty(cfg.n_replicates)
    for r in range(cfg.n_replicates):
        rep = replicate_symbols(subblocks(block, 250), mbb_replicate(block, cfg, r))
        values[r] = sequence_report(rep).cf_complex
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    assert med > 0
    assert (q3 - q1) / med <= 0.10


def test_ljung_box_uniform_on_independent_sequences():
    n_seeds, h = 1000, 10
    pvals = np.empty(n_seeds)
    for s in range(n_seeds):
        x = derived_rng(0, 99, s).integers(0, 2, size=4000).astype(np.uint8)
        pvals[s] = ljung_box_test(autocorrelation(x, h), h).p_value
    pvals.sort()
    grid = np.arange(n_seeds, dtype=float)
    ks = max(
        np.max(np.abs(grid / n_seeds - pvals)),
        np.max(np.abs((grid + 1) / n_seeds - pvals)),
    )
    assert ks < 0.05


def test_ljung_box_detects_chain_dependence(fixture_chain):
    x = simulate_sequence(fixture_chain, 4000, seed=3).symbols
    res = ljung_box_test(autocorrelation(x, 10), 10)
    assert res.p_value < 1e-4


def _trended_blocks(run: int, n_blocks: int = 5, block_len: int = 2000):
    """Two sources whose chain drifts across blocks at different rates."""
    start = dict(p00=0.82, p01=0.55, p10=0.12, p11=0.08)
    stop = dict(p00=0.55, p01=0.48, p10=0.45, p11=0.40)
    slopes = {"aa": 1.0, "bb": 0.5}
    blocks = {}
    for si, (label, slope) in enumerate(sorted(slopes.items())):
        per_source = []
        for b in range(n_blocks):
            f = slope * b / (n_blocks - 1)
            model = FourStateModel(**{
                k: (1 - f) * start[k] + f * stop[k] for k in start
            })
            seed = run * 1000 + si * 100 + b
            per_source.append(simulate_sequence(model, block_len, seed=seed).symbols)
        blocks[label] = per_source
    return blocks


def test_injected_trend_is_detected_on_raw_blocks():
    """Positive control for the surrogate test: the slopes really differ."""
    hits = 0
    for run in range(20):
        blocks = _trended_blocks(run)
        fit = bootstrap_model_coefficients(
            blocks, regression_rows_from_blocks(blocks),
            MbbConfig(2000, 100, 250, master_seed=run),
        )
        iv = fit.bootstrap["interaction"].interval
        if iv.hi < 0 or iv.lo > 0:
            hits += 1
    assert hits == 20


def test_surrogates_destroy_injected_trend():
    contains_zero = 0
    for run in range(100):
        blocks = _trended_blocks(run)
        shuffled = {}
        for si, label in enumerate(sorted(blocks)):
            joined = np.concatenate(blocks[label])
            surr = make_surrogate(joined, 100, seed=run * 7 + si)
            shuffled[label] = [
                surr[b * 2000:(b + 1) * 2000] for b in range(5)
            ]
        fit = bootstrap_model_coefficients(
            shuffled, regression_rows_from_blocks(shuffled),
            MbbConfig(2000, 100, 250, master_seed=run),
        )
        iv = fit.bootstrap["interaction"].interval
        if iv.lo <= 0.0 <= iv.hi:
            contains_zero += 1
    assert contains_zero >= 90


def test_interaction_model_recovers_planted_coefficients():
    b0, b1, b2, b3 = 0.2, -0.015, 0.05, -0.02
    rows = []
    for label, ind in (("aa", 0.0), ("bb", 1.0)):
        for block in range(1, 9):
            y = b0 + b1 * block + b2 * ind + b3 * block * ind
            rows.append((y, float(block), label))
    fit = fit_interaction_model(rows)
    assert abs(fit.coefficients["intercept"] - b0) <= 1e-10
    assert abs(fit.coefficients["block"] - b1) <= 1e-10
    assert abs(fit.coefficients["source"] - b2) <= 1e-10
    assert abs(fit.coefficients["interaction"] - b3) <= 1e-10
    assert fit.r_squared == pytest.approx(1.0)


# ============================================================ reference texts


def _corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name)


@pytest.fixture(scope="module")
def pipeline():
    """Run the full blockwise pipeline on both reference texts once."""
    if not CORPUS_DIR:
        pytest.skip("VCMARKOV_CORPUS_DIR not set")
    for name in ("ru.txt", "it.txt", "ru_layout.json", "it_layout.json"):
        if not os.path.exists(_corpus_path(name)):
            pytest.skip(f"{name} missing from VCMARKOV_CORPUS_DIR")
    t0 = time.perf_counter()
    sources = {}
    for label, scheme in (("ru", RUSSIAN), ("it", ITALIAN)):
        with open(_corpus_path(f"{label}.txt"), encoding="utf-8-sig") as fh:
            text = fh.read()
        sources[label] = load_source(
            text,
            load_layout(_corpus_path(f"{label}_layout.json")),
            scheme,
            label=label,
            block_len=10_000,
            keep_partial=True,
            min_partial=5_000,
        )
    correlations = {
        label: {
            row[1]: row
            for row in md_parameter_correlations(profile_rows(src), control_set="block")
        }
        for label, src in sources.items()
    }
    blocks = blocks_by_label(list(sources.values()))
    fit = bootstrap_model_coefficients(
        blocks, regression_rows_from_blocks(blocks),
        MbbConfig(10_000, 250, 1_000, master_seed=0),
        baseline="ru",
    )
    ru = sources["ru"]
    matches = {
        label: scan_pattern_class(
            src.sequence, src.corpus, ["VVV", "CCC", "VVC", "CCV"],
            segmentation=src.segmentation,
        )
        for label, src in sources.items()
    }
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        sources=sources, correlations=correlations, fit=fit,
        matches=matches, ru=ru, elapsed=elapsed,
    )


def test_corpus_sequence_lengths(pipeline):
    assert abs(len(pipeline.sources["ru"].sequence) - 107_168) <= 200
    assert abs(len(pipeline.sources["it"].sequence) - 123_327) <= 200


def test_corpus_opening_stanza_dispersion(pipeline):
    """Dispersion of the first 76 stanzas of the Russian text."""
    corpus = pipeline.ru.corpus
    wanted = set()
    for part in corpus.parts:
        for stanza in part.stanzas:
            if stanza.epigraph:
                continue
            if len(wanted) == 76:
                break
            wanted.add((part.index, stanza.index))
    origin = pipeline.ru.sequence.origin
    keys = origin[:, 0].astype(np.int64) * 1_000_000 + origin[:, 1]
    wanted_keys = np.array(
        [p * 1_000_000 + s for p, s in sorted(wanted)], dtype=np.int64
    )
    mask = np.isin(keys, wanted_keys)
    x = pipeline.ru.sequence.symbols[mask]
    two, four = fit_sequence(x)
    rep = dispersion_report(two, four, n=int(x.size))
    assert rep.cf_simple == pytest.approx(0.303, abs=0.003)
    assert rep.cf_complex == pytest.approx(0.199, abs=0.005)
    assert rep.eta == pytest.approx(-0.021, abs=0.005)
    assert rep.nu == pytest.approx(-0.297, abs=0.01)


TRIGRAM_CLASS_TOTALS = {
    "ru": {"CCC": 3029, "CCV": 17058, "VVC": 5660, "VVV": 762},
    "it": {"CCC": 1744, "CCV": 18345, "VVC": 11605, "VVV": 1656},
}


@pytest.mark.parametrize("label", ("ru", "it"))
def test_corpus_trigram_class_counts(pipeline, label):
    totals = np.bincount(pipeline.matches[label].vc_class, minlength=8)
    counts = dict(zip(PATTERNS, totals.tolist()))
    for cls, expected in TRIGRAM_CLASS_TOTALS[label].items():
        assert abs(counts[cls] - expected) <= 0.01 * expected, (cls, counts[cls])


def test_corpus_interaction_negative(pipeline):
    inter = pipeline.fit.bootstrap["interaction"]
    assert pipeline.fit.coefficients["interaction"] < 0
    assert inter.interval.hi < 0


@pytest.mark.parametrize(
    "label,alpha", (("ru", 0.05), ("it", 0.001))
)
def test_corpus_context_parameters_track_md(pipeline, label, alpha):
    for variable in ("q00", "p11"):
        _, _, rho, p_value, _, _, _ = pipeline.correlations[label][variable]
        assert rho < 0, (label, variable, rho)
        assert p_value < alpha, (label, variable, p_value)


def test_corpus_encounter_category(pipeline):
    ann = _corpus_path("annotations.csv")
    if not os.path.exists(ann):
        pytest.skip("annotations.csv missing from VCMARKOV_CORPUS_DIR")
    annotations, categories = load_annotation_csv(ann)
    matches = pipeline.matches["ru"]
    selected = matches.select((matches.trigrams == "вст")[matches.letter] & matches.single_word)
    report = categorize_matches(
        selected, annotations, categories, pipeline.ru.segmentation
    )
    sentinels = {"unannotated", "uncategorized"}
    real = sum(v for k, v in report.counts.items() if k not in sentinels)
    assert report.counts.get("encounter") == 29
    assert report.counts.get("emotion") == 55
    assert real == 84
    assert sum(report.counts.values()) == 111
    p = report.tests["encounter"].result.p_value
    assert 2.1e-5 <= p <= 2.1e-3


def test_corpus_pipeline_completes_quickly(pipeline):
    assert pipeline.elapsed < 300.0
