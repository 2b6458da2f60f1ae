"""Orchestration: wire corpus, encoding, models, and resampling together.

The analysis functions return the rows of the tables that the command
line writes, and a simulation's JSON summary; the ``*_COLUMNS`` tuples
are those tables' headers. They are importable on their own, so the full
pipeline can be driven from tests or notebooks without touching the
filesystem conventions of the CLI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .corpus import Corpus, LayoutConfig, parse_corpus
from .encoding import BlockSegmentation, SymbolSequence, encode_text, segment_blocks
from .errors import DataError
from .markov import (
    WhichCF,
    concatenation_reports,
    count_ngrams,
    fit_sequence,
    dispersion_report,
    sequence_report,
    simulate_sequence,
    trigram_discrepancy,
)
from .resample import (
    STREAM_SIM,
    MbbConfig,
    derived_rng,
    mbb_replicate,
    percentile_interval,
    replicate_symbols,
    subblocks,
)
from .schemes import EncodingScheme
from .stats import autocorrelation, ljung_box_test, partial_spearman, white_noise_band


@dataclass
class LoadedSource:
    label: str
    corpus: Corpus
    sequence: SymbolSequence
    segmentation: BlockSegmentation
    scheme: EncodingScheme


def load_source(
    text: str,
    layout: LayoutConfig,
    scheme: EncodingScheme,
    *,
    label: str,
    block_len: int = 10_000,
    keep_partial: bool = True,
    min_partial: int = 1,
    unknown_policy: str = "error",
    include_epigraphs: bool = False,
) -> LoadedSource:
    corpus = parse_corpus(text, layout, scheme=scheme, source_id=label)
    seq = encode_text(
        corpus, scheme, policy=unknown_policy, include_epigraphs=include_epigraphs
    )
    if len(seq) == 0:
        raise DataError(f"source {label!r} encodes to an empty symbol sequence")
    segmentation = segment_blocks(
        seq, block_len, keep_partial=keep_partial, min_partial=min_partial
    )
    if len(segmentation) == 0:
        raise DataError(
            f"source {label!r}: {len(seq)} symbols yield no analysis blocks "
            f"(block_len={block_len}, keep_partial={keep_partial})"
        )
    return LoadedSource(label, corpus, seq, segmentation, scheme)


PROFILE_COLUMNS = (
    "source", "block", "n", "p", "q", "p0", "p1", "q0", "q1",
    "p00", "p01", "p10", "p11", "q00", "q11",
    "d", "eta", "nu", "cf_simple", "cf_complex", "md",
    "var_independent", "var_dependent",
)


def profile_rows(source: LoadedSource, which_cf: WhichCF = "complex") -> list[tuple]:
    """One row per block: fitted parameters plus the dispersion report."""
    rows = []
    for b in range(len(source.segmentation)):
        x = source.segmentation.slice(source.sequence, b)
        two, four = fit_sequence(x)
        rep = dispersion_report(two, four, n=x.size, which_cf=which_cf)
        rows.append((
            source.label, b + 1, x.size, two.p, two.q, two.p0, two.p1, two.q0, two.q1,
            four.p00, four.p01, four.p10, four.p11, four.q00, four.q11,
            rep.d, rep.eta, rep.nu, rep.cf_simple, rep.cf_complex, rep.md,
            rep.var_independent, rep.var_dependent,
        ))
    return rows


CORRELATION_VARIABLES = ("p", "p0", "p1", "q00", "p11")


def md_parameter_correlations(rows: Sequence[tuple], control_set: str = "block") -> list[tuple]:
    """Partial Spearman of MD against each model parameter across blocks.

    ``rows`` are the per-block rows of :func:`profile_rows`, so no block is
    fitted twice. ``control_set`` "block" partials out the block position;
    "none" uses plain correlations. Rows: (source, variable, rho, p_value,
    n, method, controls).
    """
    if control_set not in ("block", "none"):
        raise ValueError(f"control_set must be 'block' or 'none', got {control_set!r}")
    columns = {name: list(values) for name, values in zip(PROFILE_COLUMNS, zip(*rows))}
    controls = [columns["block"]] if control_set == "block" else []
    names = ["block"] if control_set == "block" else None
    out = []
    for var in CORRELATION_VARIABLES:
        res = partial_spearman(columns[var], columns["md"], controls, names=names)
        out.append((
            columns["source"][0], var, res.rho, res.p_value, res.n, res.method,
            ";".join(res.controlled_for),
        ))
    return out


REPLICATE_COLUMNS = ("source", "block", "replicate", "md", "cf_simple", "cf_complex")
INTERVAL_COLUMNS = ("source", "block", "statistic", "point", "lo", "hi", "level", "n")
BOOTSTRAP_STATISTICS = ("md", "cf_simple", "cf_complex")


def bootstrap_blocks(
    source: LoadedSource,
    cfg: MbbConfig,
    *,
    level: float = 0.95,
    which_cf: WhichCF = "complex",
    source_index: int = 0,
) -> tuple[list[tuple], list[tuple]]:
    """MBB replicate distributions of CF and MD for every block.

    Returns the rows of REPLICATE_COLUMNS, one per block and replicate, and
    of INTERVAL_COLUMNS, one per block and statistic.
    """
    replicates, intervals = [], []
    for b in range(len(source.segmentation)):
        x = source.segmentation.slice(source.sequence, b)
        point = sequence_report(x, which_cf=which_cf)
        candidates = subblocks(x, cfg.subblock_len)
        draws = (
            mbb_replicate(x, cfg, r, block_index=b, source_index=source_index)
            for r in range(cfg.n_replicates)
        )
        columns, failure = concatenation_reports(candidates, draws, which_cf)
        if failure is not None:
            raise failure[1]
        samples = [columns[statistic].tolist() for statistic in BOOTSTRAP_STATISTICS]
        replicates.extend(zip(
            repeat(source.label), repeat(b + 1), range(cfg.n_replicates), *samples
        ))
        for statistic, values in zip(BOOTSTRAP_STATISTICS, samples):
            iv = percentile_interval(values, level)
            intervals.append((
                source.label, b + 1, statistic, getattr(point, statistic),
                iv.lo, iv.hi, iv.level, x.size,
            ))
    return replicates, intervals


ACF_COLUMNS = (
    "source", "block", "lag", "rho", "band_lo", "band_hi",
    "white_noise_lo", "white_noise_hi",
)
LJUNG_BOX_COLUMNS = ("source", "block", "h", "statistic", "p_value", "n")


def acf_blocks(
    source: LoadedSource,
    cfg: MbbConfig,
    *,
    max_lag: int = 10,
    ci_lags: int = 5,
    lb_h: int = 10,
    level: float = 0.95,
    source_index: int = 0,
) -> tuple[list[tuple], list[tuple]]:
    """Per-block ACF with Ljung-Box test and MBB bands on the first lags.

    Returns the rows of ACF_COLUMNS, one per block and lag (the band cells
    are empty past ``ci_lags``), and of LJUNG_BOX_COLUMNS, one per block.
    """
    if ci_lags > max_lag:
        raise ValueError("ci_lags cannot exceed max_lag")
    acf_rows, lb_rows = [], []
    for b in range(len(source.segmentation)):
        x = source.segmentation.slice(source.sequence, b)
        acf = autocorrelation(x, max_lag)
        lb = ljung_box_test(acf, lb_h)
        candidates = subblocks(x, cfg.subblock_len)
        reps = np.empty((cfg.n_replicates, ci_lags))
        for r in range(cfg.n_replicates):
            draws = mbb_replicate(x, cfg, r, block_index=b, source_index=source_index)
            reps[r] = autocorrelation(replicate_symbols(candidates, draws), ci_lags).rho
        band = [percentile_interval(reps[:, k], level) for k in range(ci_lags)]
        white_noise = white_noise_band(x.size)
        for i, (lag, rho) in enumerate(zip(acf.lags.tolist(), acf.rho.tolist())):
            lo, hi = (band[i].lo, band[i].hi) if i < ci_lags else ("", "")
            acf_rows.append((source.label, b + 1, lag, rho, lo, hi, -white_noise, white_noise))
        lb_rows.append((source.label, b + 1, lb.h, lb.statistic, lb.p_value, x.size))
    return acf_rows, lb_rows


ENSEMBLE_COLUMNS = ("source", "simulation", "md", "discrepancy")


def simulation_ensemble(
    source: LoadedSource,
    *,
    n_simulations: int = 500,
    sim_length: int = 10_000,
    master_seed: int = 0,
    model_block: int = 1,
    which_cf: WhichCF = "complex",
    level: float = 0.95,
    source_index: int = 0,
) -> tuple[list[tuple], dict]:
    """Fit a block, simulate an ensemble, and compare it with the block.

    ``model_block`` is 1-based. Each simulation gets its own derived
    generator, indexed by simulation number, and contributes its memory
    depth and the trigram discrepancy against the empirical block. The
    median discrepancy also carries a bootstrap interval (resampled medians
    over the ensemble). Returns the rows of ENSEMBLE_COLUMNS and the
    summary payload.
    """
    n_blocks = len(source.segmentation)
    if not 1 <= model_block <= n_blocks:
        raise ValueError(f"model_block {model_block} outside 1..{n_blocks}")
    b = model_block - 1
    x = source.segmentation.slice(source.sequence, b)
    two, four = fit_sequence(x)
    empirical = dispersion_report(two, four, n=x.size, which_cf=which_cf)
    emp_tri = count_ngrams(x, 3)
    md = np.empty(n_simulations)
    disc = np.empty(n_simulations)
    for s in range(n_simulations):
        rng = derived_rng(master_seed, STREAM_SIM, source_index, b, s)
        sim = simulate_sequence(four, sim_length, rng)
        md[s] = sequence_report(sim, which_cf=which_cf).md
        disc[s] = trigram_discrepancy(emp_tri, count_ngrams(sim, 3))
    boot_rng = derived_rng(master_seed, STREAM_SIM, source_index, b, n_simulations)
    medians = np.median(
        disc[boot_rng.integers(0, n_simulations, size=(1000, n_simulations))], axis=1
    )
    rows = list(zip(repeat(source.label), range(n_simulations), md.tolist(), disc.tolist()))
    return rows, {
        "source": source.label,
        "model_block": model_block,
        "n_simulations": n_simulations,
        "sim_length": sim_length,
        "empirical_md": empirical.md,
        "md_interval": asdict(percentile_interval(md, level)),
        "discrepancy_median": float(np.median(disc)),
        "discrepancy_interval": asdict(percentile_interval(disc, level)),
        "median_interval": asdict(percentile_interval(medians, level)),
    }


def blocks_by_label(sources: Sequence[LoadedSource]) -> dict[str, list[np.ndarray]]:
    return {
        src.label: [
            src.segmentation.slice(src.sequence, b)
            for b in range(len(src.segmentation))
        ]
        for src in sources
    }
