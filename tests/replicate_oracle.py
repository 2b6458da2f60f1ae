"""The per-replicate reference path of the block bootstrap.

Every replicate is assembled as a symbol array, its drawn subblocks
``candidates[draws]`` concatenated, and fitted alone by ``sequence_report``,
in the order the loops below visit them: block then replicate for the
bootstrap table, replicate then source then block for the coefficient
bootstrap. The package fits all replicates of a block at once from summed
subblock counts; the tests compare the two with ``==``.
"""

from __future__ import annotations

import numpy as np

from vcmarkov.markov import sequence_report
from vcmarkov.pipeline import BOOTSTRAP_STATISTICS
from vcmarkov.resample import mbb_replicate, percentile_interval
from vcmarkov.stats import (
    COEFFICIENT_NAMES,
    fit_interaction_model,
    regression_rows_from_blocks,
)


def replicate(block, cfg, r, *, block_index=0, source_index=0) -> np.ndarray:
    """The symbols of replicate r: its draws of the block's subblocks."""
    sub = cfg.subblock_len
    m = block.size // sub
    draws = mbb_replicate(block, cfg, r, block_index=block_index, source_index=source_index)
    return block[: m * sub].reshape(m, sub)[draws].reshape(-1)


def bootstrap_blocks(source, cfg, *, level=0.95, which_cf="complex", source_index=0):
    replicates, intervals = [], []
    for b in range(len(source.segmentation)):
        x = source.segmentation.slice(source.sequence, b)
        point = sequence_report(x, which_cf=which_cf)
        samples = []
        for r in range(cfg.n_replicates):
            rep = replicate(x, cfg, r, block_index=b, source_index=source_index)
            report = sequence_report(rep, which_cf=which_cf)
            samples.append((report.md, report.cf_simple, report.cf_complex))
            replicates.append((source.label, b + 1, r, *samples[-1]))
        for statistic, values in zip(BOOTSTRAP_STATISTICS, zip(*samples)):
            iv = percentile_interval(values, level)
            intervals.append((
                source.label, b + 1, statistic, getattr(point, statistic),
                iv.lo, iv.hi, iv.level, x.size,
            ))
    return replicates, intervals


def bootstrap_coefficient_samples(
    blocks_per_source, cfg, *, which_cf="complex", baseline=None
) -> dict[str, np.ndarray]:
    """Coefficient samples of every replicate's interaction refit."""
    point = fit_interaction_model(
        regression_rows_from_blocks(blocks_per_source, which_cf), baseline=baseline
    )
    samples = {name: np.empty(cfg.n_replicates) for name in COEFFICIENT_NAMES}
    labels = sorted(blocks_per_source)
    for r in range(cfg.n_replicates):
        rows = []
        for si, label in enumerate(labels):
            for bi, block in enumerate(blocks_per_source[label]):
                rep = replicate(block, cfg, r, block_index=bi, source_index=si)
                md = sequence_report(rep, which_cf=which_cf).md
                rows.append((md, float(bi + 1), label))
        fit_r = fit_interaction_model(rows, baseline=point.baseline)
        for name in COEFFICIENT_NAMES:
            samples[name][r] = fit_r.coefficients[name]
    return samples
