"""Moving-block bootstrap, surrogate shuffles, and percentile intervals.

Seeding discipline: every random draw comes from a Generator built with
``derived_rng(master_seed, stream, *path)``, where the stream constant
names the consumer (bootstrap, surrogate, simulation) and the path is the
(source, block, replicate) coordinate of the draw. Replicates are therefore
independent of the order in which they are computed, and two runs with the
same master seed agree bit for bit.

A bootstrap replicate is its draws: the indices of the block's subblocks
that :func:`mbb_replicate` picks. Its symbols, when a statistic needs
them, are those subblocks concatenated (:func:`replicate_symbols`); the
model fits read only its summed subblock counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .encoding import SymbolSequence
from .errors import DomainError

STREAM_MBB = 1
STREAM_SURROGATE = 2
STREAM_SIM = 3


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for a (stream, *coordinates) path."""
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed path entries must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


@dataclass(frozen=True)
class MbbConfig:
    """Block bootstrap configuration.

    ``block_len`` is the analysis block the statistic is computed on;
    ``subblock_len`` is the resampling unit drawn with replacement.
    """

    block_len: int = 10_000
    subblock_len: int = 250
    n_replicates: int = 1_000
    master_seed: int = 0

    def __post_init__(self):
        if self.subblock_len < 1:
            raise ValueError("subblock_len must be positive")
        if self.block_len < self.subblock_len:
            raise ValueError("block_len must be at least subblock_len")
        if self.block_len % self.subblock_len != 0:
            raise ValueError("block_len must be a multiple of subblock_len")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


def subblocks(block: Union[SymbolSequence, np.ndarray], subblock_len: int) -> np.ndarray:
    """The block's consecutive non-overlapping subblocks, one per row.

    Cutting starts at the block's first symbol; a tail shorter than one
    subblock is not a candidate. The result is an (m, subblock_len) view.
    """
    x = block.symbols if isinstance(block, SymbolSequence) else np.asarray(block)
    m = x.size // subblock_len
    if m < 1:
        raise DomainError(
            f"block of {x.size} symbols is shorter than one subblock of {subblock_len}"
        )
    return x[: m * subblock_len].reshape(m, subblock_len)


def replicate_symbols(candidates: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The symbols of a replicate: its drawn subblocks, concatenated."""
    return candidates[draws].reshape(-1)


def mbb_replicate(
    block: Union[SymbolSequence, np.ndarray],
    cfg: MbbConfig,
    replicate_index: int,
    *,
    block_index: int = 0,
    source_index: int = 0,
) -> np.ndarray:
    """One bootstrap replicate of a block, as the indices of its draws.

    m of the block's m :func:`subblocks` are drawn with replacement; the
    replicate is their concatenation (:func:`replicate_symbols`), m times
    the subblock length long. The draws come from the replicate's own
    seed path, so any replicate can be rebuilt alone.
    """
    m = len(subblocks(block, cfg.subblock_len))
    rng = derived_rng(
        cfg.master_seed, STREAM_MBB, source_index, block_index, replicate_index
    )
    return rng.integers(0, m, size=m)


def make_surrogate(
    seq: Union[SymbolSequence, np.ndarray],
    subblock_len: int,
    seed: Union[int, np.random.Generator],
) -> Union[SymbolSequence, np.ndarray]:
    """Permute whole subblocks across the sequence, without replacement.

    Within-subblock order is untouched, so all short-range structure
    survives while any slow drift across the sequence is destroyed. A tail
    shorter than one subblock stays in place at the end. Symbol content is
    conserved exactly; a SymbolSequence keeps its origin rows alongside the
    moved symbols.
    """
    if subblock_len < 1:
        raise ValueError("subblock_len must be positive")
    is_seq = isinstance(seq, SymbolSequence)
    x = seq.symbols if is_seq else np.asarray(seq)
    n = x.size
    m = n // subblock_len
    if m < 1:
        raise DomainError(
            f"sequence of {n} symbols is shorter than one subblock of {subblock_len}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    perm = rng.permutation(m)
    index = np.concatenate(
        [
            (np.arange(m * subblock_len).reshape(m, subblock_len)[perm]).reshape(-1),
            np.arange(m * subblock_len, n),
        ]
    )
    shuffled = x[index]
    if not is_seq:
        return shuffled
    origin = seq.origin[index] if seq.origin is not None else None
    label = (seq.source_id + ":surrogate") if seq.source_id else "surrogate"
    return SymbolSequence(symbols=shuffled, source_id=label, origin=origin)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    level: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")


def percentile_interval(samples, level: float = 0.95) -> Interval:
    """Equal-tailed percentile interval via linear quantile interpolation."""
    arr = np.asarray(samples, dtype=float).reshape(-1)
    if arr.size < 2:
        raise ValueError("percentile_interval needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly between 0 and 1, got {level}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(arr, [alpha, 1.0 - alpha])
    return Interval(lo=float(lo), hi=float(hi), level=level)
