"""Seed derivation, block bootstrap, surrogates, percentile intervals."""

from collections import Counter

import numpy as np
import pytest

from vcmarkov import MbbConfig, derived_rng, make_surrogate, mbb_replicate
from vcmarkov.encoding import SymbolSequence
from vcmarkov.errors import DomainError
from vcmarkov.resample import (
    STREAM_MBB,
    STREAM_SIM,
    STREAM_SURROGATE,
    Interval,
    percentile_interval,
    replicate_symbols,
    subblocks,
)


# ------------------------------------------------------------ seed streams


def test_derived_rng_deterministic():
    a = derived_rng(0, STREAM_MBB, 1, 2, 3).random(5)
    b = derived_rng(0, STREAM_MBB, 1, 2, 3).random(5)
    assert np.array_equal(a, b)


def test_derived_rng_distinct_paths():
    base = derived_rng(0, STREAM_MBB, 1, 2, 3).random(5)
    for path in [(0, STREAM_MBB, 1, 2, 4), (0, STREAM_MBB, 1, 3, 3),
                 (0, STREAM_SURROGATE, 1, 2, 3), (1, STREAM_MBB, 1, 2, 3)]:
        other = derived_rng(*path).random(5)
        assert not np.array_equal(base, other)


def test_stream_constants_distinct():
    assert len({STREAM_MBB, STREAM_SURROGATE, STREAM_SIM}) == 3


def test_derived_rng_rejects_negative():
    with pytest.raises(ValueError):
        derived_rng(-1, 0)
    with pytest.raises(ValueError):
        derived_rng(0, -2)


# ------------------------------------------------------------ MBB


def test_mbb_config_validation():
    with pytest.raises(ValueError):
        MbbConfig(block_len=100, subblock_len=33, n_replicates=10)
    with pytest.raises(ValueError):
        MbbConfig(block_len=100, subblock_len=200, n_replicates=10)
    with pytest.raises(ValueError):
        MbbConfig(block_len=100, subblock_len=50, n_replicates=0)


def test_mbb_replicate_shape_and_content():
    rng = np.random.default_rng(5)
    block = (rng.random(1000) < 0.4).astype(np.uint8)
    cfg = MbbConfig(block_len=1000, subblock_len=100, n_replicates=4, master_seed=9)
    draws = mbb_replicate(block, cfg, 0)
    assert draws.shape == (10,)
    assert 0 <= draws.min() and draws.max() < 10
    rep = replicate_symbols(subblocks(block, 100), draws)
    assert rep.shape == (1000,)
    # output subblock j is candidate subblock draws[j]
    for j, d in enumerate(draws.tolist()):
        assert np.array_equal(rep[j * 100:(j + 1) * 100], block[d * 100:(d + 1) * 100])


def test_mbb_replicates_differ_and_repeat():
    # random content so the candidate subblocks are distinguishable
    block = (np.random.default_rng(17).random(200) < 0.5).astype(np.uint8)
    cfg = MbbConfig(block_len=200, subblock_len=20, n_replicates=8, master_seed=1)
    a0 = mbb_replicate(block, cfg, 0)
    a1 = mbb_replicate(block, cfg, 1)
    again = mbb_replicate(block, cfg, 0)
    assert np.array_equal(a0, again)
    assert not np.array_equal(a0, a1)


def test_mbb_replicate_indices_are_independent():
    """Replicate r is the same whether or not other replicates were drawn."""
    block = (np.random.default_rng(3).random(500) < 0.5).astype(np.uint8)
    cfg = MbbConfig(block_len=500, subblock_len=50, n_replicates=100, master_seed=4)
    direct = mbb_replicate(block, cfg, 57)
    _ = [mbb_replicate(block, cfg, r) for r in range(57)]
    assert np.array_equal(direct, mbb_replicate(block, cfg, 57))


def test_mbb_distinct_block_and_source_streams():
    block = (np.random.default_rng(3).random(500) < 0.5).astype(np.uint8)
    cfg = MbbConfig(block_len=500, subblock_len=50, n_replicates=10, master_seed=4)
    a = mbb_replicate(block, cfg, 0, block_index=0, source_index=0)
    b = mbb_replicate(block, cfg, 0, block_index=1, source_index=0)
    c = mbb_replicate(block, cfg, 0, block_index=0, source_index=1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mbb_partial_block_uses_its_own_size():
    block = (np.random.default_rng(6).random(370) < 0.5).astype(np.uint8)
    cfg = MbbConfig(block_len=1000, subblock_len=100, n_replicates=3, master_seed=2)
    draws = mbb_replicate(block, cfg, 0)
    # 370 // 100 = 3 candidate subblocks -> three draws, 300 symbols
    assert draws.shape == (3,) and draws.max() < 3
    candidates = subblocks(block, 100)
    assert candidates.shape == (3, 100)
    assert np.array_equal(candidates.reshape(-1), block[:300])
    assert replicate_symbols(candidates, draws).shape == (300,)


def test_mbb_block_shorter_than_subblock():
    block = np.zeros(40, dtype=np.uint8)
    cfg = MbbConfig(block_len=1000, subblock_len=100, n_replicates=3, master_seed=2)
    with pytest.raises(DomainError, match="shorter than one subblock"):
        mbb_replicate(block, cfg, 0)
    with pytest.raises(DomainError, match="shorter than one subblock"):
        subblocks(block, 100)


# ------------------------------------------------------------ surrogates


def test_surrogate_is_subblock_permutation():
    rng = np.random.default_rng(8)
    x = (rng.random(1000) < 0.3).astype(np.uint8)
    sur = make_surrogate(x, 100, seed=3)
    assert sur.shape == x.shape
    rows_orig = Counter(tuple(x[i * 100:(i + 1) * 100]) for i in range(10))
    rows_sur = Counter(tuple(sur[i * 100:(i + 1) * 100]) for i in range(10))
    assert rows_orig == rows_sur
    assert int(sur.sum()) == int(x.sum())


def test_surrogate_changes_order():
    x = np.repeat(np.arange(10) % 2, 100).astype(np.uint8)
    sur = make_surrogate(x, 100, seed=3)
    assert not np.array_equal(sur, x)


def test_surrogate_fixed_tail():
    x = (np.random.default_rng(1).random(1034) < 0.5).astype(np.uint8)
    sur = make_surrogate(x, 100, seed=9)
    assert np.array_equal(sur[1000:], x[1000:])


def test_surrogate_deterministic():
    x = (np.random.default_rng(2).random(600) < 0.5).astype(np.uint8)
    assert np.array_equal(make_surrogate(x, 50, seed=4), make_surrogate(x, 50, seed=4))
    assert not np.array_equal(make_surrogate(x, 50, seed=4), make_surrogate(x, 50, seed=5))


def test_surrogate_sequence_keeps_origin_alignment():
    """Each symbol travels with its origin row under the shuffle."""
    n = 400
    rng = np.random.default_rng(11)
    symbols = (rng.random(n) < 0.5).astype(np.uint8)
    origin = np.stack(
        [np.ones(n), np.ones(n), np.ones(n), np.arange(n)], axis=1
    ).astype(np.int32)
    seq = SymbolSequence(symbols, source_id="orig", origin=origin)
    sur = make_surrogate(seq, 50, seed=21)
    assert isinstance(sur, SymbolSequence)
    assert sur.source_id == "orig:surrogate"
    assert sur.origin is not None
    for i in range(n):
        original_index = int(sur.origin[i, 3])
        assert sur.symbols[i] == symbols[original_index]


def test_surrogate_subblock_too_large():
    with pytest.raises(DomainError):
        make_surrogate(np.zeros(10, dtype=np.uint8), 100, seed=0)


# ------------------------------------------------------------ intervals


def test_percentile_interval_known_quantiles():
    samples = np.arange(1, 101, dtype=float)
    iv = percentile_interval(samples, 0.95)
    # linear interpolation: 2.5% of the way from 3 to 4 and from 97 to 98
    assert iv.lo == pytest.approx(3.475)
    assert iv.hi == pytest.approx(97.525)
    assert iv.level == 0.95


def test_percentile_interval_two_points():
    iv = percentile_interval(np.array([0.0, 1.0]), 0.5)
    assert iv.lo == pytest.approx(0.25)
    assert iv.hi == pytest.approx(0.75)


def test_percentile_interval_validation():
    with pytest.raises(ValueError):
        percentile_interval(np.array([1.0]), 0.95)
    with pytest.raises(ValueError):
        percentile_interval(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        percentile_interval(np.array([np.nan, np.nan, 1.0]), 0.9)


def test_interval_is_ordered():
    iv = Interval(lo=1.0, hi=2.0, level=0.9)
    assert iv.lo <= iv.hi
    with pytest.raises(ValueError):
        Interval(lo=2.0, hi=1.0, level=0.9)
