"""The replicate engine against the per-replicate oracle.

``bootstrap_blocks`` and ``bootstrap_model_coefficients`` fit all
replicates of a block from summed subblock trigram counts; the oracle
assembles and fits every replicate alone. Values must be equal, and a
failing replicate must raise the oracle's error: block then replicate
order for the bootstrap table, replicate then source then block for the
coefficient bootstrap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmarkov import FourStateModel, MbbConfig, simulate_sequence
from vcmarkov.encoding import SymbolSequence, segment_blocks
from vcmarkov.markov import concatenation_reports, sequence_report
from vcmarkov.pipeline import LoadedSource, bootstrap_blocks
from vcmarkov.resample import subblocks
from vcmarkov.stats import bootstrap_model_coefficients, regression_rows_from_blocks

import replicate_oracle as oracle


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def source(x, block_len: int, label: str = "src") -> LoadedSource:
    """A source over the symbols ``x``, keeping any partial tail block."""
    x = np.asarray(x, dtype=np.uint8)
    segmentation = segment_blocks(x.size, block_len, keep_partial=True, min_partial=1)
    return LoadedSource(label, None, SymbolSequence(symbols=x), segmentation, None)


def symbols(text: str) -> np.ndarray:
    return np.array([ch == "V" for ch in text], dtype=np.uint8)


def chain(length: int, seed: int) -> np.ndarray:
    model = FourStateModel(p00=0.60, p01=0.45, p10=0.70, p11=0.15)
    return simulate_sequence(model, length, seed).symbols


def coefficient_outcome(blocks, cfg, which_cf="complex"):
    """The coefficient samples of the engine, or what it raised."""
    def samples():
        rows = regression_rows_from_blocks(blocks, which_cf)
        fit = bootstrap_model_coefficients(blocks, rows, cfg, level=0.9, which_cf=which_cf)
        return {name: summary.samples for name, summary in fit.bootstrap.items()}

    return outcome(samples)


def assert_same_samples(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


# 4 full blocks of 300 and a kept partial block of 137 symbols, whose tail
# of 37 is shorter than a subblock of 50
@pytest.mark.parametrize("subblock_len", [1, 2, 3, 50])
@pytest.mark.parametrize("which_cf", ["complex", "simple"])
@pytest.mark.parametrize("source_index", [0, 2])
def test_bootstrap_rows_equal_the_oracle(subblock_len, which_cf, source_index):
    src = source(chain(1337, seed=4), 300)
    assert src.segmentation.lengths[-1] == 137
    cfg = MbbConfig(300, subblock_len, 30, master_seed=7)
    kwargs = dict(level=0.9, which_cf=which_cf, source_index=source_index)
    replicates, intervals = bootstrap_blocks(src, cfg, **kwargs)
    assert (replicates, intervals) == oracle.bootstrap_blocks(src, cfg, **kwargs)
    assert len(replicates) == 5 * 30
    assert all(type(value) is float for row in replicates for value in row[3:])


@pytest.mark.parametrize("subblock_len", [1, 2, 3, 50])
@pytest.mark.parametrize("which_cf", ["complex", "simple"])
def test_coefficient_samples_equal_the_oracle(subblock_len, which_cf):
    x = chain(2 * 1337, seed=11)
    blocks = {
        "bb": [x[:300], x[300:600], x[600:900], x[900:1037]],
        "aa": [x[1337:1637], x[1637:1937], x[1937:2237]],
    }
    cfg = MbbConfig(300, subblock_len, 25, master_seed=3)
    got = coefficient_outcome(blocks, cfg, which_cf)
    want = oracle.bootstrap_coefficient_samples(blocks, cfg, which_cf=which_cf)
    assert_same_samples(got, want)


def test_one_row_engine_equals_sequence_report():
    x = chain(1000, seed=8)
    candidates = subblocks(x, 1000)
    columns, failure = concatenation_reports(candidates, [np.zeros(1, dtype=np.int64)])
    assert failure is None
    report = sequence_report(x)
    assert {name: column.tolist() for name, column in columns.items()} == {
        name: [getattr(report, name)] for name in columns
    }


# two blocks of twelve symbols in subblocks of three: in the first, replicate
# 2 is the first to fail (no CC); in the second, replicate 0 (no VV)
_ORDER = symbols("VVCVCCVVVCCV" "VCVCCCVVVCCC")


def test_bootstrap_raises_the_first_failure_by_block_then_replicate():
    src = source(_ORDER, 12)
    cfg = MbbConfig(12, 3, 8, master_seed=2)
    got = outcome(bootstrap_blocks, src, cfg)
    assert got == outcome(oracle.bootstrap_blocks, src, cfg)
    assert got[1].startswith("no occurrences of context 'CC'")


def test_coefficients_raise_the_first_failure_by_replicate_source_block():
    # the second source's blocks are long enough never to fail
    blocks = {"aa": [_ORDER[:12], _ORDER[12:]], "bb": [chain(600, 1), chain(600, 2)]}
    cfg = MbbConfig(12, 3, 8, master_seed=2)
    got = coefficient_outcome(blocks, cfg)
    assert got == outcome(oracle.bootstrap_coefficient_samples, blocks, cfg)
    assert got[1].startswith("no occurrences of context 'VV'")


# a partial block holding one subblock and a tail: its only replicate is
# its first subblock, which hits the error while the whole block does not.
# (q1 = 0 or p0 = 0 from counts means a context that never occurs, which
# is reported first)
@pytest.mark.parametrize("text, subblock_len, message", [
    ("CCCCCVVV" "CVCC", 8, "no occurrences of context 'VC'"),
    ("VVVVVCCC" "VCVV", 8, "no occurrences of context 'CV'"),
    ("CCVCVCVVV" "CCV", 9, "dispersion pole: eta"),
    ("VVCVCVCCC" "VVC", 9, "dispersion pole: nu"),
    ("VVVVVVV" "CVCCV", 7, "no occurrences of context 'C'"),
])
def test_pole_and_zero_context_replicates_raise_the_oracle_error(text, subblock_len, message):
    src = source(symbols(text), 2 * subblock_len)
    cfg = MbbConfig(2 * subblock_len, subblock_len, 3, master_seed=0)
    got = outcome(bootstrap_blocks, src, cfg)
    assert got == outcome(oracle.bootstrap_blocks, src, cfg)
    assert got[1].startswith(message)
    blocks = {"aa": [chain(100, 4), symbols(text)], "bb": [chain(100, 5), chain(100, 6)]}
    got = coefficient_outcome(blocks, cfg)
    assert got == outcome(oracle.bootstrap_coefficient_samples, blocks, cfg)
    assert got[1].startswith(message)


def test_block_shorter_than_a_subblock_raises_the_oracle_error():
    blocks = {"aa": [chain(600, 1), chain(600, 2)], "bb": [chain(600, 3), chain(40, 4)]}
    cfg = MbbConfig(600, 50, 4, master_seed=0)
    got = coefficient_outcome(blocks, cfg)
    assert got == outcome(oracle.bootstrap_coefficient_samples, blocks, cfg)
    assert got[1] == "block of 40 symbols is shorter than one subblock of 50"
    src = source(np.concatenate([chain(600, 1), chain(40, 4)]), 600)
    assert outcome(bootstrap_blocks, src, cfg) == outcome(oracle.bootstrap_blocks, src, cfg)


_BITS = st.lists(st.integers(0, 1), min_size=3, max_size=30)


@given(
    st.lists(_BITS, min_size=2, max_size=4), st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(2, 6), st.sampled_from(["complex", "simple"]), st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_short_blocks_equal_the_oracle(blocks, subblock_len, n_replicates, which_cf, seed):
    """Short random blocks, where many replicates fail in many ways."""
    x = np.concatenate([np.array(b, dtype=np.uint8) for b in blocks])
    cfg = MbbConfig(12, subblock_len, n_replicates, master_seed=seed)
    src = source(x, cfg.block_len)
    kwargs = dict(which_cf=which_cf)
    assert outcome(bootstrap_blocks, src, cfg, **kwargs) == outcome(
        oracle.bootstrap_blocks, src, cfg, **kwargs
    )
    per_source = {"aa": [np.array(b, dtype=np.uint8) for b in blocks], "bb": [x, x[::-1]]}
    assert_same_samples(
        coefficient_outcome(per_source, cfg, which_cf),
        outcome(oracle.bootstrap_coefficient_samples, per_source, cfg, which_cf=which_cf),
    )
