"""The chain engine against the one-symbol-at-a-time oracle.

``simulate_sequence`` and ``simulation_reports`` run chains from segment
maps, a window of uniforms at a time, and the ensemble is fitted from
trigram counts folded in as it runs. The oracle steps every chain in a
Python loop and fits each simulated sequence alone. Symbols and values
must be equal, and a failing ensemble must raise the error of its first
failing simulation.
"""

from __future__ import annotations

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmarkov import markov
from vcmarkov.encoding import SymbolSequence, segment_blocks
from vcmarkov.errors import DomainError
from vcmarkov.markov import (
    FourStateModel,
    count_ngrams,
    sequence_report,
    simulate_sequence,
    simulation_reports,
    trigram_discrepancy,
)
from vcmarkov.pipeline import LoadedSource, simulation_ensemble
from vcmarkov.resample import derived_rng

import simulation_oracle as oracle

_PROBS = st.sampled_from([0.0, 0.02, 0.3, 0.5, 0.8, 0.98, 1.0])
_INITS = ["CC", "CV", "VC", "VV"]


@st.composite
def models(draw):
    """Any transition probabilities, absorbing states included."""
    return FourStateModel(p11=draw(_PROBS), p10=draw(_PROBS), p01=draw(_PROBS), p00=draw(_PROBS))


def steps_near(draw, width: int) -> int:
    """Transitions around the window edges: none, one, two, a window and
    one either side, two windows and one, or anything up to three."""
    edges = [0, 1, 2, width - 1, width, width + 1, 2 * width + 1]
    return draw(st.sampled_from(edges) | st.integers(0, 3 * width))


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def state_code(init: str) -> int:
    return ((init[0] == "V") << 1) | (init[1] == "V")


@given(
    model=models(),
    lanes=st.sampled_from([1, 2, 3, 200]),
    window=st.sampled_from([1, 5, 64, 1000, 4096]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_engine_states_equal_the_loop(model, lanes, window, seed, data):
    width = max(1, window // lanes)
    steps = steps_near(data.draw, width)
    inits = data.draw(st.lists(st.sampled_from(_INITS), min_size=lanes, max_size=lanes))
    want = np.array([
        oracle.simulate_sequence(model, steps + 2, np.random.default_rng([seed, i]), init).symbols
        for i, init in enumerate(inits)
    ])
    rngs = [np.random.default_rng([seed, i]) for i in range(lanes)]
    with patch.object(markov, "_WINDOW", window):
        windows = list(markov._chain_states(
            model.as_vector(), [state_code(init) for init in inits], rngs, steps
        ))
    assert all(w.shape[0] == lanes and 1 <= w.shape[1] <= width for w in windows)
    got = np.concatenate([np.empty((lanes, 0), np.uint8), *windows], axis=1)
    assert np.array_equal(got & 1, want[:, 2:])
    if steps:
        assert np.array_equal(got[:, -1], 2 * want[:, -2] + want[:, -1])


@given(
    model=models(),
    init=st.sampled_from([None, *_INITS]),
    window=st.sampled_from([1, 2, 5, 64, 1000]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_simulate_sequence_equals_the_loop(model, init, window, seed, data):
    length = 2 + steps_near(data.draw, window)
    with patch.object(markov, "_WINDOW", window):
        got = outcome(simulate_sequence, model, length, seed, init)
    want = outcome(oracle.simulate_sequence, model, length, seed, init)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.symbols.dtype == np.uint8
        assert np.array_equal(got.symbols, want.symbols)


@pytest.mark.parametrize("steps", [markov._WINDOW - 1, markov._WINDOW, markov._WINDOW + 1])
@pytest.mark.parametrize("init", [None, "VC"])
def test_simulate_sequence_at_the_window_edge(fixture_chain, steps, init):
    got = simulate_sequence(fixture_chain, steps + 2, 11, init=init).symbols
    assert np.array_equal(got, oracle.simulate_sequence(fixture_chain, steps + 2, 11, init).symbols)


@pytest.mark.parametrize("length", [0, 1])
def test_simulate_sequence_rejects_a_chain_without_a_state(fixture_chain, length):
    assert outcome(simulate_sequence, fixture_chain, length, 1) == outcome(
        oracle.simulate_sequence, fixture_chain, length, 1
    )


def per_chain(model, length, rngs, which_cf):
    """The oracle's trigram rows and report columns, or the error of the
    first chain that fails."""
    tri, reports = [], []
    for rng in rngs:
        sim = oracle.simulate_sequence(model, length, rng)
        reports.append(sequence_report(sim, which_cf=which_cf))
        tri.append(count_ngrams(sim, 3).freq)
    return np.array(tri).reshape(-1, 8), reports


@given(
    model=models(),
    lanes=st.sampled_from([1, 2, 3, 200]),
    length=st.sampled_from([0, 1, 2, 3, 4]) | st.integers(5, 400),
    group=st.sampled_from([1, 2, 256]),
    window=st.sampled_from([7, 1 << 16]),
    which_cf=st.sampled_from(["complex", "simple"]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_simulation_reports_equal_chain_by_chain_reports(
    model, lanes, length, group, window, which_cf, seed
):
    paths = [(seed, 3, 1, 2, s) for s in range(lanes)]
    with patch.multiple(markov, _GROUP=group, _WINDOW=window):
        got = outcome(simulation_reports, model, length, [derived_rng(*p) for p in paths], which_cf)
    want = outcome(per_chain, model, length, [derived_rng(*p) for p in paths], which_cf)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    (tri, columns), (want_tri, reports) = got, want
    assert tri.order == 3 and tri.n_effective == length - 2
    assert np.array_equal(tri.freq, want_tri)
    for name, values in columns.items():
        assert values.tolist() == [getattr(rep, name) for rep in reports], name


def test_two_closed_classes_fail_as_the_first_simulation_does():
    model = FourStateModel(p11=1.0, p10=0.3, p01=0.5, p00=0.0)
    rngs = [derived_rng(0, 3, 0, 0, s) for s in range(3)]
    got = outcome(simulation_reports, model, 100, rngs)
    assert got == outcome(oracle.simulate_sequence, model, 100, derived_rng(0, 3, 0, 0, 0))
    assert got[0] is DomainError and "two closed classes" in got[1]


def test_a_later_failing_simulation_names_its_own_error():
    # short chains that rarely leave CC: simulation 6 is the first whose
    # report fails, at a pole, and later ones miss a context
    model = FourStateModel(p11=0.5, p10=0.5, p01=0.5, p00=0.2)
    rngs = [derived_rng(5, 3, 0, 0, s) for s in range(40)]
    got = outcome(simulation_reports, model, 20, rngs)
    failing = [
        outcome(sequence_report, oracle.simulate_sequence(model, 20, derived_rng(5, 3, 0, 0, s)))
        for s in range(40)
    ]
    first = next(i for i, rep in enumerate(failing) if isinstance(rep, tuple))
    assert first == 6
    assert got == failing[first]
    assert any(rep[0] is not got[0] for rep in failing[first:] if isinstance(rep, tuple))


def test_trigram_discrepancy_over_rows_equals_row_by_row():
    rng = np.random.default_rng(2)
    empirical = count_ngrams(rng.integers(0, 2, 500).astype(np.uint8), 3)
    rows = [count_ngrams(rng.integers(0, 2, 300).astype(np.uint8), 3) for _ in range(20)]
    stacked = markov.NgramCounts(3, np.array([r.freq for r in rows]), 298)
    got = trigram_discrepancy(empirical, stacked)
    assert got.tolist() == [trigram_discrepancy(empirical, r) for r in rows]


def block_source(x: np.ndarray, block_len: int) -> LoadedSource:
    segmentation = segment_blocks(x.size, block_len, keep_partial=True, min_partial=1)
    return LoadedSource("src", None, SymbolSequence(symbols=x), segmentation, None)


@given(
    model=models(),
    text_seed=st.integers(0, 2**32),
    n_simulations=st.sampled_from([2, 3, 200]),
    sim_length=st.sampled_from([2, 3]) | st.integers(4, 300),
    model_block=st.sampled_from([1, 2]),
    which_cf=st.sampled_from(["complex", "simple"]),
    master_seed=st.integers(0, 2**20),
)
@settings(max_examples=60, deadline=None)
def test_ensemble_equals_simulation_by_simulation(
    model, text_seed, n_simulations, sim_length, model_block, which_cf, master_seed
):
    x = oracle.simulate_sequence(model, 600, text_seed, "CV").symbols
    src = block_source(x, 300)
    kwargs = dict(
        n_simulations=n_simulations, sim_length=sim_length, master_seed=master_seed,
        model_block=model_block, which_cf=which_cf, source_index=1,
    )
    assert outcome(simulation_ensemble, src, **kwargs) == outcome(
        oracle.simulation_ensemble, src, **kwargs
    )


def test_ensemble_of_a_text_block_equals_simulation_by_simulation(fixture_chain):
    src = block_source(simulate_sequence(fixture_chain, 20_000, 4).symbols, 10_000)
    kwargs = dict(n_simulations=200, sim_length=1_000, master_seed=9, model_block=2)
    assert simulation_ensemble(src, **kwargs) == oracle.simulation_ensemble(src, **kwargs)


def test_ensemble_keeps_no_chain_whole(fixture_chain):
    """200 chains of 50,000 symbols would take 10 MB as bytes; the fold
    keeps a window of each."""
    rngs = [derived_rng(0, 3, 0, 0, s) for s in range(200)]
    tracemalloc.start()
    try:
        simulation_reports(fixture_chain, 50_000, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("n", [1, 7, 1000, 65_537])
@pytest.mark.parametrize("width", [1, 2, 3, 327, 65_536])
def test_windowed_draws_equal_one_call(n, width):
    """The engine reads each chain's uniforms a window at a time into a
    buffer; numpy gives the same doubles as one ``random(n)`` call, and
    leaves the generator where that call would."""
    whole = derived_rng(4, 3, 0, 0, 7)
    want = whole.random(n)
    windowed = derived_rng(4, 3, 0, 0, 7)
    got = np.empty(n)
    for lo in range(0, n, width):
        windowed.random(out=got[lo:lo + width])
    assert np.array_equal(got, want)
    assert windowed.random() == whole.random()
