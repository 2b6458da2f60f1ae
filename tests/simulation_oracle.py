"""The one-chain-at-a-time reference path of chain simulation.

``simulate_sequence`` steps one chain in a Python loop, one uniform per
transition; ``simulation_ensemble`` simulates every chain of an ensemble
with it and fits each alone with ``sequence_report`` and
``count_ngrams``, in simulation order. The package runs all chains
together from segment maps and fits them from trigram counts folded in as
they run; the tests compare the two with ``==``.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import repeat
from typing import Optional, Union

import numpy as np

from vcmarkov.encoding import SymbolSequence
from vcmarkov.markov import (
    FourStateModel,
    count_ngrams,
    dispersion_report,
    fit_sequence,
    sequence_report,
    stationary_bigram_distribution,
    trigram_discrepancy,
)
from vcmarkov.resample import STREAM_SIM, derived_rng, percentile_interval


def simulate_sequence(
    model: FourStateModel,
    length: int,
    seed: Union[int, np.random.Generator],
    init: Optional[str] = None,
) -> SymbolSequence:
    if length < 2:
        raise ValueError("length must be at least 2: the state is a bigram")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if init is None:
        weights = stationary_bigram_distribution(model)
        u0 = rng.random()
        state = int(np.searchsorted(np.cumsum(weights), u0, side="right"))
        state = min(state, 3)
    else:
        if len(init) != 2 or set(init) - {"V", "C"}:
            raise ValueError(f"init must be two symbols from {{V, C}}, got {init!r}")
        state = ((init[0] == "V") << 1) | (init[1] == "V")
    pvec = model.as_vector().tolist()
    states = [state >> 1, state]
    for u_k in rng.random(length - 2).tolist():
        state = ((state & 1) << 1) | (u_k < pvec[state])
        states.append(state)
    symbols = np.array(states, dtype=np.uint8) & 1
    return SymbolSequence(symbols=symbols, source_id="simulated")


def simulation_ensemble(
    source,
    *,
    n_simulations=500,
    sim_length=10_000,
    master_seed=0,
    model_block=1,
    which_cf="complex",
    level=0.95,
    source_index=0,
):
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
