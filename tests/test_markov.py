"""Chain fitting, dispersion coefficients, and the sequence simulator.

The dispersion numbers are checked against independent recomputations of
the defining formulas, never against the implementation itself.
"""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcmarkov import (
    FourStateModel,
    TwoStateModel,
    autocorrelation,
    count_ngrams,
    simulate_sequence,
)
from vcmarkov.encoding import SymbolSequence
from vcmarkov.errors import DomainError, ZeroContextError
from vcmarkov.markov import (
    dispersion_report,
    fit_sequence,
    sequence_report,
    stationary_bigram_distribution,
    trigram_discrepancy,
)


def transition_matrix(model: FourStateModel) -> np.ndarray:
    """Row-stochastic 4x4 matrix of the bigram-state chain."""
    T = np.zeros((4, 4))
    pvec = model.as_vector()
    for state in range(4):
        pv = pvec[state]
        T[state, ((state & 1) << 1) | 1] = pv
        T[state, ((state & 1) << 1) | 0] = 1.0 - pv
    return T


def seq_of(s: str) -> SymbolSequence:
    return SymbolSequence.from_string(s)


# ------------------------------------------------------------ n-gram counts


def test_count_ngrams_by_hand():
    counts = count_ngrams(seq_of("VVCVC"), 2)
    assert counts["VV"] == 1
    assert counts["VC"] == 2
    assert counts["CV"] == 1
    assert counts["CC"] == 0
    assert counts.n_effective == 4


def test_count_trigrams_by_hand():
    counts = count_ngrams(seq_of("VVCCV"), 3)
    assert counts["VVC"] == 1
    assert counts["VCC"] == 1
    assert counts["CCV"] == 1
    assert counts.n_effective == 3


@given(st.lists(st.integers(0, 1), min_size=3, max_size=200), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_count_ngrams_matches_string_scan(bits, order):
    """Oracle: count every pattern by scanning the plain string."""
    seq = SymbolSequence(np.array(bits, dtype=np.uint8))
    text = seq.to_string()
    counts = count_ngrams(seq, order)
    total = 0
    for pattern in map("".join, product("CV", repeat=order)):
        expected = sum(
            1 for i in range(len(text) - order + 1) if text[i:i + order] == pattern
        )
        assert counts[pattern] == expected
        total += expected
    assert total == counts.n_effective == len(bits) - order + 1


def test_count_ngrams_needs_enough_symbols():
    with pytest.raises(DomainError):
        count_ngrams(seq_of("VC"), 3)


def test_count_ngrams_order_validated():
    with pytest.raises(ValueError):
        count_ngrams(seq_of("VCVC"), 4)


# functions that validate a symbol array, each with a comparable result
_SYMBOL_CONSUMERS = {
    "count_ngrams": lambda x: count_ngrams(x, 3).freq.tolist(),
    "fit_sequence": fit_sequence,
    "sequence_report": sequence_report,
    "autocorrelation": lambda x: autocorrelation(x, 3).rho.tolist(),
}


@pytest.mark.parametrize("consumer", sorted(_SYMBOL_CONSUMERS))
@pytest.mark.parametrize("bad", [
    [0.5, 1.0, 0.2, 1.9, 0.7, 0.0, 1.0, 0.0],
    [0, 1, 256, 1, 0, 0, 1, 0],
    [0.0, 1.0, float("nan"), 1.0, 0.0, 0.0, 1.0, 0.0],
    [0, 1, -1, 1, 0, 0, 1, 0],
    np.array([0, 1, 2, 1, 0, 0, 1, 0], dtype=np.uint8),
    ["0", "1", "1", "0", "0", "1", "0", "1"],
], ids=["fractions", "wraps-to-0", "nan", "negative", "uint8-2", "strings"])
def test_symbol_input_other_than_0_and_1_is_rejected(consumer, bad):
    """A uint8 cast used to count 0.5 as C, 1.9 as V and 256 as C."""
    with pytest.raises(ValueError, match="symbols must be 0 or 1"):
        _SYMBOL_CONSUMERS[consumer](bad)


@pytest.mark.parametrize("consumer", sorted(_SYMBOL_CONSUMERS))
def test_symbol_lists_of_bools_ints_and_floats_are_accepted(consumer):
    bits = np.random.default_rng(4).integers(0, 2, 200).astype(np.uint8)
    want = _SYMBOL_CONSUMERS[consumer](bits)
    for form in (bits.astype(bool).tolist(), bits.tolist(), bits.astype(float)):
        assert _SYMBOL_CONSUMERS[consumer](form) == want


# ------------------------------------------------------------ model fitting


def test_fit_models_by_hand():
    # VVCVCCV bigrams: VV, VC, CV, VC, CC, CV
    seq = seq_of("VVCVCCV")
    two, four = fit_sequence(seq)
    assert two.p1 == pytest.approx(1 / 3)   # VV / (VV + VC)
    assert two.p0 == pytest.approx(2 / 3)   # CV / (CV + CC)
    assert two.p == pytest.approx(4 / 7)
    # trigrams: VVC, VCV, CVC, VCC, CCV
    assert four.p11 == pytest.approx(0.0)   # VV -> C
    assert four.p10 == pytest.approx(1 / 2) # VC -> V once, C once
    assert four.p01 == pytest.approx(0.0)   # CV -> C
    assert four.p00 == pytest.approx(1.0)   # CC -> V


def test_fit_requires_every_context():
    # pure alternation has no VV or CC contexts
    with pytest.raises(ZeroContextError):
        fit_sequence(seq_of("VCVCVCVCVC"))


def test_two_state_validation():
    with pytest.raises(ValueError):
        TwoStateModel(p=0.5, p0=1.2, p1=0.5)
    two = TwoStateModel(p=0.3, p0=0.6, p1=0.2)
    assert (two.q, two.q0, two.q1) == (1.0 - 0.3, 1.0 - 0.6, 1.0 - 0.2)


def test_four_state_vector_order():
    four = FourStateModel(p11=0.1, p10=0.2, p01=0.3, p00=0.4)
    assert four.as_vector() == pytest.approx([0.4, 0.3, 0.2, 0.1])
    assert four.q00 == pytest.approx(0.6)
    assert four.q11 == pytest.approx(0.9)


# ------------------------------------------------------------ dispersion


def _models(p0, p1, eta, nu, p):
    q0, q1 = 1.0 - p0, 1.0 - p1
    two = TwoStateModel(p=p, p0=p0, p1=p1)
    p11 = p1 + eta * q1
    q00 = q0 + nu * p0
    four = FourStateModel(p11=p11, p10=p1, p01=p0, p00=1.0 - q00)
    return two, four


def test_cf_simple_formula():
    two, four = _models(p0=0.6, p1=0.4, eta=0.0, nu=0.0, p=0.5)
    rep = dispersion_report(two, four, 1000)
    d = 0.4 - 0.6
    assert rep.d == pytest.approx(d)
    assert rep.cf_simple == pytest.approx((1 + d) / (1 - d))


def test_cf_complex_worked_example():
    """Alternation-dominated regime: d=-0.535 with small eta and large nu.

    Independent evaluation of the second-order correction:
      0.5 * ((1+eta)/(1-eta) + (1+nu)/(1-nu)) * cf_simple
        + (q-p) * (nu-eta) / ((1-eta) * (1-nu))
    gives 0.19897 for these inputs, and md is its complement.
    """
    two, four = _models(p0=0.635, p1=0.1, eta=-0.021, nu=-0.297, p=0.432)
    rep = dispersion_report(two, four, 107_168)
    assert rep.cf_simple == pytest.approx(0.303, abs=5e-4)
    assert rep.eta == pytest.approx(-0.021, abs=1e-12)
    assert rep.nu == pytest.approx(-0.297, abs=1e-12)
    assert rep.cf_complex == pytest.approx(0.19897, abs=5e-5)
    assert rep.md == pytest.approx(1.0 - rep.cf_complex)


def test_cf_complex_reduces_to_simple_exactly():
    two, four = _models(p0=0.37, p1=0.84, eta=0.0, nu=0.0, p=0.61)
    rep = dispersion_report(two, four, 5000)
    assert rep.eta == 0.0
    assert rep.nu == 0.0
    assert rep.cf_complex == rep.cf_simple


def test_variances():
    two, four = _models(p0=0.6, p1=0.4, eta=0.1, nu=-0.1, p=0.5)
    rep = dispersion_report(two, four, 2000)
    assert rep.var_independent == pytest.approx(0.5 * 0.5 / 2000)
    assert rep.var_dependent == pytest.approx(rep.cf_complex * rep.var_independent)


def test_md_uses_selected_cf():
    two, four = _models(p0=0.6, p1=0.4, eta=0.1, nu=-0.1, p=0.5)
    simple = dispersion_report(two, four, 2000, which_cf="simple")
    complex_ = dispersion_report(two, four, 2000, which_cf="complex")
    assert simple.md == pytest.approx(1.0 - simple.cf_simple)
    assert complex_.md == pytest.approx(1.0 - complex_.cf_complex)
    assert simple.which_cf == "simple"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p0=0.0, p1=0.5, eta=0.0, nu=0.0, p=0.4),      # p0 pole
        dict(p0=0.3, p1=1.0, eta=0.0, nu=0.0, p=0.5),      # q1 = 0 pole
        dict(p0=0.3, p1=0.5, eta=1.0, nu=0.0, p=0.45),     # eta pole
        dict(p0=0.3, p1=0.5, eta=0.0, nu=1.0, p=0.45),     # nu pole
    ],
)
def test_dispersion_poles_raise(kwargs):
    two, four = _models(**kwargs)
    with pytest.raises(DomainError):
        dispersion_report(two, four, 100)


def test_d_pole_raises():
    two = TwoStateModel(p=0.5, p0=0.0, p1=1.0)
    four = FourStateModel(p11=1.0, p10=1.0, p01=0.0, p00=0.0)
    with pytest.raises(DomainError):
        dispersion_report(two, four, 100)


@given(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95),
    st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
)
@settings(max_examples=300, deadline=None)
def test_cf_complex_against_formula(p0, p1, eta, nu):
    """Property: the report equals a literal transcription of the formula."""
    p = 0.5
    assume(0.0 <= p1 + eta * (1 - p1) <= 1.0)
    assume(0.0 <= (1 - p0) + nu * p0 <= 1.0)
    two, four = _models(p0=p0, p1=p1, eta=eta, nu=nu, p=p)
    rep = dispersion_report(two, four, 1234)
    d = p1 - p0
    cf_simple = (1 + d) / (1 - d)
    first = 0.5 * ((1 + rep.eta) / (1 - rep.eta) + (1 + rep.nu) / (1 - rep.nu)) * cf_simple
    second = (two.q - two.p) * (rep.nu - rep.eta) / ((1 - rep.eta) * (1 - rep.nu))
    assert rep.cf_simple == pytest.approx(cf_simple, rel=1e-12)
    assert rep.cf_complex == pytest.approx(first + second, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ simulation


def test_simulate_deterministic(fixture_chain):
    a = simulate_sequence(fixture_chain, 500, seed=7)
    b = simulate_sequence(fixture_chain, 500, seed=7)
    c = simulate_sequence(fixture_chain, 500, seed=8)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_simulate_generator_seed(fixture_chain):
    g1 = np.random.default_rng(7)
    g2 = np.random.default_rng(7)
    a = simulate_sequence(fixture_chain, 300, seed=g1)
    b = simulate_sequence(fixture_chain, 300, seed=g2)
    assert np.array_equal(a.symbols, b.symbols)


def test_simulate_forced_init(fixture_chain):
    seq = simulate_sequence(fixture_chain, 100, seed=3, init="VC")
    assert seq.to_string()[:2] == "VC"
    seq2 = simulate_sequence(fixture_chain, 100, seed=3, init="CC")
    assert seq2.to_string()[:2] == "CC"


def test_simulate_minimal_length(fixture_chain):
    seq = simulate_sequence(fixture_chain, 2, seed=1)
    assert len(seq) == 2
    with pytest.raises(ValueError):
        simulate_sequence(fixture_chain, 1, seed=1)


# sha256 of the symbols at seed 3: pins the draw order as well as the
# transitions, so a rewrite of the simulator must reproduce these bytes
SIMULATION_DIGESTS = {
    (2, None): "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    (2, "VC"): "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
    (3, None): "cf7605ed1bc735f6c825554154627467e1cac9df54cee8699218ed434603c568",
    (3, "VC"): "85f90dfea1d8027e1463e5ca971a250110a20df0119d204a74220bc63516d15b",
    (10_000, None): "8eca2987f8a502d34d142e751e03211426bf1c0d0e1ba90a9ed89c4328cb189b",
    (10_000, "VC"): "e39c314894339c2eadd1adaead6cfb26f737e1e4fd02f3538a51da37a2fe5f1b",
}


@pytest.mark.parametrize("length,init", sorted(SIMULATION_DIGESTS, key=str))
def test_simulate_output_is_pinned(fixture_chain, length, init):
    seq = simulate_sequence(fixture_chain, length, seed=3, init=init)
    assert seq.symbols.dtype == np.uint8
    digest = hashlib.sha256(seq.symbols.tobytes()).hexdigest()
    assert digest == SIMULATION_DIGESTS[(length, init)]


def test_simulate_transition_frequencies(fixture_chain):
    """Empirical conditional frequencies converge on the model parameters."""
    seq = simulate_sequence(fixture_chain, 200_000, seed=12)
    _, four = fit_sequence(seq)
    assert four.p00 == pytest.approx(fixture_chain.p00, abs=0.01)
    assert four.p01 == pytest.approx(fixture_chain.p01, abs=0.01)
    assert four.p10 == pytest.approx(fixture_chain.p10, abs=0.01)
    assert four.p11 == pytest.approx(fixture_chain.p11, abs=0.01)


def test_simulate_deterministic_alternator():
    # P(V | ..C) = 1 and P(V | ..V) = 0 forces strict alternation;
    # contexts ending in C are CC (p00) and VC (p10)
    model = FourStateModel(p11=0.0, p10=1.0, p01=0.0, p00=1.0)
    seq = simulate_sequence(model, 50, seed=5)
    text = seq.to_string()
    assert text in ("VC" * 25, "CV" * 25)


# ------------------------------------------------------------ stationary law


def test_stationary_distribution_fixed_point(fixture_chain):
    pi = stationary_bigram_distribution(fixture_chain)
    T = transition_matrix(fixture_chain)
    assert pi.shape == (4,)
    assert pi.sum() == pytest.approx(1.0)
    assert pi @ T == pytest.approx(pi, abs=1e-10)


def test_transition_matrix_rows(fixture_chain):
    T = transition_matrix(fixture_chain)
    assert T.shape == (4, 4)
    assert T.sum(axis=1) == pytest.approx(np.ones(4))
    # from state CC (0): stays CC with 1-p00, moves to CV (1) with p00
    assert T[0, 0] == pytest.approx(1 - fixture_chain.p00)
    assert T[0, 1] == pytest.approx(fixture_chain.p00)
    # from state CV (1): to VC (2) with 1-p01, to VV (3) with p01
    assert T[1, 2] == pytest.approx(1 - fixture_chain.p01)
    assert T[1, 3] == pytest.approx(fixture_chain.p01)


def test_stationary_matches_long_run(fixture_chain):
    pi = stationary_bigram_distribution(fixture_chain)
    seq = simulate_sequence(fixture_chain, 400_000, seed=77)
    counts = count_ngrams(seq, 2)
    for idx, pattern in enumerate(("CC", "CV", "VC", "VV")):
        emp = counts[pattern] / counts.n_effective
        assert emp == pytest.approx(pi[idx], abs=0.01)


def test_stationary_periodic_chain():
    model = FourStateModel(p11=0.0, p10=1.0, p01=0.0, p00=1.0)
    pi = stationary_bigram_distribution(model)
    assert pi == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-9)


def _stationary_by_iteration(model):
    """Damped power iteration on (T + I) / 2, which converges for periodic
    chains too; the damping leaves the fixed points of T untouched."""
    T = transition_matrix(model)
    v = np.full(4, 0.25)
    for _ in range(200_000):
        nxt = 0.5 * (v + v @ T)
        if np.max(np.abs(nxt - v)) <= 1e-12:
            return nxt / nxt.sum()
        v = nxt
    raise AssertionError("iteration did not converge")


def test_stationary_closed_form_matches_iteration():
    rng = np.random.default_rng(17)
    probs = np.vstack([rng.uniform(0.01, 0.99, (200, 4)), rng.choice([0.0, 0.5, 1.0], (40, 4))])
    checked = 0
    for p00, p01, p10, p11 in probs.tolist():
        model = FourStateModel(p11=p11, p10=p10, p01=p01, p00=p00)
        if (p00 == 0.0 and 1.0 in (p10, p11)) or (p01 == 0.0 and p11 == 1.0):
            continue  # two closed classes: no unique law to compare
        assert stationary_bigram_distribution(model) == pytest.approx(
            _stationary_by_iteration(model), abs=1e-9
        )
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("p00, p01, p10, p11", [
    (0.0, 0.5, 1.0, 0.5),  # CC absorbing, and VC always moves on to CV
    (0.0, 0.5, 0.5, 1.0),  # CC and VV both absorbing
    (0.5, 0.0, 0.5, 1.0),  # VV absorbing and never entered from CV
])
def test_stationary_without_unique_law_is_domain_error(p00, p01, p10, p11):
    model = FourStateModel(p11=p11, p10=p10, p01=p01, p00=p00)
    with pytest.raises(DomainError, match="stationary"):
        stationary_bigram_distribution(model)


# ------------------------------------------------------------ discrepancy


def test_trigram_discrepancy_zero_for_identical():
    counts = count_ngrams(seq_of("VVCVCCVV"), 3)
    assert trigram_discrepancy(counts, counts) == 0.0


def test_trigram_discrepancy_maximal():
    a = count_ngrams(seq_of("VVVVVV"), 3)
    b = count_ngrams(seq_of("CCCCCC"), 3)
    assert trigram_discrepancy(a, b) == pytest.approx(2.0)


def test_trigram_discrepancy_by_hand():
    a = count_ngrams(seq_of("VVVC"), 3)   # VVV, VVC -> 1/2 each
    b = count_ngrams(seq_of("VVVV"), 3)   # VVV twice -> 1
    # |1/2 - 1| + |1/2 - 0| = 1
    assert trigram_discrepancy(a, b) == pytest.approx(1.0)


def test_sequence_report(fixture_chain):
    seq = simulate_sequence(fixture_chain, 50_000, seed=21)
    rep = sequence_report(seq)
    assert rep.n == 50_000
    assert 0 < rep.cf_complex < 1
    assert rep.md == pytest.approx(1 - rep.cf_complex)
