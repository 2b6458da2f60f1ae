"""Two-state and four-state Markov chains over binary V/C sequences.

The four-state chain lives on symbol bigrams. States are coded as
``(older << 1) | newer`` with V = 1, C = 0:

====  =====  =================
code  state  transition prob.
====  =====  =================
0     CC     p00 = P(V | CC)
1     CV     p01 = P(V | CV)
2     VC     p10 = P(V | VC)
3     VV     p11 = P(V | VV)
====  =====  =================

The dispersion coefficient compares the variance of the vowel count under
the fitted chain with the binomial variance of an independent stream with
the same vowel rate. Writing d = p1 - p0 for the two-state dependence and

    eta = (p11 - p1) / q1        nu = (q00 - q0) / p0

for the second-order corrections, the two forms are

    CF_simple  = (1 + d) / (1 - d)

    CF_complex = ((1 + eta) / (1 - eta) + (1 + nu) / (1 - nu)) / 2
                 * CF_simple
                 + (q - p) * (nu - eta) / ((1 - eta) * (1 - nu))

and the memory depth is MD = 1 - CF. CF < 1 (MD > 0) means vowel counts
disperse less than independence allows, the signature of an alternating,
self-correcting stream.

A fit counts a sequence's overlapping trigrams once. The bigram counts
are their prefix sums plus the final bigram, the vowel count is the symbol
sum, and nothing is smoothed: a context that never occurs is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .encoding import SymbolSequence
from .errors import DomainError, ZeroContextError

WhichCF = Literal["simple", "complex"]

_POLE_TOL = 1e-12


def _as_symbol_array(seq: Union[SymbolSequence, np.ndarray]) -> np.ndarray:
    if isinstance(seq, SymbolSequence):
        return seq.symbols
    arr = np.ascontiguousarray(seq, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("symbol array must be one dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("symbols must be 0 or 1")
    return arr


@dataclass(frozen=True, eq=False)
class NgramCounts:
    """Counts of overlapping length-``order`` windows, indexed by the window
    read as a binary number with V = 1: ``freq[0b101]`` counts VCV."""

    order: int
    freq: np.ndarray
    n_effective: int

    def __getitem__(self, pattern: str) -> int:
        if len(pattern) != self.order or set(pattern) - {"V", "C"}:
            raise KeyError(pattern)
        return int(self.freq[int(pattern.replace("V", "1").replace("C", "0"), 2)])


def count_ngrams(seq: Union[SymbolSequence, np.ndarray], order: int) -> NgramCounts:
    """Count overlapping n-grams of the given order (1, 2, or 3).

    The window count is n - order + 1; a sequence shorter than the order is
    an error rather than an empty table.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    x = _as_symbol_array(seq)
    n = x.size
    if n < order:
        raise DomainError(f"sequence of length {n} has no windows of order {order}")
    codes = x[: n - order + 1].astype(np.int64)
    for j in range(1, order):
        codes = (codes << 1) | x[j : n - order + 1 + j]
    freq = np.bincount(codes, minlength=2**order)
    return NgramCounts(order=order, freq=freq, n_effective=n - order + 1)


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class TwoStateModel:
    """First-order chain: vowel rate plus P(V | previous symbol)."""

    p: float
    p0: float
    p1: float

    def __post_init__(self):
        for name in ("p", "p0", "p1"):
            _check_prob(name, getattr(self, name))

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def q0(self) -> float:
        return 1.0 - self.p0

    @property
    def q1(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class FourStateModel:
    """Second-order chain: P(V | two preceding symbols)."""

    p11: float
    p10: float
    p01: float
    p00: float

    def __post_init__(self):
        for name in ("p11", "p10", "p01", "p00"):
            _check_prob(name, getattr(self, name))

    @property
    def q11(self) -> float:
        return 1.0 - self.p11

    @property
    def q00(self) -> float:
        return 1.0 - self.p00

    def as_vector(self) -> np.ndarray:
        """Transition probabilities indexed by state code (older<<1)|newer."""
        return np.array([self.p00, self.p01, self.p10, self.p11], dtype=float)


def _conditional(cv: int, cc: int, context: str) -> float:
    denom = cv + cc
    if denom == 0:
        raise ZeroContextError(context)
    return cv / denom


def _fit(x: np.ndarray) -> tuple[float, float, float, float, float, float, float]:
    """Maximum-likelihood (p, p0, p1, p11, p10, p01, p00) of ``x``.

    Too few symbols for some order up to 3 is a :class:`DomainError` naming
    the lowest such order; a context that never occurs raises
    :class:`ZeroContextError` naming it, V and C before VV, VC, CV, CC.
    """
    n = x.size
    if n < 3:
        raise DomainError(f"sequence of length {n} has no windows of order {n + 1}")
    f = count_ngrams(x, 3).freq.tolist()
    bigrams = [f[0] + f[1], f[2] + f[3], f[4] + f[5], f[6] + f[7]]
    bigrams[2 * int(x[-2]) + int(x[-1])] += 1
    p = int(x.sum()) / n
    p1 = _conditional(bigrams[3], bigrams[2], "V")
    p0 = _conditional(bigrams[1], bigrams[0], "C")
    return (
        p, p0, p1,
        _conditional(f[7], f[6], "VV"),
        _conditional(f[5], f[4], "VC"),
        _conditional(f[3], f[2], "CV"),
        _conditional(f[1], f[0], "CC"),
    )


def fit_sequence(seq: Union[SymbolSequence, np.ndarray]) -> tuple[TwoStateModel, FourStateModel]:
    """Fit both models on a sequence from one trigram count."""
    p, p0, p1, p11, p10, p01, p00 = _fit(_as_symbol_array(seq))
    two = TwoStateModel(p=p, p0=p0, p1=p1)
    return two, FourStateModel(p11=p11, p10=p10, p01=p01, p00=p00)


@dataclass(frozen=True)
class DispersionReport:
    d: float
    eta: float
    nu: float
    cf_simple: float
    cf_complex: float
    md: float
    var_independent: float
    var_dependent: float
    n: int
    which_cf: WhichCF


def _dispersion(
    p: float, p0: float, p1: float, p11: float, p00: float, n: int, which_cf: WhichCF
) -> DispersionReport:
    if which_cf not in ("simple", "complex"):
        raise ValueError(f"which_cf must be 'simple' or 'complex', got {which_cf!r}")
    if n < 1:
        raise ValueError("n must be positive")
    q, q0, q1, q00 = 1.0 - p, 1.0 - p0, 1.0 - p1, 1.0 - p00
    d = p1 - p0
    if d >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: d = p1 - p0 = {d} is at or above 1")
    if q1 <= 0.0:
        raise DomainError("eta undefined: q1 = P(C | V) is zero")
    if p0 <= 0.0:
        raise DomainError("nu undefined: p0 = P(V | C) is zero")
    eta = (p11 - p1) / q1
    nu = (q00 - q0) / p0
    if eta >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: eta = {eta} is at or above 1")
    if nu >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: nu = {nu} is at or above 1")
    cf_simple = (1.0 + d) / (1.0 - d)
    cf_complex = (
        0.5 * ((1.0 + eta) / (1.0 - eta) + (1.0 + nu) / (1.0 - nu)) * cf_simple
        + (q - p) * (nu - eta) / ((1.0 - eta) * (1.0 - nu))
    )
    cf = cf_simple if which_cf == "simple" else cf_complex
    var_independent = p * q / n
    return DispersionReport(
        d=d,
        eta=eta,
        nu=nu,
        cf_simple=cf_simple,
        cf_complex=cf_complex,
        md=1.0 - cf,
        var_independent=var_independent,
        var_dependent=cf * var_independent,
        n=n,
        which_cf=which_cf,
    )


def dispersion_report(
    two: TwoStateModel, four: FourStateModel, n: int, which_cf: WhichCF = "complex"
) -> DispersionReport:
    """Dispersion coefficients and memory depth for fitted models.

    ``n`` is the symbol count behind the fit; it scales the variance
    columns only. Poles of the closed forms (d, eta, or nu at 1) raise
    :class:`DomainError` naming the offending quantity. The complements
    are taken as 1 - p of the models' probabilities.
    """
    return _dispersion(two.p, two.p0, two.p1, four.p11, four.p00, n, which_cf)


def sequence_report(
    seq: Union[SymbolSequence, np.ndarray], which_cf: WhichCF = "complex"
) -> DispersionReport:
    """Fit a sequence from one trigram count and build its dispersion report."""
    x = _as_symbol_array(seq)
    p, p0, p1, p11, _, _, p00 = _fit(x)
    return _dispersion(p, p0, p1, p11, p00, x.size, which_cf)


def stationary_bigram_distribution(model: FourStateModel) -> np.ndarray:
    """Stationary distribution over bigram states CC, CV, VC, VV.

    Balance gives it in closed form: CC is left as often as it is entered
    (pi_CC p00 = pi_VC q10), so is VV (pi_VV q11 = pi_CV p01), and CV and VC
    occur equally often. All-zero weights mean two closed classes, so no
    unique stationary law, and raise :class:`DomainError`.
    """
    cv = model.p00 * model.q11
    weights = np.array([(1.0 - model.p10) * model.q11, cv, cv, model.p00 * model.p01])
    total = weights.sum()
    if total == 0.0:
        raise DomainError("no unique stationary distribution: the chain has two closed classes")
    return weights / total


def simulate_sequence(
    model: FourStateModel,
    length: int,
    seed: Union[int, np.random.Generator],
    init: Optional[str] = None,
) -> SymbolSequence:
    """Generate a symbol sequence from the four-state chain.

    The draw order is fixed and documented so seeded runs are reproducible:
    one uniform for the stationary initial state when ``init`` is None,
    then ``length - 2`` uniforms, one per transition, in sequence order.
    ``init`` names the first two symbols, e.g. ``"VC"``.

    The chain steps sequentially: uniform k moves the bigram state s to
    ``((s & 1) << 1) | (u_k < p[s])``, one double comparison per step.
    """
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
    # the low bit of each entry is one symbol: the older symbol of the first
    # bigram, then the newer symbol of every state. Python scalars throughout:
    # writing each state into the numpy array would cost more than the loop
    for u_k in rng.random(length - 2).tolist():
        state = ((state & 1) << 1) | (u_k < pvec[state])
        states.append(state)
    symbols = np.array(states, dtype=np.uint8) & 1
    return SymbolSequence(symbols=symbols, source_id="simulated")


def trigram_discrepancy(empirical: NgramCounts, simulated: NgramCounts) -> float:
    """Total absolute difference between trigram frequency profiles.

    Both inputs must be order-3 counts. The value is the L1 distance of
    the two relative-frequency vectors, so it lies in [0, 2].
    """
    if empirical.order != 3 or simulated.order != 3:
        raise ValueError("trigram_discrepancy expects order-3 counts")
    total = 0.0
    for fe, fs in zip(empirical.freq.tolist(), simulated.freq.tolist()):
        total += abs(fe / empirical.n_effective - fs / simulated.n_effective)
    return total
