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

The fit and the closed forms are written once, over columns of R fits.
A single sequence is one row. A concatenation of equal subblocks, as a
bootstrap replicate is, is fitted without assembling it: its trigram
counts are the summed counts inside its subblocks plus the windows that
cross a junction between two of them, and its vowel count is the sum of
its subblocks' (:func:`concatenation_reports`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Literal, Optional, Union

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


# the contexts of the six conditional probabilities, in the order their
# absence is reported, and where their counts sit in the bigram counts
# (0-3) followed by the trigram counts (4-11): the code that ends in V,
# and one less, the code that ends in C
_CONTEXTS = ("V", "C", "VV", "VC", "CV", "CC")
_THEN_V = np.array([3, 1, 11, 9, 7, 5])
_THEN_C = _THEN_V - 1


def _first_failure(checks):
    """The first row that fails a check, with the error it raises, or None.

    ``checks`` are (mask over rows, error for row i) pairs in the order one
    fit or report tests them, so a row's error is that of its first failed
    check. For one row, given as numpy scalars, the row index is ``()``.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if not failing.any():
        return None
    i = int(failing.argmax()) if failing.ndim else ()
    return i, next(error(i) for mask, error in checks if mask[i])


def _raise_failure(checks) -> None:
    failure = _first_failure(checks)
    if failure is not None:
        raise failure[1]


def _check_length(n: int) -> None:
    if n < 3:
        raise DomainError(f"sequence of length {n} has no windows of order {n + 1}")


def _fit(tri: np.ndarray, final, vowels, n: int):
    """Maximum-likelihood (p, p0, p1, p11, p10, p01, p00) of length-n sequences.

    ``tri`` holds trigram counts on its last axis: (R, 8) for R rows, whose
    final bigram codes and vowel counts are ``final`` and ``vowels``, or (8,)
    for one row, whose probabilities are then numpy scalars. The bigram
    counts are the trigram prefix sums plus the final bigram. Returns the
    columns and the checks for contexts that never occur, V and C before
    VV, VC, CV, CC: such a row raises :class:`ZeroContextError` naming it.
    """
    bigrams = tri[..., 0::2] + tri[..., 1::2] + (np.asarray(final)[..., None] == np.arange(4))
    counts = np.concatenate([bigrams, tri], axis=-1)
    then_v = counts[..., _THEN_V]
    seen = then_v + counts[..., _THEN_C]
    with np.errstate(divide="ignore", invalid="ignore"):
        p1, p0, p11, p10, p01, p00 = (then_v / seen).T
    zero = (seen == 0).T
    checks = [
        (zero[k], lambda i, context=context: ZeroContextError(context))
        for k, context in enumerate(_CONTEXTS)
    ]
    return (vowels / n, p0, p1, p11, p10, p01, p00), checks


def _sequence_fit(x: np.ndarray):
    """:func:`_fit` of one sequence."""
    _check_length(x.size)
    final = 2 * int(x[-2]) + int(x[-1])
    return _fit(count_ngrams(x, 3).freq, final, x.sum(dtype=np.int64), x.size)


def fit_sequence(seq: Union[SymbolSequence, np.ndarray]) -> tuple[TwoStateModel, FourStateModel]:
    """Fit both models on a sequence from one trigram count.

    Too few symbols for some order up to 3 is a :class:`DomainError` naming
    the lowest such order; a context that never occurs raises
    :class:`ZeroContextError` naming it, V and C before VV, VC, CV, CC.
    """
    columns, checks = _sequence_fit(_as_symbol_array(seq))
    _raise_failure(checks)
    p, p0, p1, p11, p10, p01, p00 = map(float, columns)
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


def _dispersion(p, p0, p1, p11, p00, n: int, which_cf: WhichCF):
    """The closed forms over columns of fits of length-n sequences.

    The columns are arrays over rows, or numpy scalars for one row; every
    row takes the same float operations in the same order. Returns the
    columns of :class:`DispersionReport` by field name and the checks for
    poles, in the order a report raises them.
    """
    if which_cf not in ("simple", "complex"):
        raise ValueError(f"which_cf must be 'simple' or 'complex', got {which_cf!r}")
    if n < 1:
        raise ValueError("n must be positive")
    with np.errstate(all="ignore"):
        q, q0, q1, q00 = 1.0 - p, 1.0 - p0, 1.0 - p1, 1.0 - p00
        d = p1 - p0
        eta = (p11 - p1) / q1
        nu = (q00 - q0) / p0
        cf_simple = (1.0 + d) / (1.0 - d)
        cf_complex = (
            0.5 * ((1.0 + eta) / (1.0 - eta) + (1.0 + nu) / (1.0 - nu)) * cf_simple
            + (q - p) * (nu - eta) / ((1.0 - eta) * (1.0 - nu))
        )
        cf = cf_simple if which_cf == "simple" else cf_complex
        var_independent = p * q / n
        columns = {
            "d": d,
            "eta": eta,
            "nu": nu,
            "cf_simple": cf_simple,
            "cf_complex": cf_complex,
            "md": 1.0 - cf,
            "var_independent": var_independent,
            "var_dependent": cf * var_independent,
        }
    checks = [
        (d >= 1.0 - _POLE_TOL, lambda i: DomainError(
            f"dispersion pole: d = p1 - p0 = {float(d[i])} is at or above 1")),
        (q1 <= 0.0, lambda i: DomainError("eta undefined: q1 = P(C | V) is zero")),
        (p0 <= 0.0, lambda i: DomainError("nu undefined: p0 = P(V | C) is zero")),
        (eta >= 1.0 - _POLE_TOL, lambda i: DomainError(
            f"dispersion pole: eta = {float(eta[i])} is at or above 1")),
        (nu >= 1.0 - _POLE_TOL, lambda i: DomainError(
            f"dispersion pole: nu = {float(nu[i])} is at or above 1")),
    ]
    return columns, checks


def _report(columns, checks, n: int, which_cf: WhichCF) -> DispersionReport:
    """The report of a one-row :func:`_dispersion`, in Python floats."""
    _raise_failure(checks)
    return DispersionReport(
        **{name: float(value) for name, value in columns.items()}, n=n, which_cf=which_cf
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
    p, p0, p1, p11, p00 = map(np.float64, (two.p, two.p0, two.p1, four.p11, four.p00))
    return _report(*_dispersion(p, p0, p1, p11, p00, n, which_cf), n, which_cf)


def sequence_report(
    seq: Union[SymbolSequence, np.ndarray], which_cf: WhichCF = "complex"
) -> DispersionReport:
    """Fit a sequence from one trigram count and build its dispersion report."""
    x = _as_symbol_array(seq)
    (p, p0, p1, p11, _, _, p00), checks = _sequence_fit(x)
    _raise_failure(checks)
    return _report(*_dispersion(p, p0, p1, p11, p00, x.size, which_cf), x.size, which_cf)


# draws counted together: bounds the temporaries when a block is cut into
# many short subblocks
_CHUNK = 1 << 16


def concatenation_reports(
    candidates: np.ndarray, draws: Iterable[np.ndarray], which_cf: WhichCF = "complex"
) -> tuple[dict[str, np.ndarray], Optional[tuple[int, Exception]]]:
    """Dispersion columns of concatenations of equal-length subblocks.

    ``draws`` yields one array of indices into the rows of ``candidates``
    per sequence, at least one, all of one length: sequence i is
    ``candidates[draws_i].reshape(-1)``. It is fitted without being built:
    its trigram counts are the windows inside its subblocks, counted once
    per candidate, plus the windows that cross a junction between two
    draws; its vowel count is its subblocks' sum and its final bigram is
    read from its last draws. The draws are read a chunk at a time, so
    memory stays bounded however many there are.

    Returns the columns of :class:`DispersionReport` by field name, equal
    to what :func:`sequence_report` gives sequence by sequence, and the
    first sequence that fails, with the error its report would raise (None
    if none fails). Sequences shorter than three symbols raise at once.
    """
    candidates = np.asarray(candidates, dtype=np.uint8)
    draws = iter(draws)
    first = next(draws)
    n = first.size * candidates.shape[1]
    _check_length(n)
    # windows inside each candidate, and its vowels: one row per candidate
    inside = (candidates[:, :-2] << 2) | (candidates[:, 1:-1] << 1) | candidates[:, 2:]
    table = np.column_stack([
        _row_counts(inside, 8), candidates.sum(axis=1, dtype=np.int64),
    ])
    draws = chain([first], draws)
    rows = max(1, _CHUNK // first.size)
    parts = []
    while chunk := list(islice(draws, rows)):
        parts.append(_draw_counts(candidates, table, np.array(chunk)))
    tri, final, vowels = (np.concatenate(column) for column in zip(*parts))
    (p, p0, p1, p11, _, _, p00), fit_checks = _fit(tri, final, vowels, n)
    columns, checks = _dispersion(p, p0, p1, p11, p00, n, which_cf)
    return columns, _first_failure(fit_checks + checks)


def _draw_counts(candidates: np.ndarray, table: np.ndarray, draws: np.ndarray):
    """Trigram counts, final bigram codes and vowel counts of the
    concatenations of the rows of ``draws``."""
    m, sub = draws.shape[1], candidates.shape[1]
    n = m * sub
    counts = _row_counts(draws, len(table)) @ table
    tri, vowels = counts[:, :8], counts[:, 8]
    # a window starting at offset o of a draw ends (o + 2) // sub draws later;
    # for o < sub - 2 it stays inside its subblock. at[offset] holds the
    # symbol at that offset of every draw
    starts = range(max(sub - 2, 0), sub)
    at = {k % sub: candidates[:, k % sub][draws] for o in starts for k in range(o, o + 3)}
    for o in starts:
        span = (o + 2) // sub
        code = 0
        for k in range(o, o + 3):
            shift = k // sub
            code = (code << 1) | at[k % sub][:, shift : m - span + shift]
        tri = tri + _row_counts(code, 8)
    (j0, o0), (j1, o1) = divmod(n - 2, sub), divmod(n - 1, sub)
    final = 2 * at[o0][:, j0].astype(np.int64) + at[o1][:, j1]
    return tri, final, vowels


def _row_counts(codes: np.ndarray, size: int) -> np.ndarray:
    """Per row of ``codes``, how often each of the values 0..size-1 occurs."""
    rows = codes.shape[0]
    offsets = size * np.arange(rows, dtype=np.int64)[:, None]
    return np.bincount((codes + offsets).ravel(), minlength=rows * size).reshape(rows, size)


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
