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
its subblocks' (:func:`concatenation_reports`). A simulated ensemble is
fitted window by window as its chains run (:func:`simulation_reports`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import isqrt
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

import numpy as np

from .encoding import SymbolSequence
from .errors import DomainError, ZeroContextError

WhichCF = Literal["simple", "complex"]

_POLE_TOL = 1e-12


def _as_symbol_array(seq: Union[SymbolSequence, np.ndarray]) -> np.ndarray:
    if isinstance(seq, SymbolSequence):
        return seq.symbols
    arr = np.asarray(seq)
    # the cast to uint8 would truncate 0.5 and wrap 256 to 0: check other dtypes first
    if arr.dtype not in (np.uint8, np.bool_) and not (
        arr.dtype.kind in "iuf" and ((arr == 0) | (arr == 1)).all()
    ):
        raise ValueError("symbols must be 0 or 1")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("symbol array must be one dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("symbols must be 0 or 1")
    return arr


@dataclass(frozen=True, eq=False)
class NgramCounts:
    """Counts of overlapping length-``order`` windows, indexed by the window
    read as a binary number with V = 1: ``freq[0b101]`` counts VCV. The
    counts of an ensemble of equal-length sequences are rows of ``freq``."""

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


def _sequence_fit(x: np.ndarray, trigrams: Optional[NgramCounts] = None):
    """:func:`_fit` of one sequence, from its trigram counts if given."""
    _check_length(x.size)
    final = 2 * int(x[-2]) + int(x[-1])
    tri = (count_ngrams(x, 3) if trigrams is None else trigrams).freq
    return _fit(tri, final, x.sum(dtype=np.int64), x.size)


def fit_sequence(
    seq: Union[SymbolSequence, np.ndarray], trigrams: Optional[NgramCounts] = None
) -> tuple[TwoStateModel, FourStateModel]:
    """Fit both models on a sequence from one trigram count.

    ``trigrams``, if given, must be the sequence's own order-3 counts: a
    caller that needs them too counts the sequence once. Too few symbols
    for some order up to 3 is a :class:`DomainError` naming the lowest such
    order; a context that never occurs raises :class:`ZeroContextError`
    naming it, V and C before VV, VC, CV, CC.
    """
    columns, checks = _sequence_fit(_as_symbol_array(seq), trigrams)
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
    return _reports(tri, final, vowels, n, which_cf)


def _reports(tri: np.ndarray, final: np.ndarray, vowels: np.ndarray, n: int, which_cf: WhichCF):
    """Dispersion columns of R length-n sequences given by their (R, 8)
    trigram counts, final bigram codes and vowel counts, and the first row
    that fails with the error its report would raise (None if none does)."""
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


def _start_state(model: FourStateModel, rng: np.random.Generator, init: Optional[str]) -> int:
    """The first bigram state: drawn from the stationary law with one
    uniform when ``init`` is None, else named by ``init``, e.g. ``"VC"``."""
    if init is None:
        weights = stationary_bigram_distribution(model)
        return min(int(np.searchsorted(np.cumsum(weights), rng.random(), side="right")), 3)
    if len(init) != 2 or set(init) - {"V", "C"}:
        raise ValueError(f"init must be two symbols from {{V, C}}, got {init!r}")
    return ((init[0] == "V") << 1) | (init[1] == "V")


# a step compares its uniform u with the four transition probabilities;
# bit s of its code c is u < p[s], and it moves state s to _NEXT[4 c + s]
_c, _s = np.divmod(np.arange(64), 4)
_NEXT = ((_s & 1) << 1 | _c >> _s & 1).astype(np.uint8)
# a map of the four states holds the image of state s in bits 2s and
# 2s + 1; _APPLY[256 c + m] is map m followed by a step of code c
_c, _m = np.divmod(np.arange(4096), 256)
_APPLY = sum(_NEXT[4 * _c + (_m >> 2 * s & 3)] << 2 * s for s in range(4)).astype(np.uint8)
_IDENTITY = 0b11100100  # every state to itself
del _c, _s, _m

# uniforms drawn per window over all chains, and chains run together: these
# bound the engine's memory at about 1.5 MB whatever the ensemble's size,
# and a numpy step's work at sqrt(2 _WINDOW _GROUP) lanes
_WINDOW = 1 << 16
_GROUP = 256


def _chain_states(
    p: np.ndarray, starts: np.ndarray, rngs: Sequence[np.random.Generator], steps: int
) -> Iterator[np.ndarray]:
    """Run S chains for ``steps`` transitions and yield their bigram states
    after each transition, one (S, w) uint8 window at a time.

    Chain i starts in state ``starts[i]`` and draws its uniforms from
    ``rngs[i]``, a window at a time: together they are the values of one
    ``random(steps)`` call. Within a window each chain is cut into g time
    segments. A segment's transitions are first composed into one map of
    the four states, run from all four starts at once; chaining the maps
    from the window's start gives every segment's real start; a second
    pass from those starts writes the states. Each pass steps all S x g
    segments together, so a window takes about 2 w / g + g numpy steps.
    """
    n_chains = len(rngs)
    width = max(1, _WINDOW // n_chains)
    state = np.asarray(starts, dtype=np.uint8)
    buffer = np.empty((n_chains, min(width, steps)))
    for lo in range(0, steps, width):
        w = min(width, steps - lo)
        u = buffer[:, :w]
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        g = isqrt(2 * w)
        t = -(-w // g)
        g = -(-w // t)
        codes = np.zeros((n_chains, g * t), dtype=np.uint16)
        for s in range(4):
            codes[:, :w] |= (u < p[s]).view(np.uint8) << s
        # step k of every segment is row k: (t, S, g)
        codes = np.ascontiguousarray(codes.reshape(n_chains, g, t).transpose(2, 0, 1))
        codes <<= 8
        maps = np.full((n_chains, g), _IDENTITY, dtype=np.uint8)
        for k in range(t):
            maps = _APPLY.take(codes[k] + maps)
        segment_starts = np.empty((n_chains, g), dtype=np.uint8)
        for j in range(g):
            segment_starts[:, j] = state
            state = maps[:, j] >> 2 * state & 3
        codes >>= 6
        states = np.empty((t, n_chains, g), dtype=np.uint8)
        current = segment_starts
        for k in range(t):
            current = states[k] = _NEXT.take(codes[k] + current)
        # drop the last segment's padding past w: the state carried to the
        # next window is the last real one
        states = states.transpose(1, 2, 0).reshape(n_chains, g * t)[:, :w]
        state = states[:, -1]
        yield states


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
    ``init`` names the first two symbols, e.g. ``"VC"``. Uniform k moves
    the bigram state s to ``((s & 1) << 1) | (u_k < p[s])``.
    """
    if length < 2:
        raise ValueError("length must be at least 2: the state is a bigram")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    state = _start_state(model, rng, init)
    windows = _chain_states(model.as_vector(), [state], [rng], length - 2)
    first = np.array([state >> 1, state & 1], dtype=np.uint8)
    symbols = np.concatenate([first, *(states[0] & 1 for states in windows)])
    return SymbolSequence(symbols=symbols, source_id="simulated")


def simulation_reports(
    model: FourStateModel,
    length: int,
    rngs: Sequence[np.random.Generator],
    which_cf: WhichCF = "complex",
) -> tuple[NgramCounts, dict[str, np.ndarray]]:
    """Simulate one chain per generator and fit each without keeping it.

    Chain i is ``simulate_sequence(model, length, rngs[i])``, symbol for
    symbol. Its trigram counts are folded in window by window as the
    chains run, carrying each chain's last state across a window's edge;
    its vowel count and final bigram follow from them.

    Returns the chains' trigram counts (``freq`` of shape (S, 8)) and the
    columns of :class:`DispersionReport` by field name, equal to what
    :func:`sequence_report` gives chain by chain. An error is that of the
    first chain that fails, simulated and fitted in chain order.
    """
    if length < 2:
        raise ValueError("length must be at least 2: the state is a bigram")
    starts = np.array([_start_state(model, rng, None) for rng in rngs], dtype=np.uint8)
    _check_length(length)
    p = model.as_vector()
    tri = np.zeros((len(rngs), 8), dtype=np.int64)
    final = starts.copy()
    for lo in range(0, len(rngs), _GROUP):
        group = slice(lo, lo + _GROUP)
        previous = starts[group]
        for states in _chain_states(p, previous, rngs[group], length - 2):
            # a transition's trigram: the older symbol of the state before
            # it, then the state after it
            older = np.empty(states.shape, dtype=np.uint8)
            older[:, 0] = previous >> 1
            older[:, 1:] = states[:, :-1] >> 1
            tri[group] += _row_counts(older << 2 | states, 8)
            previous = states[:, -1]
        final[group] = previous
    vowels = (starts >> 1) + (starts & 1) + tri[:, 1::2].sum(axis=1)
    columns, failure = _reports(tri, final, vowels, length, which_cf)
    if failure is not None:
        raise failure[1]
    return NgramCounts(order=3, freq=tri, n_effective=length - 2), columns


def trigram_discrepancy(empirical: NgramCounts, simulated: NgramCounts):
    """Total absolute difference between trigram frequency profiles.

    Both inputs must be order-3 counts. The value is the L1 distance of
    the two relative-frequency vectors, so it lies in [0, 2]. When
    ``simulated`` holds rows of counts, the result is an array with one
    distance per row; each row's eight terms are summed in index order, so
    it equals the distance of that row alone.
    """
    if empirical.order != 3 or simulated.order != 3:
        raise ValueError("trigram_discrepancy expects order-3 counts")
    terms = np.abs(
        empirical.freq / empirical.n_effective - simulated.freq / simulated.n_effective
    )
    total = terms[..., 0]
    for k in range(1, 8):
        total = total + terms[..., k]
    return float(total) if total.ndim == 0 else total
