"""The three-count reference implementation of the model fit.

Every sequence is counted at orders 1, 2 and 3 into string-keyed tables,
the models are fitted from the three tables and the dispersion report is
built from the model objects. The package derives all of it from one
trigram count; the tests compare the two with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from vcmarkov.errors import DomainError, ZeroContextError
from vcmarkov.markov import DispersionReport, FourStateModel, TwoStateModel, _as_symbol_array

_POLE_TOL = 1e-12


def _pattern(code: int, order: int) -> str:
    return "".join("V" if (code >> (order - 1 - j)) & 1 else "C" for j in range(order))


def all_patterns(order: int) -> list[str]:
    return ["".join(p) for p in product("CV", repeat=order)]


@dataclass(frozen=True)
class StringCounts:
    order: int
    counts: dict[str, int]
    n_effective: int

    def __getitem__(self, pattern: str) -> int:
        return self.counts[pattern]


def count_ngrams(seq, order: int) -> StringCounts:
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
    counts = {_pattern(code, order): int(freq[code]) for code in range(2**order)}
    return StringCounts(order=order, counts=counts, n_effective=n - order + 1)


def fit_models(
    counts1: StringCounts, counts2: StringCounts, counts3: StringCounts
) -> tuple[TwoStateModel, FourStateModel]:
    if (counts1.order, counts2.order, counts3.order) != (1, 2, 3):
        raise ValueError("expected counts of orders 1, 2 and 3")
    p = counts1["V"] / counts1.n_effective

    def conditional(cv: int, cc: int, context: str) -> float:
        denom = cv + cc
        if denom == 0:
            raise ZeroContextError(context)
        return cv / denom

    p1 = conditional(counts2["VV"], counts2["VC"], "V")
    p0 = conditional(counts2["CV"], counts2["CC"], "C")
    two = TwoStateModel(p=p, p0=p0, p1=p1)
    four = FourStateModel(
        p11=conditional(counts3["VVV"], counts3["VVC"], "VV"),
        p10=conditional(counts3["VCV"], counts3["VCC"], "VC"),
        p01=conditional(counts3["CVV"], counts3["CVC"], "CV"),
        p00=conditional(counts3["CCV"], counts3["CCC"], "CC"),
    )
    return two, four


def fit_sequence(seq) -> tuple[TwoStateModel, FourStateModel]:
    return fit_models(count_ngrams(seq, 1), count_ngrams(seq, 2), count_ngrams(seq, 3))


def dispersion_report(two, four, n: int, which_cf: str = "complex") -> DispersionReport:
    if which_cf not in ("simple", "complex"):
        raise ValueError(f"which_cf must be 'simple' or 'complex', got {which_cf!r}")
    if n < 1:
        raise ValueError("n must be positive")
    d = two.p1 - two.p0
    if d >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: d = p1 - p0 = {d} is at or above 1")
    if two.q1 <= 0.0:
        raise DomainError("eta undefined: q1 = P(C | V) is zero")
    if two.p0 <= 0.0:
        raise DomainError("nu undefined: p0 = P(V | C) is zero")
    eta = (four.p11 - two.p1) / two.q1
    nu = (four.q00 - two.q0) / two.p0
    if eta >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: eta = {eta} is at or above 1")
    if nu >= 1.0 - _POLE_TOL:
        raise DomainError(f"dispersion pole: nu = {nu} is at or above 1")
    cf_simple = (1.0 + d) / (1.0 - d)
    cf_complex = (
        0.5 * ((1.0 + eta) / (1.0 - eta) + (1.0 + nu) / (1.0 - nu)) * cf_simple
        + (two.q - two.p) * (nu - eta) / ((1.0 - eta) * (1.0 - nu))
    )
    cf = cf_simple if which_cf == "simple" else cf_complex
    var_independent = two.p * two.q / n
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


def sequence_report(seq, which_cf: str = "complex") -> DispersionReport:
    x = _as_symbol_array(seq)
    two, four = fit_sequence(x)
    return dispersion_report(two, four, n=x.size, which_cf=which_cf)


def trigram_discrepancy(empirical: StringCounts, simulated: StringCounts) -> float:
    if empirical.order != 3 or simulated.order != 3:
        raise ValueError("trigram_discrepancy expects order-3 counts")
    total = 0.0
    for pattern in all_patterns(3):
        fe = empirical[pattern] / empirical.n_effective
        fs = simulated[pattern] / simulated.n_effective
        total += abs(fe - fs)
    return total
