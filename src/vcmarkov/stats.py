"""Diagnostics and inference: ACF, Ljung-Box, Spearman, interaction OLS.

No statistic calls BLAS or LAPACK: each is a closed form over exact sums,
so its value is the same on every CPU kernel and at every thread count.
Rank statistics use mid-ranks for ties throughout.
Spearman p-values are exact up to n = 10, counting integer rank-product
sums over all n! orderings with one cached null per pair of tie
patterns, and use the standard t approximation above that; partial
correlations always use the t approximation with the reduced degrees of
freedom.
scipy is imported only where a chi-squared or Student-t tail is
evaluated, so loading this module does not load scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError
from .markov import WhichCF, _as_symbol_array, concatenation_reports, sequence_report
from .resample import Interval, MbbConfig, mbb_replicate, percentile_interval, subblocks

_EXACT_SPEARMAN_MAX_N = 10
_TINY_P = 5e-324


@dataclass(frozen=True)
class AcfResult:
    lags: np.ndarray
    rho: np.ndarray
    n: int


def autocorrelation(x, max_lag: int) -> AcfResult:
    """Sample autocorrelations of a 0/1 symbol sequence at lags 1..max_lag.

    The biased estimator (lag-k sum of products of deviations over the
    lag-0 sum of squares) in integer counts: with n symbols, S ones, N_k
    pairs of ones k apart, H_k and T_k ones in the first and last n - k,

        rho_k = (n^2 N_k - n S (H_k + T_k) + (n - k) S^2) / (n (n S - S^2))

    with one correctly rounded division. Input other than 0 and 1 raises
    ValueError; a constant sequence raises :class:`DomainError`.
    """
    y = _as_symbol_array(x)
    n = y.size
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if n < max_lag + 1:
        raise ValueError(f"need at least max_lag + 1 = {max_lag + 1} points, got {n}")
    s = int(np.count_nonzero(y))
    denom = n * (n * s - s * s)
    if denom == 0:
        raise DomainError("autocorrelation undefined for a constant sequence")
    rho = np.empty(max_lag)
    ends = 2 * s
    for k in range(1, max_lag + 1):
        # H_k + T_k: S less the ones among the last k, plus S less those among the first k
        ends -= int(y[k - 1]) + int(y[n - k])
        pairs = int(np.count_nonzero(y[:-k] & y[k:]))
        rho[k - 1] = (n * n * pairs - n * s * ends + (n - k) * s * s) / denom
    return AcfResult(lags=np.arange(1, max_lag + 1), rho=rho, n=n)


@dataclass(frozen=True)
class LjungBoxResult:
    statistic: float
    h: int
    p_value: float
    n: int


def ljung_box_test(acf: AcfResult, h: int) -> LjungBoxResult:
    """Portmanteau whiteness test on the first h autocorrelations.

    Q = n (n + 2) * sum_{k<=h} rho_k^2 / (n - k), compared against the
    chi-squared distribution with h degrees of freedom.
    """
    from scipy.special import gammaincc

    if h < 1:
        raise ValueError("h must be at least 1")
    if h > acf.lags.size:
        raise ValueError(f"acf holds {acf.lags.size} lags, cannot test h = {h}")
    n = acf.n
    if n <= h:
        raise ValueError(f"need more observations than lags: n = {n}, h = {h}")
    k = np.arange(1, h + 1)
    q = float(n * (n + 2) * np.sum(acf.rho[:h] ** 2 / (n - k)))
    # upper tail of chi2(h) without building a distribution object
    p = float(gammaincc(h / 2.0, q / 2.0))
    return LjungBoxResult(statistic=q, h=h, p_value=max(p, _TINY_P), n=n)


def white_noise_band(n: int, z: float = 1.96) -> float:
    """Half-width of the conventional white-noise band for an ACF plot."""
    if n < 1:
        raise ValueError("n must be positive")
    return z / np.sqrt(n)


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n: int
    method: str
    controlled_for: tuple[str, ...] = ()


def midranks(a: np.ndarray) -> np.ndarray:
    """1-based mid-ranks: tied values share the mean of their positions.

    Every rank is an exact half-integer, so the result equals
    ``scipy.stats.rankdata(a)`` (method ``average``) bit for bit. NaN has
    no rank and raises :class:`DomainError`.
    """
    if np.isnan(a).any():
        raise DomainError("ranks undefined: input contains NaN")
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _centred_ranks(*columns) -> np.ndarray:
    """Doubled, centred mid-ranks 2 r - (n + 1) of equal-length columns: int64 rows."""
    arrays = [np.asarray(v, dtype=float).reshape(-1) for v in columns]
    n = arrays[0].size
    if any(v.size != n for v in arrays):
        raise ValueError("x, y and any control must have equal length")
    if n <= len(arrays):
        raise ValueError(f"need at least {len(arrays) + 1} observations, got {n}")
    return np.array([2 * midranks(v) - (n + 1) for v in arrays]).astype(np.int64)


def _t_approx_p(rho: float, dof: int) -> float:
    from scipy.special import stdtr

    if dof < 1:
        raise DomainError(f"too few observations: {dof} degrees of freedom")
    if 1.0 - rho * rho <= 0.0:
        return _TINY_P
    t = abs(rho) * np.sqrt(dof / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(dof, -t))
    return min(1.0, max(p, _TINY_P))


# the trend table's rows share one untied side, the block positions, so one
# table meets at most 2^(n - 1) tie patterns: keep them all
@functools.lru_cache(maxsize=2 ** (_EXACT_SPEARMAN_MAX_N - 1))
def _rank_product_null(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Exact null of S = sum_i a_i * b_perm(i): the distinct S, ascending,
    and how many of the n! orderings of ``b`` give each.

    A dynamic program over (how many entries of each tied group of ``b``
    are used so far, partial sum) places one ``a_i`` per step; each state
    holds a dense vector of counts over the partial sums. The null is
    symmetric in the two inputs, so the side with fewer distinct values is
    grouped. Neither input's order changes the null, so callers pass both
    sorted.
    """
    if len(set(b)) > len(set(a)):
        a, b = b, a
    values, sizes = np.unique(b, return_counts=True)
    strides = np.cumprod(np.r_[1, sizes[:-1] + 1])
    bound = sum(map(abs, a)) * max(map(abs, b))
    width = 2 * bound + 1
    states = np.zeros(1, dtype=np.int64)
    counts = np.zeros((1, width), dtype=np.int64)
    counts[0, bound] = 1
    for ai in a:
        room = sizes - states[:, None] // strides % (sizes + 1)
        nxt_states = np.unique((states[:, None] + strides)[room > 0])
        nxt = np.zeros((nxt_states.size, width), dtype=np.int64)
        for k, v in enumerate(values.tolist()):
            src = room[:, k] > 0
            rows = np.searchsorted(nxt_states, states[src] + strides[k])
            # each of the group's unused entries is one more ordering
            add = counts[src] * room[src, k, None]
            shift = ai * v
            if shift >= 0:
                nxt[rows, shift:] += add[:, : width - shift]
            else:
                nxt[rows, :shift] += add[:, -shift:]
        states, counts = nxt_states, nxt
    (nonzero,) = np.nonzero(counts[0])
    sums, freq = nonzero - bound, counts[0, nonzero]
    sums.flags.writeable = freq.flags.writeable = False
    return sums, freq


def spearman_test(x, y) -> SpearmanResult:
    """Spearman rank correlation with a two-sided p-value.

    Ties get mid-ranks. For n <= 10 the p-value is exact under the
    permutation null; larger samples use the t approximation with n - 2
    degrees of freedom.
    """
    ranks = _centred_ranks(x, y)
    n = ranks.shape[1]
    (s_aa, s_ab), (_, s_bb) = (ranks @ ranks.T).tolist()
    if s_aa == 0 or s_bb == 0:
        raise DomainError("correlation undefined: an input has zero variance")
    rho = min(1.0, max(-1.0, s_ab / math.sqrt(s_aa * s_bb)))
    if n <= _EXACT_SPEARMAN_MAX_N:
        # |rho| orders as |S_ab| under every ordering of b
        sums, freq = _rank_product_null(*(tuple(sorted(r)) for r in ranks.tolist()))
        p = int(freq[np.abs(sums) >= abs(s_ab)].sum()) / math.factorial(n)
        method = "exact"
    else:
        p = _t_approx_p(rho, n - 2)
        method = "t-approx"
    return SpearmanResult(rho=rho, p_value=p, n=n, method=method)


def partial_spearman(
    x, y, controls: Sequence, *, names: Optional[Sequence[str]] = None
) -> SpearmanResult:
    """Spearman correlation of x and y after removing the rank-linear effect
    of at most one control variable c.

    It is the correlation of the x and y rank residuals on the c ranks,
    (S_xy S_cc - S_xc S_yc) / sqrt((S_xx S_cc - S_xc^2)(S_yy S_cc - S_yc^2))
    in integer sums of products of centred ranks, with a t-approximate
    p-value on n - 3 degrees of freedom. With no controls this is exactly
    :func:`spearman_test`; two or more raise ValueError. Constant control
    ranks, or x or y ranks that are a linear function of them, raise
    :class:`DomainError`.
    """
    controls = list(controls)
    if not controls:
        return replace(spearman_test(x, y), controlled_for=())
    if len(controls) > 1:
        raise ValueError(f"at most one control is supported, got {len(controls)}")
    if names is not None and len(names) != 1:
        raise ValueError("names must match the number of controls")
    ranks = _centred_ranks(x, y, controls[0])
    n = ranks.shape[1]
    (s_aa, s_ab, s_ac), (_, s_bb, s_bc), (_, _, s_cc) = (ranks @ ranks.T).tolist()
    if s_cc == 0:
        raise DomainError("control ranks are collinear; partial correlation undefined")
    # residual sums of squares of x and y on the control, times S_cc
    r_aa, r_bb = s_aa * s_cc - s_ac * s_ac, s_bb * s_cc - s_bc * s_bc
    for label, r in (("x", r_aa), ("y", r_bb)):
        if r == 0:
            raise DomainError(
                f"{label} ranks are a linear function of the control ranks; "
                "partial correlation undefined"
            )
    rho = min(1.0, max(-1.0, (s_ab * s_cc - s_ac * s_bc) / math.sqrt(r_aa * r_bb)))
    p = _t_approx_p(rho, n - 3)
    return SpearmanResult(
        rho=rho, p_value=p, n=n, method="t-approx", controlled_for=tuple(names or ("c0",))
    )


COEFFICIENT_NAMES = ("intercept", "block", "source", "interaction")


@dataclass(frozen=True)
class BootstrapSummary:
    mean: float
    interval: Interval
    samples: np.ndarray


@dataclass(frozen=True)
class RegressionFit:
    coefficients: dict[str, float]
    r_squared: float
    baseline: str
    treatment: str
    n: int
    bootstrap: Optional[dict[str, BootstrapSummary]] = field(default=None, compare=False)


def fit_interaction_model(
    rows: Sequence[tuple[float, float, str]], *, baseline: Optional[str] = None
) -> RegressionFit:
    """OLS fit of md ~ block + source + block:source over exactly two sources.

    ``rows`` hold (md, block position, source label). The source indicator
    is 0 for the baseline label (the lexicographically smaller one unless
    overridden), 1 for the other, so the interaction coefficient is the
    slope difference of the treatment source against the baseline.
    It splits into one fsum-fitted line a_i + s_i * block per source, so the
    coefficients are a_0, s_0, a_1 - a_0 and s_1 - s_0. A source with fewer
    than two distinct positions raises :class:`DomainError`.
    """
    rows = list(rows)
    uniq = sorted({r[2] for r in rows})
    if len(uniq) != 2:
        raise ValueError(f"need exactly two source labels, got {uniq!r}")
    if baseline is None:
        baseline = uniq[0]
    if baseline not in uniq:
        raise ValueError(f"baseline {baseline!r} is not one of {uniq!r}")
    treatment = uniq[1] if baseline == uniq[0] else uniq[0]
    lines, ssr = {}, 0.0
    for lab in uniq:
        x = [float(r[1]) for r in rows if r[2] == lab]
        if len(x) < 2:
            raise ValueError(f"source {lab!r} has fewer than 2 rows")
        if len(set(x)) < 2:
            raise DomainError(
                "design matrix is rank deficient (identical block positions "
                "within a source, or a degenerate indicator)"
            )
        y = [float(r[0]) for r in rows if r[2] == lab]
        mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
        dx, dy = [v - mx for v in x], [v - my for v in y]
        slope = math.fsum(u * v for u, v in zip(dx, dy)) / math.fsum(u * u for u in dx)
        ssr += math.fsum((v - slope * u) ** 2 for u, v in zip(dx, dy))
        lines[lab] = (my - slope * mx, slope)
    (a0, s0), (a1, s1) = lines[baseline], lines[treatment]
    md = [float(r[0]) for r in rows]
    mean = math.fsum(md) / len(md)
    sst = math.fsum((v - mean) ** 2 for v in md)
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return RegressionFit(
        coefficients=dict(zip(COEFFICIENT_NAMES, (a0, s0, a1 - a0, s1 - s0))),
        r_squared=r_squared,
        baseline=baseline,
        treatment=treatment,
        n=len(rows),
    )


def regression_rows_from_blocks(
    blocks_per_source: Mapping[str, Sequence], which_cf: WhichCF = "complex"
) -> list[tuple[float, float, str]]:
    """Build (md, block position, label) rows; block positions are 1-based."""
    rows = []
    for label in sorted(blocks_per_source):
        for bi, block in enumerate(blocks_per_source[label]):
            md = sequence_report(block, which_cf=which_cf).md
            rows.append((md, float(bi + 1), label))
    return rows


def bootstrap_model_coefficients(
    blocks_per_source: Mapping[str, Sequence],
    rows: Sequence[tuple[float, float, str]],
    cfg: MbbConfig,
    *,
    level: float = 0.95,
    which_cf: WhichCF = "complex",
    baseline: Optional[str] = None,
) -> RegressionFit:
    """Interaction fit plus block-bootstrap percentile intervals.

    ``rows`` are the blocks' point rows from
    :func:`regression_rows_from_blocks`. Every replicate rebuilds all
    blocks of all sources with the block bootstrap, recomputes the
    per-block memory depths, and refits, so the intervals carry both the
    within-block estimation noise and its effect on the fitted slopes.
    Replicate r of block b of source s draws from the seed path (master,
    stream, s, b, r); sources are indexed in sorted label order. The
    replicates of one block are fitted together from summed subblock
    counts; a failing replicate raises the error of the first failure in
    replicate, then source, then block order.
    """
    point = fit_interaction_model(rows, baseline=baseline)
    md = np.empty((cfg.n_replicates, len(rows)))
    first = None
    column = 0
    for si, label in enumerate(sorted(blocks_per_source)):
        for bi, block in enumerate(blocks_per_source[label]):
            try:
                candidates = subblocks(block, cfg.subblock_len)
                draws = (
                    mbb_replicate(block, cfg, r, block_index=bi, source_index=si)
                    for r in range(cfg.n_replicates)
                )
                columns, failure = concatenation_reports(candidates, draws, which_cf)
            except DomainError as exc:
                # a block too short to resample or to fit fails from replicate 0 on
                failure = (0, exc)
            if failure is None:
                md[:, column] = columns["md"]
            elif first is None or failure[0] < first[0]:
                first = failure
            column += 1
    if first is not None:
        raise first[1]
    fits = [
        fit_interaction_model(
            [(value, block, label) for value, (_, block, label) in zip(replicate_md, rows)],
            baseline=point.baseline,
        ).coefficients
        for replicate_md in md.tolist()
    ]
    summaries = {}
    for name in COEFFICIENT_NAMES:
        samples = np.array([fit[name] for fit in fits])
        summaries[name] = BootstrapSummary(
            float(samples.mean()), percentile_interval(samples, level), samples
        )
    return replace(point, bootstrap=summaries)
