"""Diagnostics and inference: ACF, Ljung-Box, Spearman, interaction OLS.

Rank statistics use mid-ranks for ties throughout, computed in numpy.
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
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .markov import WhichCF, concatenation_reports, sequence_report
from .resample import Interval, MbbConfig, mbb_replicate, percentile_interval, subblocks

_EXACT_SPEARMAN_MAX_N = 10
_TINY_P = 5e-324


@dataclass(frozen=True)
class AcfResult:
    lags: np.ndarray
    rho: np.ndarray
    n: int


def autocorrelation(x, max_lag: int) -> AcfResult:
    """Sample autocorrelations at lags 1..max_lag.

    Uses the standard biased normalization: the lag-k sum of products of
    deviations over the lag-0 sum of squares. A constant input has no
    autocorrelation and raises :class:`DomainError`.
    """
    arr = np.asarray(x, dtype=float).reshape(-1)
    n = arr.size
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if n < max_lag + 1:
        raise ValueError(f"need at least max_lag + 1 = {max_lag + 1} points, got {n}")
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DomainError("autocorrelation undefined for a constant sequence")
    rho = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        rho[k - 1] = float(np.dot(centered[:-k], centered[k:])) / denom
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


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    cx = x - x.mean()
    cy = y - y.mean()
    sx = float(np.dot(cx, cx))
    sy = float(np.dot(cy, cy))
    if sx == 0.0 or sy == 0.0:
        raise DomainError("correlation undefined: an input has zero variance")
    r = float(np.dot(cx, cy) / np.sqrt(sx * sy))
    return min(1.0, max(-1.0, r))


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
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.size != ya.size:
        raise ValueError("x and y must have equal length")
    n = xa.size
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    rx = midranks(xa)
    ry = midranks(ya)
    rho = _pearson(rx, ry)
    if n <= _EXACT_SPEARMAN_MAX_N:
        # doubled centred mid-ranks are integers, and |rho| orders as their |S|
        a, b = ((2 * r - (n + 1)).astype(np.int64).tolist() for r in (rx, ry))
        s_obs = abs(sum(ai * bi for ai, bi in zip(a, b)))
        sums, freq = _rank_product_null(tuple(sorted(a)), tuple(sorted(b)))
        p = int(freq[np.abs(sums) >= s_obs].sum()) / math.factorial(n)
        method = "exact"
    else:
        p = _t_approx_p(rho, n - 2)
        method = "t-approx"
    return SpearmanResult(rho=rho, p_value=p, n=n, method=method)


def _residualize(v: np.ndarray, Z: np.ndarray) -> np.ndarray:
    coef, _, _, _ = np.linalg.lstsq(Z, v, rcond=None)
    return v - Z @ coef


def partial_spearman(
    x, y, controls: Sequence, *, names: Optional[Sequence[str]] = None
) -> SpearmanResult:
    """Spearman correlation of x and y after removing rank-linear effects
    of the control variables.

    All variables are rank-transformed; x and y ranks are residualized on
    the control ranks (with intercept) and the residuals are correlated.
    The p-value is a t approximation with n - 2 - k degrees of freedom.
    With no controls this is exactly :func:`spearman_test`.
    """
    controls = list(controls)
    if not controls:
        return replace(spearman_test(x, y), controlled_for=())
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    n = xa.size
    k = len(controls)
    if ya.size != n:
        raise ValueError("x and y must have equal length")
    ctrl = [np.asarray(c, dtype=float).reshape(-1) for c in controls]
    if any(c.size != n for c in ctrl):
        raise ValueError("controls must match the length of x and y")
    if n < 3 + k:
        raise ValueError(f"need at least 3 + {k} observations, got {n}")
    if names is not None and len(names) != k:
        raise ValueError("names must match the number of controls")
    rx = midranks(xa)
    ry = midranks(ya)
    Z = np.column_stack([np.ones(n)] + [midranks(c) for c in ctrl])
    if np.linalg.matrix_rank(Z) < Z.shape[1]:
        raise DomainError("control ranks are collinear; partial correlation undefined")
    res_x = _residualize(rx, Z)
    res_y = _residualize(ry, Z)
    rho = _pearson(res_x, res_y)
    p = _t_approx_p(rho, n - 2 - k)
    labels = tuple(names) if names is not None else tuple(f"c{i}" for i in range(k))
    return SpearmanResult(rho=rho, p_value=p, n=n, method="t-approx", controlled_for=labels)


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
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to fit")
    y = np.array([r[0] for r in rows], dtype=float)
    block = np.array([r[1] for r in rows], dtype=float)
    labels = [r[2] for r in rows]
    uniq = sorted(set(labels))
    if len(uniq) != 2:
        raise ValueError(f"need exactly two source labels, got {uniq!r}")
    if baseline is None:
        baseline = uniq[0]
    if baseline not in uniq:
        raise ValueError(f"baseline {baseline!r} is not one of {uniq!r}")
    treatment = uniq[1] if baseline == uniq[0] else uniq[0]
    for lab in uniq:
        if sum(1 for l in labels if l == lab) < 2:
            raise ValueError(f"source {lab!r} has fewer than 2 rows")
    ind = np.array([0.0 if l == baseline else 1.0 for l in labels])
    X = np.column_stack([np.ones(len(rows)), block, ind, block * ind])
    s = np.linalg.svd(X, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise DomainError(
            "design matrix is rank deficient (identical block positions "
            "within a source, or a degenerate indicator)"
        )
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    fitted = X @ beta
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum((y - fitted) ** 2))
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return RegressionFit(
        coefficients=dict(zip(COEFFICIENT_NAMES, beta.tolist())),
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
    sample_store = {name: np.empty(cfg.n_replicates) for name in COEFFICIENT_NAMES}
    for r, replicate_md in enumerate(md.tolist()):
        fit_r = fit_interaction_model(
            [(value, block, label) for value, (_, block, label) in zip(replicate_md, rows)],
            baseline=point.baseline,
        )
        for name in COEFFICIENT_NAMES:
            sample_store[name][r] = fit_r.coefficients[name]
    summaries = {
        name: BootstrapSummary(
            mean=float(samples.mean()),
            interval=percentile_interval(samples, level),
            samples=samples,
        )
        for name, samples in sample_store.items()
    }
    return replace(point, bootstrap=summaries)
