"""Rank correlations, portmanteau test, and the interaction regression.

The Ljung-Box p-value is cross-checked against an mpmath evaluation of the
chi-square survival function, and the exact Spearman p against a brute
force enumeration, so neither test shares code with the implementation.
"""

import itertools
import math
import time
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.stats

from vcmarkov import (
    MbbConfig,
    autocorrelation,
    bootstrap_model_coefficients,
    fit_interaction_model,
    ljung_box_test,
    partial_spearman,
    simulate_sequence,
    spearman_test,
)
from vcmarkov.errors import DomainError
from vcmarkov.stats import (
    COEFFICIENT_NAMES,
    _rank_product_null,
    midranks,
    regression_rows_from_blocks,
    white_noise_band,
)


# ------------------------------------------------------------ ACF


def test_autocorrelation_by_hand():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = autocorrelation(x, 2)
    # biased estimator: sum (x_t - m)(x_{t+k} - m) / sum (x_t - m)^2
    m = 2.5
    denom = sum((v - m) ** 2 for v in x)
    rho1 = sum((x[t] - m) * (x[t + 1] - m) for t in range(3)) / denom
    rho2 = sum((x[t] - m) * (x[t + 2] - m) for t in range(2)) / denom
    assert list(res.lags) == [1, 2]
    assert res.rho[0] == pytest.approx(rho1)
    assert res.rho[1] == pytest.approx(rho2)
    assert res.n == 4


def test_autocorrelation_alternating_series():
    x = np.array([0.0, 1.0] * 50)
    res = autocorrelation(x, 3)
    assert res.rho[0] == pytest.approx(-0.99, abs=0.01)
    assert res.rho[1] == pytest.approx(0.98, abs=0.01)


def test_autocorrelation_needs_variation():
    with pytest.raises(DomainError):
        autocorrelation(np.ones(50), 5)


def test_autocorrelation_needs_length():
    with pytest.raises(ValueError):
        autocorrelation(np.arange(5.0), 5)


# ------------------------------------------------------------ Ljung-Box


def _lb_oracle(x, h):
    """Independent Ljung-Box: literal formula + mpmath chi-square tail."""
    n = len(x)
    m = np.mean(x)
    denom = np.sum((x - m) ** 2)
    q = 0.0
    for k in range(1, h + 1):
        rk = np.sum((x[:-k] - m) * (x[k:] - m)) / denom
        q += rk * rk / (n - k)
    q *= n * (n + 2)
    p = float(mpmath.gammainc(h / 2, q / 2, mpmath.inf, regularized=True))
    return q, p


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ljung_box_against_mpmath(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=300)
    res = ljung_box_test(autocorrelation(x, 10), 10)
    q, p = _lb_oracle(x, 10)
    assert res.statistic == pytest.approx(q, rel=1e-10)
    assert res.p_value == pytest.approx(p, rel=1e-9)
    assert res.h == 10
    assert res.n == 300


def test_ljung_box_detects_dependence(fixture_chain):
    seq = simulate_sequence(fixture_chain, 4000, seed=3)
    res = ljung_box_test(autocorrelation(seq.symbols.astype(float), 10), 10)
    assert res.p_value < 1e-4


def test_ljung_box_h_bounded():
    x = np.random.default_rng(0).normal(size=100)
    acf = autocorrelation(x, 5)
    with pytest.raises(ValueError):
        ljung_box_test(acf, 6)


def test_white_noise_band():
    assert white_noise_band(400) == pytest.approx(1.96 / 20)
    assert white_noise_band(10_000, z=2.0) == pytest.approx(0.02)


# ------------------------------------------------------------ Spearman


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 4.0, 1.5, 9.0, 2.6],
    [2.0, 7.0, 2.0, 1.0, 7.0, 7.0, 0.5, 2.0],
    [5.0, 5.0, 5.0, 5.0],
    np.random.default_rng(9).integers(0, 6, 200).astype(float).tolist(),
], ids=["untied", "tied", "constant", "many-ties"])
def test_midranks_match_scipy_rankdata(values):
    ranks = midranks(np.array(values))
    expected = scipy.stats.rankdata(values)
    assert ranks.dtype == expected.dtype
    assert ranks.tobytes() == expected.tobytes()


def test_rank_tests_reject_nan():
    x = [1.0, 2.0, float("nan"), 4.0, 5.0]
    y = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(DomainError, match="NaN"):
        spearman_test(x, y)
    with pytest.raises(DomainError, match="NaN"):
        partial_spearman(y, y[::-1], [x])


def test_spearman_perfect_monotone():
    res = spearman_test([1, 2, 3, 4, 5, 6, 7, 8], [10, 20, 30, 40, 50, 60, 70, 80])
    assert res.rho == pytest.approx(1.0)
    assert res.method == "exact"
    # only the two extreme orderings of 8! reach |rho| = 1
    assert res.p_value == pytest.approx(2 / math.factorial(8))


def test_spearman_sign():
    res = spearman_test([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
    assert res.rho == pytest.approx(-1.0)


def _spearman_exact_oracle(x, y):
    """Brute force: mid-ranks, Pearson on ranks, full permutation null."""
    rx = scipy.stats.rankdata(x)
    ry = scipy.stats.rankdata(y)

    def pearson(a, b):
        a = a - a.mean()
        b = b - b.mean()
        return float(a @ b / np.sqrt((a @ a) * (b @ b)))

    obs = pearson(rx, ry)
    count = 0
    total = 0
    for perm in itertools.permutations(ry):
        total += 1
        if abs(pearson(rx, np.array(perm))) >= abs(obs) - 1e-12:
            count += 1
    return obs, count / total


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spearman_exact_against_enumeration(seed):
    rng = np.random.default_rng(seed)
    for n in range(3, 9):
        x = rng.integers(0, n, n).astype(float)
        y = rng.integers(0, n, n).astype(float)
        x[1] = x[0]  # ties on both sides
        y[-1] = y[0]
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        res = spearman_test(x, y)
        rho, p = _spearman_exact_oracle(x, y)
        assert res.method == "exact"
        assert res.rho == pytest.approx(rho, abs=1e-12)
        assert res.p_value == p


def _rank_product_null_oracle(a, b):
    """The dictionary DP over (mask of the ``b`` entries used, partial sum)
    that the array DP replaced: {S: number of orderings of ``b``}."""
    layer = Counter({(0, 0): 1})
    for ai in a:
        nxt = Counter()
        for (mask, s), c in layer.items():
            for j, bj in enumerate(b):
                if not mask >> j & 1:
                    nxt[mask | 1 << j, s + ai * bj] += c
        layer = nxt
    null = Counter()
    for (_, s), c in layer.items():
        null[s] += c
    return null


@pytest.mark.parametrize("n, seed", [(9, 1), (9, 2), (10, 3), (10, 4)])
def test_spearman_exact_null_equals_the_mask_dp(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n // 2, n).astype(float)
    y = rng.integers(0, n // 2, n).astype(float)
    x[1] = x[0]  # ties on both sides
    y[-1] = y[0]
    res = spearman_test(x, y)
    a, b = ((2 * midranks(v) - (n + 1)).astype(np.int64).tolist() for v in (x, y))
    null = _rank_product_null_oracle(a, b)
    sums, freq = _rank_product_null(tuple(sorted(a)), tuple(sorted(b)))
    assert dict(zip(sums.tolist(), freq.tolist())) == null
    s_obs = abs(sum(ai * bi for ai, bi in zip(a, b)))
    assert res.method == "exact"
    assert res.p_value == sum(c for s, c in null.items() if abs(s) >= s_obs) / math.factorial(n)


def test_spearman_exact_trend_rows_with_many_tie_patterns_are_fast():
    """A 10-block trend table: 300 rows cycling through 100 tie patterns,
    more than a 64-entry cache holds, in under 5 s. With a 64-entry cache
    and the dictionary DP they took about 24 s on a 2-core host."""
    _rank_product_null.cache_clear()
    positions = np.arange(1.0, 11.0)
    rng = np.random.default_rng(7)
    # the bits of ``cuts`` split the 10 blocks into tie groups
    rows = [
        rng.permutation(np.cumsum([0] + [cuts >> i & 1 for i in range(9)]))
        for cuts in range(1, 101)
    ]
    start = time.perf_counter()
    for row in rows * 3:
        assert spearman_test(positions, row).method == "exact"
        assert time.perf_counter() - start < 5.0


def test_spearman_exact_at_ten_is_fast():
    _rank_product_null.cache_clear()
    positions = np.arange(1.0, 11.0)
    start = time.perf_counter()
    untied = spearman_test(positions, [3, 1, 4, 10, 5, 9, 2, 6, 8, 7])
    tied = spearman_test(positions, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    assert time.perf_counter() - start < 2.0
    assert untied.method == tied.method == "exact"
    assert 0.0 < untied.p_value <= 1.0 and 0.0 < tied.p_value <= 1.0


def test_spearman_t_approx_against_scipy():
    rng = np.random.default_rng(44)
    x = rng.normal(size=30)
    y = x + rng.normal(size=30)
    res = spearman_test(x, y)
    ref = scipy.stats.spearmanr(x, y)
    assert res.method == "t-approx"
    assert res.rho == pytest.approx(ref.statistic, abs=1e-12)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)


def test_spearman_needs_three_points():
    with pytest.raises(ValueError):
        spearman_test([1, 2], [3, 4])


def test_spearman_constant_input():
    with pytest.raises(DomainError):
        spearman_test([1, 1, 1, 1], [1, 2, 3, 4])


# ------------------------------------------------------------ partial Spearman


def test_partial_spearman_empty_controls_delegates():
    x = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0]
    y = [2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
    a = spearman_test(x, y)
    b = partial_spearman(x, y, [])
    assert b.rho == a.rho
    assert b.p_value == a.p_value
    assert b.controlled_for == ()


def test_partial_spearman_removes_control_effect():
    """y depends on x only through the control; the partial rho collapses."""
    rng = np.random.default_rng(9)
    z = np.arange(60, dtype=float)
    x = z + rng.normal(scale=4.0, size=60)
    y = z + rng.normal(scale=4.0, size=60)
    raw = spearman_test(x, y)
    part = partial_spearman(x, y, [z], names=["trend"])
    assert raw.rho > 0.9
    assert raw.p_value < 1e-6
    assert abs(part.rho) < 0.2
    assert part.p_value > 0.2
    assert part.controlled_for == ("trend",)
    assert part.method == "t-approx"


def test_partial_spearman_matches_manual_residualization():
    rng = np.random.default_rng(5)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    z = rng.normal(size=25)
    part = partial_spearman(x, y, [z])

    rx = scipy.stats.rankdata(x)
    ry = scipy.stats.rankdata(y)
    rz = scipy.stats.rankdata(z)
    Z = np.stack([np.ones(25), rz], axis=1)
    ex = rx - Z @ np.linalg.lstsq(Z, rx, rcond=None)[0]
    ey = ry - Z @ np.linalg.lstsq(Z, ry, rcond=None)[0]
    rho = float(ex @ ey / np.sqrt((ex @ ex) * (ey @ ey)))
    assert part.rho == pytest.approx(rho, abs=1e-10)


def test_partial_spearman_collinear_controls():
    x = np.arange(10.0)
    y = np.arange(10.0)[::-1].copy()
    z = np.arange(10.0)
    with pytest.raises(DomainError):
        partial_spearman(x, y, [z, 2 * z])


# ------------------------------------------------------------ regression


def _planted_rows(intercept, slope_a, offset_b, slope_b_extra, n_blocks=6):
    rows = []
    for b in range(1, n_blocks + 1):
        rows.append((intercept + slope_a * b, b, "aa"))
        rows.append((intercept + offset_b + (slope_a + slope_b_extra) * b, b, "bb"))
    return rows


def test_fit_interaction_model_recovers_planted():
    rows = _planted_rows(0.7, -0.02, 0.1, -0.03)
    fit = fit_interaction_model(rows)
    assert fit.baseline == "aa"
    assert fit.treatment == "bb"
    assert fit.coefficients["intercept"] == pytest.approx(0.7, abs=1e-12)
    assert fit.coefficients["block"] == pytest.approx(-0.02, abs=1e-12)
    assert fit.coefficients["source"] == pytest.approx(0.1, abs=1e-12)
    assert fit.coefficients["interaction"] == pytest.approx(-0.03, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.n == 12


def test_fit_interaction_model_baseline_override():
    rows = _planted_rows(0.7, -0.02, 0.1, -0.03)
    fit = fit_interaction_model(rows, baseline="bb")
    assert fit.baseline == "bb"
    assert fit.treatment == "aa"
    assert fit.coefficients["source"] == pytest.approx(-0.1, abs=1e-12)
    assert fit.coefficients["interaction"] == pytest.approx(0.03, abs=1e-12)


def test_fit_interaction_model_validation():
    with pytest.raises(ValueError):
        fit_interaction_model([(0.5, 1, "only")])
    rows = _planted_rows(0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fit_interaction_model(rows + [(0.5, 1, "cc")])
    with pytest.raises(ValueError):
        fit_interaction_model(rows, baseline="zz")


def test_coefficient_names_order():
    assert COEFFICIENT_NAMES == ("intercept", "block", "source", "interaction")


def test_regression_rows_from_blocks(fixture_chain):
    seq = simulate_sequence(fixture_chain, 3000, seed=1)
    blocks = {
        "ru": [seq.symbols[:1000], seq.symbols[1000:2000]],
        "it": [seq.symbols[2000:3000]],
    }
    rows = regression_rows_from_blocks(blocks, "complex")
    labels = [r[2] for r in rows]
    positions = [r[1] for r in rows]
    assert labels == ["it", "ru", "ru"]
    assert positions == [1, 1, 2]
    assert all(0 < r[0] < 1 for r in rows)


def test_bootstrap_model_coefficients_deterministic(fixture_chain):
    seq = simulate_sequence(fixture_chain, 8000, seed=5)
    blocks = {
        "aa": [seq.symbols[:2000], seq.symbols[2000:4000]],
        "bb": [seq.symbols[4000:6000], seq.symbols[6000:8000]],
    }
    cfg = MbbConfig(block_len=2000, subblock_len=100, n_replicates=40, master_seed=3)
    rows = regression_rows_from_blocks(blocks)
    fit1 = bootstrap_model_coefficients(blocks, rows, cfg, level=0.9)
    fit2 = bootstrap_model_coefficients(blocks, rows, cfg, level=0.9)
    for name in COEFFICIENT_NAMES:
        assert np.array_equal(fit1.bootstrap[name].samples, fit2.bootstrap[name].samples)
        iv = fit1.bootstrap[name].interval
        assert iv.level == 0.9
        assert iv.lo <= fit1.bootstrap[name].mean <= iv.hi
    assert fit1.coefficients == fit2.coefficients
    assert len(fit1.bootstrap["block"].samples) == 40
