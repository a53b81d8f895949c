import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from prostasim.stats import (
    EmptySample,
    Sample,
    chi_squared_tail,
    kruskal_wallis,
    mann_whitney_u,
    median_iqr,
    midranks,
)


def brute_force_mw(a, b):
    """Oracle: enumerate every assignment of the pooled values to group A.

    U_a is counted by pairwise comparison (no ranks), and the two-sided p
    is the fraction of assignments whose min(U_a, U_b) is at most the
    observed one.  Tie-free values only.
    """
    a, b = list(a), list(b)
    pooled = a + b
    na, nb = len(a), len(b)

    def u_min(xs, ys):
        ua = sum(1 for x in xs for y in ys if x > y)
        return min(ua, na * nb - ua)

    observed = u_min(a, b)
    hits = total = 0
    for idx in combinations(range(len(pooled)), na):
        chosen = set(idx)
        ga = [pooled[i] for i in chosen]
        gb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if u_min(ga, gb) <= observed:
            hits += 1
    return observed, hits / total


def test_median_iqr_known_values():
    assert median_iqr(Sample([1.0, 2.0, 3.0, 4.0])) == (2.5, 1.75, 3.25)
    assert median_iqr(Sample([7.0])) == (7.0, 7.0, 7.0)
    m, q1, q3 = median_iqr(Sample([5.0, 1.0, 3.0]))
    assert (m, q1, q3) == (3.0, 2.0, 4.0)


# magnitudes 1e-3 to 1e3 of either sign
MAGNITUDES = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)), st.integers(-3, 2), st.floats(1.0, 10.0),
)


@st.composite
def samples(draw):
    """1 to 400 values, zero among them, a third drawn from a pool of at most 4 so ties run long.

    A sample's zeros share one sign: numpy orders equal values by its
    partition, so 0.0 beside -0.0 may take either place.
    """
    values = MAGNITUDES | st.just(draw(st.sampled_from((0.0, -0.0))))
    if draw(st.integers(0, 2)) == 0:
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    return draw(st.lists(values, min_size=1, max_size=400))


@settings(max_examples=300, deadline=None)
@given(values=samples())
def test_median_iqr_has_the_bits_of_numpy(values):
    v = np.array(values)
    want = (float(np.median(v)), *np.quantile(v, (0.25, 0.75)).tolist())
    got = median_iqr(Sample(v))
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


def test_median_iqr_rejects_bad_samples():
    with pytest.raises(EmptySample):
        median_iqr(Sample([]))
    with pytest.raises(ValueError):
        Sample([1.0, math.nan])
    with pytest.raises(ValueError):
        Sample([1.0, math.inf])


def test_midranks_average_ties():
    np.testing.assert_array_equal(midranks(np.array([1.0, 2.0, 2.0, 3.0])), [1.0, 2.5, 2.5, 4.0])
    np.testing.assert_array_equal(midranks(np.array([4.0, 4.0, 4.0])), [2.0, 2.0, 2.0])
    # order independence
    np.testing.assert_array_equal(midranks(np.array([3.0, 1.0, 2.0])), [3.0, 1.0, 2.0])


def midranks_oracle(pooled):
    """Midranks by walking the tie groups of the stable sort one position at a time."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled), dtype=np.float64)
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def test_midranks_match_the_tie_group_walk(rng):
    samples = [np.array([]), np.array([5.0]), np.array([0.0, -0.0, 0.0])]
    for _ in range(300):
        n = int(rng.integers(1, 400))
        # few distinct values give long tie runs, many give none
        values = rng.integers(0, int(rng.integers(1, 2 * n + 2)), n) * rng.choice([0.25, 1.0, 3.7])
        samples.append(values.astype(np.float64))
    for pooled in samples:
        got = midranks(pooled)
        assert got.tobytes() == midranks_oracle(pooled).tobytes(), pooled


def test_mw_fully_separated_groups():
    u, p = mann_whitney_u(Sample([1.0, 2.0, 3.0]), Sample([4.0, 5.0, 6.0]))
    assert u == 0.0
    # 2 of the 20 rank partitions are this extreme
    assert p == pytest.approx(0.1, abs=1e-12)


def test_mw_exact_matches_enumeration_oracle(rng):
    for _ in range(200):
        na = rng.integers(2, 7)
        nb = rng.integers(2, 7)
        vals = rng.permutation(np.arange(1.0, na + nb + 1.0) * 1.37 + 0.1)
        a, b = vals[:na], vals[na:]
        u, p = mann_whitney_u(Sample(a), Sample(b))
        u_ref, p_ref = brute_force_mw(a, b)
        assert u == u_ref
        assert p == pytest.approx(p_ref, abs=1e-12)


def test_mw_invariances(rng):
    a = rng.normal(size=6)
    b = rng.normal(size=8) + 0.5
    u, p = mann_whitney_u(Sample(a), Sample(b))
    u2, p2 = mann_whitney_u(Sample(b), Sample(a))
    assert (u, p) == (u2, p2)
    u3, p3 = mann_whitney_u(Sample(a * 2.0 + 10.0), Sample(b * 2.0 + 10.0))
    assert (u, p) == (u3, p3)


def test_mw_degenerate_and_size_checks():
    assert mann_whitney_u(Sample([2.0, 2.0]), Sample([2.0, 2.0, 2.0]))[1] == 1.0
    with pytest.raises(ValueError):
        mann_whitney_u(Sample([1.0]), Sample([2.0, 3.0]))


def test_mw_matches_scipy_exact(rng):
    for _ in range(20):
        a = rng.normal(size=rng.integers(3, 8))
        b = rng.normal(size=rng.integers(3, 8))
        _, p = mann_whitney_u(Sample(a), Sample(b))
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_mw_matches_scipy_asymptotic_with_ties(rng):
    for _ in range(20):
        a = rng.integers(0, 8, size=rng.integers(15, 30)).astype(float)
        b = rng.integers(2, 10, size=rng.integers(15, 30)).astype(float)
        _, p = mann_whitney_u(Sample(a), Sample(b))
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert p == pytest.approx(ref.pvalue, abs=1e-12)


def test_exact_and_approx_agree_near_the_limit(rng):
    # same data pushed through both branches by adding a value: the exact
    # p at n=16 and the tie-corrected approximation nearby should be close
    for _ in range(10):
        vals = rng.permutation(np.arange(16.0)) + rng.uniform(0, 0.5, 16)
        a, b = vals[:8], vals[8:]
        _, p_exact = mann_whitney_u(Sample(a), Sample(b))
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert abs(p_exact - ref.pvalue) < 0.05


def test_kw_matches_scipy(rng):
    for _ in range(20):
        groups = [
            rng.integers(0, 6, size=rng.integers(5, 15)).astype(float) for _ in range(3)
        ]
        h, p = kruskal_wallis([Sample(g) for g in groups])
        h_ref, p_ref = scipy_stats.kruskal(*groups)
        assert h == pytest.approx(h_ref, abs=1e-12)
        assert p == pytest.approx(p_ref, abs=1e-12)


def test_kw_two_groups_is_squared_normal_mw(rng):
    # without continuity correction, the two-group H statistic is z^2
    a = rng.normal(size=20)
    b = rng.normal(size=25) + 0.4
    h, p_kw = kruskal_wallis([Sample(a), Sample(b)])
    ref = scipy_stats.mannwhitneyu(
        a, b, alternative="two-sided", method="asymptotic", use_continuity=False
    )
    z = scipy_stats.norm.isf(ref.pvalue / 2.0)
    assert h == pytest.approx(z * z, abs=1e-9)
    assert p_kw == pytest.approx(ref.pvalue, abs=1e-12)


def test_kw_degenerate_and_size_checks():
    assert kruskal_wallis([Sample([3.0, 3.0]), Sample([3.0, 3.0])]) == (0.0, 1.0)
    with pytest.raises(ValueError):
        kruskal_wallis([Sample([1.0, 2.0])])
    with pytest.raises(ValueError):
        kruskal_wallis([Sample([1.0, 2.0]), Sample([3.0])])


def test_chi_squared_tail_matches_regularized_gamma(rng):
    from scipy.special import gammaincc

    xs = np.concatenate([np.linspace(0.0, 80.0, 161), rng.uniform(0.0, 80.0, 200), rng.exponential(3.0, 200)])
    for dof in range(1, 7):
        for x in xs:
            ref = float(gammaincc(dof / 2.0, x / 2.0))
            assert chi_squared_tail(float(x), dof) == pytest.approx(ref, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        chi_squared_tail(1.0, 1.5)


def test_chi_squared_tail_against_numeric_integral():
    for dof in (1, 2, 3, 5):
        for x in (0.5, 2.0, 7.5):
            grid = np.linspace(1e-9, 400.0, 2_000_001)
            pdf = grid ** (dof / 2.0 - 1.0) * np.exp(-grid / 2.0)
            pdf /= 2 ** (dof / 2.0) * math.gamma(dof / 2.0)
            tail = float(np.trapezoid(pdf[grid >= x], grid[grid >= x]))
            assert chi_squared_tail(x, dof) == pytest.approx(tail, abs=5e-5)
    assert chi_squared_tail(0.0, 3) == 1.0
    with pytest.raises(ValueError):
        chi_squared_tail(-1.0, 2)
    with pytest.raises(ValueError):
        chi_squared_tail(1.0, 0)
