"""Nonparametric statistics for the study tables.

Median with midpoint convention, linear-interpolation (type-7) quartiles,
Mann-Whitney U with exact enumeration for small tie-free samples, and
Kruskal-Wallis H with tie correction.  Identical groups are degenerate
rather than exceptional: the tests report p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

EXACT_ENUMERATION_LIMIT = 16


class EmptySample(ValueError):
    pass


@dataclass
class Sample:
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError(f"sample {self.label!r} contains non-finite values")


def median_iqr(s: Sample) -> tuple[float, float, float]:
    """(median, q1, q3): midpoint median, linear-interpolation quartiles.

    From one sort, with the bits of ``np.median`` and ``np.quantile``: the
    median sums onto 0.0 as numpy's mean does, and a quartile g past sorted
    value a, b next, is ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)``
    from g = 0.5 on.  (A sample holding both 0.0 and -0.0 may give a zero
    quartile numpy's other sign: numpy orders equal values by partition.)
    """
    n = s.values.size
    if n == 0:
        raise EmptySample(f"sample {s.label!r} is empty")
    v = np.sort(s.values)
    mid = n // 2
    median = 0.0 + float(v[mid]) if n % 2 else (0.0 + float(v[mid - 1]) + float(v[mid])) / 2
    if n == 1:
        return median, float(v[0]), float(v[0])
    quartiles = []
    for at in ((n - 1) * 0.25, (n - 1) * 0.75):
        lo = math.floor(at)
        g = at - lo
        a, b = float(v[lo]), float(v[lo + 1])
        quartiles.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return median, quartiles[0], quartiles[1]


def midranks(pooled: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties sharing their average rank.

    The tie groups are the runs of equal values in stable sorted order;
    the group of sorted positions i..j shares the rank (i + j) / 2 + 1,
    which is exact in floating point.
    """
    order = np.argsort(pooled, kind="stable")
    ranked = pooled[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    ends = np.append(starts[1:], len(ranked)) - 1
    ranks = np.empty(len(ranked), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def _tie_term(pooled: np.ndarray) -> float:
    """sum over tie groups of (t^3 - t)."""
    _, counts = np.unique(pooled, return_counts=True)
    return float(np.sum(counts.astype(np.float64) ** 3 - counts))


def mann_whitney_u(a: Sample, b: Sample) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test.

    Returns (U, p) with U the smaller of the two group statistics.  Exact
    p by enumeration over partitions when n_a + n_b <= 16 and the pooled
    values are tie-free; otherwise normal approximation with tie and
    continuity corrections.  Two identical samples give p = 1.
    """
    na, nb = a.values.size, b.values.size
    if na < 2 or nb < 2:
        raise ValueError("both groups need at least 2 values")
    pooled = np.concatenate([a.values, b.values])
    n = na + nb
    ranks = midranks(pooled)
    ra = float(np.sum(ranks[:na]))
    ua = ra - na * (na + 1) / 2.0
    ub = na * nb - ua
    u = min(ua, ub)

    if np.max(pooled) == np.min(pooled):
        return u, 1.0

    # tie-free: every tie group of one value.  The plain np.unique would
    # import numpy.ma; its return_counts form does not
    ties = _tie_term(pooled)
    if ties == 0.0 and n <= EXACT_ENUMERATION_LIMIT:
        return u, _exact_p(u, na, n)

    mu = na * nb / 2.0
    sigma_sq = (na * nb / 12.0) * ((n + 1) - ties / (n * (n - 1)))
    if sigma_sq <= 0:
        return u, 1.0
    z = max(0.0, abs(ua - mu) - 0.5) / math.sqrt(sigma_sq)
    return u, min(1.0, math.erfc(z / math.sqrt(2.0)))


def _exact_p(u_obs: float, na: int, n: int) -> float:
    """P(min(U_a, U_b) <= u_obs) over all equally likely rank partitions."""
    nb = n - na
    base = na * (na + 1) // 2
    total = math.comb(n, na)
    count = 0
    for subset in combinations(range(1, n + 1), na):
        ua = sum(subset) - base
        if min(ua, na * nb - ua) <= u_obs + 1e-12:
            count += 1
    return count / total


def kruskal_wallis(groups: list[Sample]) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction; p from the chi-squared tail.

    Identical values across all groups give (0, 1).
    """
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    for g in groups:
        if g.values.size < 2:
            raise ValueError(f"group {g.label!r} needs at least 2 values")
    pooled = np.concatenate([g.values for g in groups])
    n = pooled.size
    if np.max(pooled) == np.min(pooled):
        return 0.0, 1.0
    ranks = midranks(pooled)
    h = 0.0
    start = 0
    for g in groups:
        size = g.values.size
        rsum = float(np.sum(ranks[start : start + size]))
        h += rsum * rsum / size
        start += size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - _tie_term(pooled) / (n**3 - n)
    if correction <= 0:
        return 0.0, 1.0
    h /= correction
    return h, chi_squared_tail(h, len(groups) - 1)


def chi_squared_tail(x: float, dof: int) -> float:
    """Upper-tail chi-squared probability for an integer ``dof``.

    The closed forms of Abramowitz & Stegun (1964) 26.4.4 and 26.4.5:
    ``exp(-x/2)`` times a finite series for even dof, and
    ``erfc(sqrt(x/2))`` plus a finite series for odd dof.  Each series
    term is carried as a running product, so no term overflows.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if dof < 1 or dof != int(dof):
        raise ValueError("dof must be a positive integer")
    half = x / 2.0
    if dof % 2 == 0:
        term = math.exp(-half)
        total = term
        for k in range(1, int(dof) // 2):
            term *= half / k
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    if dof > 1:
        term = math.sqrt(2.0 * x / math.pi) * math.exp(-half)
        total += term
        for r in range(1, (int(dof) - 1) // 2):
            term *= x / (2 * r + 1)
            total += term
    return total
