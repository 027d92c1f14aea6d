"""Reference-model significance machinery.

Given an observed multigraph, the null model is the random multigraph
with the same degree sequence obtained by uniform stub pairing. Under
that model the number of edges from a degree-k vertex into a vertex set
B is approximately Binomial(k, p(B)), where p(B) is the fraction of all
edge stubs attached to B. This module computes those tail probabilities
and applies the Benjamini-Hochberg selection step that the detection
loop iterates.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np
from scipy.special import betainc, gammaln

from .errors import DegenerateGraphError
from .graph import MultiGraph, VertexSet, as_id_array


def block_probability(g: MultiGraph, b: Iterable[int]) -> float:
    """Fraction of all edge stubs attached to the set: vol(B) / 2|E|."""
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges; reference model is undefined")
    return g.volume(b) / (2.0 * g.edge_count)


def binomial_survival(k: int, p: float, x: int) -> float:
    """Upper tail P(X >= x) for X ~ Binomial(k, p).

    Parameters
    ----------
    k : int
        Number of trials, >= 0.
    p : float
        Success probability in [0, 1].
    x : int
        Threshold count, >= 0.

    Returns
    -------
    float
        P(X >= x), with absolute error below 1e-12 for k up to 1e6.

    Notes
    -----
    Evaluated by the batch routine that detection uses, through the
    identity P(X >= x) = I_p(x, k - x + 1) with the regularized incomplete
    beta function I; naive pmf products underflow once k reaches the
    thousands.
    """
    _check_binomial(k, p)
    if operator.index(x) < 0:
        raise ValueError("threshold count must be >= 0")
    return float(_binomial_survival_batch(np.array([k]), p, np.array([x]))[0])


def _check_binomial(k: int, p: float) -> None:
    """Reject a Binomial(k, p) law other than an integer k >= 0 and p in
    [0, 1]; a float k raises TypeError rather than being truncated."""
    if operator.index(k) < 0:
        raise ValueError("trial count must be >= 0")
    # a NaN fails both comparisons
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")


def _binomial_survival_batch(k: np.ndarray, p: float, x: np.ndarray) -> np.ndarray:
    """Vectorized upper tails P(X >= x_i) for X ~ Binomial(k_i, p).

    Uses the incomplete beta identity for every entry with 1 <= x <= k,
    with absolute error below 1e-12 (checked in the test suite against
    exact rational summation).
    """
    k = np.asarray(k, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    out = np.where(x > k, 0.0, 1.0)
    # I_0 = 0 and I_1 = 1 exactly, so p = 0 and p = 1 need no branch
    active = (x >= 1) & (x <= k)
    out[active] = betainc(x[active], k[active] - x[active] + 1, p)
    return out


def _boundary_law(g: MultiGraph, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The vertices with an edge into the set of distinct ids, ascending,
    their counts into it, and p(B). Every other vertex has p-value 1."""
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges; reference model is undefined")
    dense = g._boundary_dense(ids)
    # a bool mask scans several times faster than the float array
    vertices = np.flatnonzero(dense > 0)
    counts = dense[vertices].astype(np.int64)
    # the members' rows sum to their degrees, so the counts sum to vol(B)
    return vertices, counts, int(counts.sum()) / (2.0 * g.edge_count)


def _pvalues(g: MultiGraph, ids: np.ndarray) -> np.ndarray:
    """Connection p-values of all n vertices against the set of distinct
    ids; a vertex with no edge into it has p = 1."""
    vertices, counts, p = _boundary_law(g, ids)
    table = np.ones(g.n)
    table[vertices] = _binomial_survival_batch(g.degrees[vertices], p, counts)
    return table


def pvalue_table(g: MultiGraph, b: Iterable[int]) -> np.ndarray:
    """Connection p-values of all n vertices against the set `b`.

    Entry u is the probability, under the degree-preserving null model, of
    seeing at least the observed number of edges between u and `b`; a
    vertex with no edge into `b` has p = 1.
    """
    return _pvalues(g, as_id_array(b, g.n))


def _check_alpha(alpha: float) -> None:
    # a NaN fails both comparisons
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _bh_keep(pvalues: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg at level alpha over m of n p-values: the mask of
    the entries that pass.

    The cut is the largest k with p_(k) <= (k / n) * alpha over the
    ascending p-values, and every entry with p <= p_(k) passes. The
    threshold rounds monotonically in k, so equal p-values pass together,
    and an entry above alpha * m / n fails at every rank: only the entries
    at or below it are sorted. A NaN passes at no rank.
    """
    if not pvalues.size:
        return np.zeros(0, dtype=bool)
    sorted_p = np.sort(pvalues[pvalues <= alpha * pvalues.size / n])
    hits = np.flatnonzero(sorted_p <= alpha * np.arange(1, sorted_p.size + 1) / n)
    if not hits.size:
        return np.zeros(pvalues.size, dtype=bool)
    return pvalues <= sorted_p[hits[-1]]


def select_by_fdr(pvalues: Sequence[float] | np.ndarray, alpha: float) -> frozenset[int]:
    """Benjamini-Hochberg selection over raw p-values.

    Orders entries by (p-value, index), finds the largest k with
    p_(k) <= (k / n) * alpha, and returns the indices of the first k
    entries. k = 0 yields the empty set. The denominator is the full
    length n of the input.
    """
    _check_alpha(alpha)
    p = np.asarray(pvalues, dtype=np.float64)
    return frozenset(np.flatnonzero(_bh_keep(p, p.size, alpha)).tolist())


# Slack, in natural-log units, between the screen's log point mass and
# log(cut). For k <= _SCREEN_MAX_DEGREE = 1e6 every term of the log pmf
# (the three table entries and the two p terms of a vertex near the cut)
# is below ln(1e6!) ~ 1.3e7 in magnitude, where one ulp is 1.9e-9. Each
# table entry is within a few ulps, and the sum adds about ten roundings,
# so the log pmf is off by less than 1e-7. The margin is ten times that
# and also absorbs a relative error below 9e-7 in the computed tail.
_SCREEN_MARGIN = 1e-6
# The margin is shown only up to this degree; a vertex above it is kept
_SCREEN_MAX_DEGREE = 10**6

# ln(i!) for i = 0..size - 1; it depends on no graph, so one table grows
# as larger degrees are screened and is kept
_log_factorial_table = np.zeros(1)


def _log_factorials(k_max: int) -> np.ndarray:
    """ln(i!) for at least i = 0..k_max, where k_max <= _SCREEN_MAX_DEGREE."""
    global _log_factorial_table
    if _log_factorial_table.size <= k_max:
        size = min(max(k_max + 1, 2 * _log_factorial_table.size), _SCREEN_MAX_DEGREE + 1)
        _log_factorial_table = gammaln(np.arange(1.0, size + 1))
    return _log_factorial_table


def _may_pass(k: np.ndarray, x: np.ndarray, p: float, cut: float) -> np.ndarray:
    """False where P(X >= x) for X ~ Binomial(k_i, p) certainly exceeds `cut`.

    The tail holds the point mass P(X = x), so a vertex whose mass alone
    is above the cut fails it; the mass costs a few table lookups where the
    tail costs an incomplete beta evaluation. At p = 1 (no 1 - p term),
    p = 0 and on NaN nothing is screened out, nor is a vertex of degree
    above _SCREEN_MAX_DEGREE, and a NaN mass is kept.
    """
    if not 0.0 < p < 1.0 or not k.size:
        return np.ones(k.size, dtype=bool)
    k_max = int(k.max())
    if k_max > _SCREEN_MAX_DEGREE:
        may = np.ones(k.size, dtype=bool)
        low = k <= _SCREEN_MAX_DEGREE
        may[low] = _may_pass(k[low], x[low], p, cut)
        return may
    log_factorials = _log_factorials(k_max)
    log_pmf = (
        log_factorials[k] - log_factorials[x] - log_factorials[k - x]
        + x * np.log(p) + (k - x) * np.log1p(-p)
    )
    return ~(log_pmf > np.log(cut) + _SCREEN_MARGIN)


def _select(g: MultiGraph, ids: np.ndarray, alpha: float) -> np.ndarray:
    """One update step on a set given as distinct ids in ``[0, n)``: the
    vertices significantly connected to it at level alpha, ascending.

    A vertex with no edge into the set has p = 1 and never passes at
    alpha < 1, so only the K vertices with an edge into it are scored; the
    BH denominator is still n. A vertex above alpha * K / n fails at every
    rank (see `_bh_keep`), so one whose point mass already exceeds that
    bound is dropped before its tail is computed.
    """
    _check_alpha(alpha)
    vertices, counts, p = _boundary_law(g, ids)
    degrees = g.degrees[vertices]
    # the dropped vertices are a suffix of the (p-value, id) order that the
    # cut never reaches, so cutting the rest at denominator n is the same
    hopeful = _may_pass(degrees, counts, p, alpha * vertices.size / g.n)
    vertices = vertices[hopeful]
    pvalues = _binomial_survival_batch(degrees[hopeful], p, counts[hopeful])
    return vertices[_bh_keep(pvalues, g.n, alpha)]


def bh_select(g: MultiGraph, b: Iterable[int], alpha: float) -> VertexSet:
    """One update step: vertices significantly connected to `b` at level
    alpha (see `_select`)."""
    return frozenset(_select(g, as_id_array(b, g.n), alpha).tolist())


def select_by_rank(g: MultiGraph, b: Iterable[int], k: int) -> VertexSet:
    """The `k` vertices most significantly connected to `b`.

    The first `k` entries of the stable order of the p-value table: by
    (p-value against `b`, id), the same order `select_by_fdr` cuts, taken
    whatever the p-values. Past the vertices with p < 1, that order is by
    id alone. Raises ValueError unless 0 <= k <= n.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in [0, {g.n}], got {k}")
    # perfbench/tracing.py patches pvalue_table, so the private name is called
    table = _pvalues(g, as_id_array(b, g.n))
    return frozenset(np.argsort(table, kind="stable")[:k].tolist())
