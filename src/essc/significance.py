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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import betainc

from .errors import DegenerateGraphError
from .graph import MultiGraph, VertexSet


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
    if k < 0:
        raise ValueError("trial count must be >= 0")
    if x < 0:
        raise ValueError("threshold count must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return float(_binomial_survival_batch(np.array([k]), p, np.array([x]))[0])


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


@dataclass(frozen=True)
class PValueTable:
    """Connection p-values of every vertex against one candidate set."""

    block_probability: float
    boundary_counts: np.ndarray
    pvalues: np.ndarray

    def __len__(self) -> int:
        return len(self.pvalues)


def pvalue_table(g: MultiGraph, b: Iterable[int]) -> PValueTable:
    """Tail p-values for all n vertices against the set `b`."""
    p = block_probability(g, b)
    counts = g.boundary_counts(b)
    pv = _binomial_survival_batch(g.degrees, p, counts)
    return PValueTable(block_probability=p, boundary_counts=counts, pvalues=pv)


def connection_pvalue(g: MultiGraph, u: int, b: Iterable[int]) -> float:
    """P-value for the strength of connection between vertex `u` and set `b`.

    Probability, under the degree-preserving null model, of seeing at
    least the observed number of edges between `u` and `b`. Vertices of
    degree 0 return 1.
    """
    if u < 0 or u >= g.n:
        raise ValueError(f"vertex id {u} out of range")
    return float(pvalue_table(g, b).pvalues[u])


def _scored(g: MultiGraph, b: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The vertices with an edge into `b`, ascending, and their p-values.
    Every other vertex has p = 1."""
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges; reference model is undefined")
    vertices, counts = g.boundary(b)
    # the members' rows sum to their degrees, so the counts sum to vol(B)
    p = int(counts.sum()) / (2.0 * g.edge_count)
    return vertices, _binomial_survival_batch(g.degrees[vertices], p, counts)


def _ranked(g: MultiGraph, b: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The vertices with an edge into `b`, ordered by (p-value, id), and
    their p-values. Every other vertex has p = 1 and comes after these in
    the full order."""
    vertices, pvalues = _scored(g, b)
    # a stable sort keeps the ascending ids in order among equal p-values
    order = np.argsort(pvalues, kind="stable")
    return vertices[order], pvalues[order]


def _bh_cut(sorted_p: np.ndarray, n: int, alpha: float) -> int:
    """Largest k with p_(k) <= (k / n) * alpha over ascending p-values, or 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    passing = sorted_p <= alpha * np.arange(1, sorted_p.size + 1) / n
    hits = np.nonzero(passing)[0]
    return int(hits[-1]) + 1 if hits.size else 0


def select_by_fdr(pvalues: Sequence[float] | np.ndarray, alpha: float) -> frozenset[int]:
    """Benjamini-Hochberg selection over raw p-values.

    Orders entries by (p-value, index), finds the largest k with
    p_(k) <= (k / n) * alpha, and returns the indices of the first k
    entries. k = 0 yields the empty set. The denominator is the full
    length n of the input.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    order = np.argsort(p, kind="stable")
    return frozenset(order[:_bh_cut(p[order], p.size, alpha)].tolist())


def bh_select(g: MultiGraph, b: Iterable[int], alpha: float) -> VertexSet:
    """One update step: vertices significantly connected to `b` at level alpha.

    A vertex with no edge into `b` has p = 1 and never passes at alpha < 1,
    so only the K vertices with an edge into `b` are scored; the BH
    denominator is still n. Only those with p <= alpha * K / n are ordered
    by (p-value, id) and cut.
    """
    vertices, pvalues = _scored(g, b)
    # the cut's threshold alpha * k / n rounds monotonically in k and no
    # rank past K exists, so a vertex above alpha * K / n fails at every
    # rank. The vertices left out are a suffix of the (p-value, id) order
    # that the cut never reaches, and the kept ones are its prefix.
    keep = pvalues <= alpha * vertices.size / g.n
    vertices, pvalues = vertices[keep], pvalues[keep]
    # a stable sort keeps the ascending ids in order among equal p-values
    order = np.argsort(pvalues, kind="stable")
    return frozenset(vertices[order[:_bh_cut(pvalues[order], g.n, alpha)]].tolist())


def select_by_rank(g: MultiGraph, b: Iterable[int], k: int) -> VertexSet:
    """The `k` vertices most significantly connected to `b`.

    Vertices are ordered by (p-value against `b`, id), the same order
    `select_by_fdr` cuts, and the first `k` are returned whatever their
    p-values. Past the vertices with p < 1, that order is by id alone.
    Raises ValueError unless 0 <= k <= n.
    """
    if not 0 <= k <= g.n:
        raise ValueError(f"k must lie in [0, {g.n}], got {k}")
    vertices, pvalues = _ranked(g, b)
    strong = vertices[pvalues < 1.0][:k]
    rest = np.setdiff1d(np.arange(g.n), strong)[:k - strong.size]
    return frozenset(strong.tolist() + rest.tolist())
