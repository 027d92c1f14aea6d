"""Evaluation measures for detected community structure.

Set overlap (Jaccard and best-match), mutual-information scores for
partitions and for covers with background, total variation distance
between discrete distributions, and a Monte-Carlo sampler of the
boundary-count law under the degree-preserving null model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import bench
from .graph import as_id_array
from .significance import _binomial_survival_batch, _check_binomial

Cover = tuple[Sequence[Iterable[int]], Iterable[int]]


def jaccard(a: Iterable[int], b: Iterable[int]) -> float:
    """Jaccard overlap |a & b| / |a | b|; two empty sets score 1."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def best_match_score(pred: Sequence[Iterable[int]], truth: Iterable[int]) -> float:
    """Best Jaccard overlap of any predicted community with the truth set."""
    truth = set(truth)
    if not truth:
        raise ValueError("truth set must be non-empty")
    return max((jaccard(c, truth) for c in pred), default=0.0)


def _check_partition(blocks: list[set[int]], name: str) -> set[int]:
    universe: set[int] = set()
    total = 0
    for b in blocks:
        universe |= b
        total += len(b)
    if total != len(universe):
        raise ValueError(f"{name} blocks overlap; not a partition")
    return universe


def nmi_partition(p: Sequence[Iterable[int]], q: Sequence[Iterable[int]]) -> float:
    """Normalized mutual information I(p;q) / sqrt(H(p) H(q)).

    Both arguments must partition the same vertex set. If both partitions
    are trivial (single block) the score is 1; if exactly one is trivial
    the score is 0.
    """
    bp = [set(b) for b in p if len(set(b))]
    bq = [set(b) for b in q if len(set(b))]
    up = _check_partition(bp, "first")
    uq = _check_partition(bq, "second")
    if up != uq:
        raise ValueError("partitions cover different vertex sets")
    n = len(up)
    if n == 0:
        return 1.0

    def entropy(blocks: list[set[int]]) -> float:
        return -sum((len(b) / n) * math.log(len(b) / n) for b in blocks)

    hp, hq = entropy(bp), entropy(bq)
    if hp == 0.0 and hq == 0.0:
        return 1.0
    if hp == 0.0 or hq == 0.0:
        return 0.0
    mi = 0.0
    for a in bp:
        for b in bq:
            c = len(a & b)
            if c:
                mi += (c / n) * math.log(n * c / (len(a) * len(b)))
    return min(1.0, max(0.0, mi / math.sqrt(hp * hq)))


def _h(count: int, n: int) -> float:
    return -(count / n) * math.log(count / n) if count > 0 else 0.0


def _cover_sets(cover: Cover) -> list[frozenset[int]]:
    communities, background = cover
    out = [frozenset(map(operator.index, c)) for c in communities]
    bg = frozenset(map(operator.index, background))
    if bg:
        out.append(bg)
    return out


def gnmi_cover(c: Cover, d: Cover) -> float:
    """Mutual-information similarity between two covers with background.

    Each argument is a ``(communities, background)`` pair over the same
    vertex set; a non-empty background is appended to its side as one
    extra community. Every community is treated as a binary membership
    indicator of a uniformly random vertex. For each community on one
    side, the best (lowest) conditional entropy against the other side's
    communities is kept, normalized by the community's own entropy, but a
    pairing is only admitted when its agreement terms outweigh its
    disagreement terms; with no admissible pairing the community counts
    as fully unexplained. The score is 1 minus the mean normalized
    conditional entropy, averaged over both directions.

    Degenerate communities (empty, or the whole vertex set) carry a
    constant indicator; they count as explained exactly when the other
    side contains an identical member set.
    """
    xs = _cover_sets(c)
    ys = _cover_sets(d)
    ux = frozenset().union(*xs)
    uy = frozenset().union(*ys)
    if ux != uy:
        raise ValueError("covers span different vertex sets")
    if ux and (min(ux) < 0 or max(ux) != len(ux) - 1):
        raise ValueError("vertex ids must be dense 0..n-1")
    n = len(ux)
    if n == 0:
        return 1.0

    def side(a_sets: list[frozenset[int]], b_sets: list[frozenset[int]]) -> float:
        b_lookup = set(b_sets)
        terms = []
        for a in a_sets:
            ha = _h(len(a), n) + _h(n - len(a), n)
            if ha == 0.0:
                terms.append(0.0 if a in b_lookup else 1.0)
                continue
            best = ha
            for b in b_sets:
                n11 = len(a & b)
                n10 = len(a) - n11
                n01 = len(b) - n11
                n00 = n - n11 - n10 - n01
                if _h(n11, n) + _h(n00, n) < _h(n01, n) + _h(n10, n):
                    continue
                hb = _h(len(b), n) + _h(n - len(b), n)
                joint = _h(n11, n) + _h(n10, n) + _h(n01, n) + _h(n00, n)
                best = min(best, joint - hb)
            terms.append(min(1.0, max(0.0, best / ha)))
        return sum(terms) / len(terms)

    return 1.0 - 0.5 * (side(xs, ys) + side(ys, xs))


@dataclass(frozen=True)
class DiscretePMF:
    """Probability mass function over non-negative integer outcomes."""

    mass: dict[int, float]

    def __post_init__(self):
        total = 0.0
        for outcome, m in self.mass.items():
            if outcome < 0:
                raise ValueError(f"outcome {outcome} is negative")
            # written so that a NaN mass or total fails
            if not m >= 0:
                raise ValueError(f"mass of outcome {outcome} is {m}, not >= 0")
            total += m
        if self.mass and not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"masses sum to {total}, not 1")


def binomial_pmf(k: int, p: float) -> DiscretePMF:
    """Binomial(k, p) as a DiscretePMF over 0..k.

    P(X = x) is taken as P(X >= x) - P(X >= x + 1) from the upper tails
    behind every detection p-value, so the Monte-Carlo oracle checks that
    very routine. Rounding could make a difference negative; it is clipped
    at 0. Raises ValueError unless k >= 0 and 0 <= p <= 1.
    """
    _check_binomial(k, p)
    x = np.arange(k + 2)
    tails = _binomial_survival_batch(np.full(x.size, k), p, x)
    return DiscretePMF(dict(enumerate(np.maximum(tails[:-1] - tails[1:], 0.0).tolist())))


def tv_distance(p: DiscretePMF, q: DiscretePMF) -> float:
    """Total variation distance: half the L1 distance over the joint support."""
    support = set(p.mass) | set(q.mass)
    return 0.5 * sum(abs(p.mass.get(i, 0.0) - q.mass.get(i, 0.0)) for i in support)


def empirical_boundary_distribution(
    degrees: Sequence[int] | np.ndarray,
    u: int,
    b: Iterable[int],
    samples: int,
    rng_seed=None,
) -> DiscretePMF:
    """Monte-Carlo law of the edge count between `u` and set `b` under
    uniform stub pairing with the given degree sequence.

    A uniform perfect matching of the 2m stubs can be built one pair at a
    time: take any unpaired stub and match it to a uniform partner among
    the other unpaired stubs. Taking `u`'s stubs first, the count is fixed
    once they are all paired, so each sample needs only d_u steps and
    three numbers: the unpaired stubs left, `u`'s, and those of `b`
    outside `u`. A partner among `u`'s own stubs is a self-loop, counting
    2 when `u` is a member. The samples advance together, one vectorised
    step per round. This is the simulation oracle against which the
    binomial tail approximation is checked.
    """
    degrees = bench._degree_sequence(degrees)
    n = len(degrees)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    u = operator.index(u)
    if u < 0 or u >= n:
        raise ValueError(f"vertex id {u} out of range")
    members = as_id_array(b, n)
    in_b = np.zeros(n, dtype=bool)
    in_b[members] = True
    loop_gain = 2 if in_b[u] else 0
    in_b[u] = False
    rng = bench._rng(rng_seed)
    left = np.full(samples, degrees.sum())
    left_u = np.full(samples, degrees[u])
    left_b = np.full(samples, degrees[in_b].sum())
    count = np.zeros(samples, dtype=np.int64)
    for _ in range(int(degrees[u])):
        live = left_u > 0
        if not live.any():
            break
        # partner index among the left - 1 other unpaired stubs: u's
        # stubs first, then b's, then the rest (finished samples draw
        # from [0, 1) and are masked out)
        pick = rng.integers(0, np.maximum(left - 1, 1))
        loop = live & (pick < left_u - 1)
        hit = live & ~loop & (pick < left_u - 1 + left_b)
        count += loop_gain * loop + hit
        left_u -= live * (1 + loop)
        left_b -= hit
        left -= 2 * live
    freq = np.bincount(count)
    return DiscretePMF(
        {i: c / samples for i, c in enumerate(freq.tolist()) if c}
    )
