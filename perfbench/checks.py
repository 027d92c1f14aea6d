"""Output checks and quality scores for one benchmark case.

Every check returns a list of problems; an empty list means the output
passed. The checks call the package's own public functions, outside any
timed region.
"""

from __future__ import annotations

import math

import numpy as np

from essc import (
    MultiGraph,
    best_match_score,
    bh_select,
    binomial_pmf,
    gnmi_cover,
    jaccard,
    read_communities,
    write_communities,
)

Cover = tuple[list[frozenset[int]], frozenset[int]]


def check_cover(g: MultiGraph, cover: Cover, alpha: float) -> list[str]:
    """Each community is a fixed point of the selection step, and the
    background is exactly the vertices outside every community."""
    communities, background = cover
    problems = []
    for i, c in enumerate(communities):
        if bh_select(g, c, alpha) != c:
            problems.append(f"community {i} (size {len(c)}) is not a fixed point")
    covered = frozenset().union(*communities)
    if background != frozenset(range(g.n)) - covered:
        problems.append("background is not the complement of the communities")
    return problems


def read_cover(g: MultiGraph, text: str) -> tuple[Cover | None, list[str]]:
    """Community file text as vertex ids of `g`, matched by label.

    Writing the ids back out and reading them again must give the same
    label sets, line by line.
    """
    id_of = {label: i for i, label in enumerate(g.labels)}
    try:
        raw_communities, raw_background = read_communities(text)
        communities = [frozenset(id_of[t] for t in line) for line in raw_communities]
        background = frozenset(id_of[t] for t in raw_background)
    except (ValueError, KeyError) as exc:
        return None, [f"community file does not parse by label: {exc!r}"]
    again_communities, again_background = read_communities(
        write_communities(communities, background, g.labels))
    lines = raw_communities + [raw_background]
    if (any(len(set(line)) != len(line) for line in lines)
            or [set(c) for c in again_communities] != [set(c) for c in raw_communities]
            or set(again_background) != set(raw_background)):
        return None, ["community file does not round-trip by label"]
    return (communities, background), []


def quality(pred: Cover, truth: Cover) -> tuple[float, float]:
    """Cover gNMI and mean best-match Jaccard against the planted truth.

    Best-match averages over the planted communities; a truth without
    communities (a null graph) scores the Jaccard overlap of the two
    backgrounds instead.
    """
    score = gnmi_cover(pred, truth)
    planted = [c for c in truth[0] if c]
    if planted:
        best = float(np.mean([best_match_score(pred[0], c) for c in planted]))
    else:
        best = jaccard(pred[1], truth[1])
    return score, best


def tv_bound(samples: int, degree: int, p_block: float) -> float:
    """Largest total variation distance accepted between the sampled
    boundary-count law and Binomial(degree, p_block).

    The allowance is the binomial approximation error at n = 1000 that the
    acceptance suite accepts (0.03) plus four times the expected sampling
    error of an empirical law over `samples` draws.
    """
    pmf = np.array(list(binomial_pmf(degree, p_block).mass.values()))
    sampling = 0.5 * float(np.sum(np.sqrt(2.0 * pmf * (1.0 - pmf) / (math.pi * samples))))
    return 0.03 + 4.0 * sampling
