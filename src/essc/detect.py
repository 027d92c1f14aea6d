"""Community extraction by iterated FDR selection.

A community is a fixed point of the update map that keeps exactly the
vertices significantly connected to the current candidate set. The
search iterates that map from a seed neighborhood; the outer loop
re-seeds at the highest-degree uncovered vertex until a search comes
back empty and a retry from the vertices ranked highest against the same
neighborhood yields nothing new either, then everything not in a
detected community is background.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGraphError
from .graph import MultiGraph, VertexSet, as_id_array
# community_search runs the array form of the step, `_select`; bh_select,
# its public form, stays importable here because perfbench/tracing.py
# patches this name
from .significance import _select, bh_select, select_by_rank  # noqa: F401

TERM_FIXED_POINT = "fixed_point"
TERM_EMPTY = "empty"
TERM_CYCLE = "cycle"
TERM_ITERATION_CAP = "iteration_cap"

SEED_MAX_DEGREE = "max_degree"
SEED_ALL_NEIGHBORHOODS = "all_neighborhoods"

DEFAULT_ALPHA = 0.05
MAX_ITER = 100  # updates per search before it ends as iteration_cap


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one fixed-point search from a seed set."""

    community: VertexSet
    iterations: int
    termination: str
    trace: list[int]


@dataclass(frozen=True)
class SeedRecord:
    """One outer-loop extraction attempt, for the run log."""

    anchor: int
    seed_size: int
    termination: str
    iterations: int
    community_size: int
    accepted: bool
    forced_progress: bool = False
    fallback: bool = False


@dataclass(frozen=True)
class DetectionResult:
    """Detected communities, the leftover background, and the run log."""

    communities: list[VertexSet]
    background: VertexSet
    alpha: float
    seed_log: list[SeedRecord] = field(default_factory=list)


@dataclass(frozen=True)
class SummaryStats:
    """Headline statistics of a detection result.

    Fields are None where undefined (no communities, or no background).
    """

    community_count: int
    mean_size: float | None
    size_stddev: float | None
    mean_membership: float | None
    mean_degree_community: float | None
    mean_degree_background: float | None
    background_proportion: float


def community_search(
    g: MultiGraph,
    seed: Iterable[int],
    alpha: float = DEFAULT_ALPHA,
) -> SearchOutcome:
    """Iterate the selection map from `seed` until it stops moving.

    Termination is one of:

    - ``fixed_point``: the update returned its own input,
    - ``empty``: the update emptied out (the empty set is always fixed),
    - ``cycle``: a previously visited set recurred and the deterministic
      escapes (reseeding from the cycle's intersection, then union) were
      exhausted; the smallest set of the first cycle (by size, then
      lexicographic members) is returned,
    - ``iteration_cap``: `MAX_ITER` updates ran without settling; the
      last set is returned.
    """
    # sets are held as ascending id arrays; only the outcome is a frozenset
    current = as_id_array(seed, g.n)
    if not current.size:
        raise ValueError("seed set must be non-empty")
    visited: dict[bytes, int] = {current.tobytes(): 0}
    history: list[np.ndarray] = [current]
    trace: list[int] = [current.size]
    first_cycle: list[np.ndarray] | None = None
    for step in range(1, MAX_ITER + 1):
        new = _select(g, current, alpha)
        trace.append(new.size)
        if np.array_equal(new, current):
            return SearchOutcome(frozenset(new.tolist()), step, TERM_FIXED_POINT, trace)
        if not new.size:
            return SearchOutcome(frozenset(), step, TERM_EMPTY, trace)
        key = new.tobytes()
        if key in visited:
            # threshold flutter often traps the orbit in a short cycle
            # around a genuine fixed point; restart deterministically from
            # the cycle's intersection (then union) before conceding
            cycle_sets = history[visited[key]:]
            if first_cycle is None:
                first_cycle = cycle_sets
            escape = None
            for candidate in (reduce(np.intersect1d, cycle_sets), reduce(np.union1d, cycle_sets)):
                if candidate.size and candidate.tobytes() not in visited:
                    escape = candidate
                    break
            if escape is None:
                pick = min(first_cycle, key=lambda s: (s.size, s.tolist()))
                return SearchOutcome(frozenset(pick.tolist()), step, TERM_CYCLE, trace)
            new = escape
            key = new.tobytes()
            trace[-1] = new.size
        visited[key] = len(history)
        history.append(new)
        current = new
    return SearchOutcome(frozenset(current.tolist()), MAX_ITER, TERM_ITERATION_CAP, trace)


def _max_degree_anchor(g: MultiGraph, uncovered_mask: np.ndarray) -> int:
    # ties break toward the smallest id (argmax returns first occurrence)
    masked = np.where(uncovered_mask, g.degrees, -1)
    return int(np.argmax(masked))


def _closed_neighborhood(g: MultiGraph, u: int) -> VertexSet:
    return frozenset(g.neighbors(u).tolist()) | {u}


def _record(
    anchor: int,
    seed: VertexSet,
    outcome: SearchOutcome,
    accepted: bool,
    forced_progress: bool = False,
    fallback: bool = False,
) -> SeedRecord:
    return SeedRecord(
        anchor=anchor,
        seed_size=len(seed),
        termination=outcome.termination,
        iterations=outcome.iterations,
        community_size=len(outcome.community),
        accepted=accepted,
        forced_progress=forced_progress,
        fallback=fallback,
    )


def essc(
    g: MultiGraph,
    alpha: float = DEFAULT_ALPHA,
    seed_strategy: str = SEED_MAX_DEGREE,
) -> DetectionResult:
    """Extract all statistically stable communities of the graph.

    With the ``max_degree`` strategy, searches are seeded from the
    closed neighborhood B0 of the highest-degree vertex not yet inside a
    detected community. A search that comes back empty is retried once
    from the |B0| vertices with the smallest p-values against B0 (ties to
    the smaller id); the retry counts only if it reaches a non-empty fixed
    point that is not yet detected and holds an uncovered vertex, and its
    seed-log record is marked ``fallback``. The loop stops at the first
    search whose fallback also yields nothing new (or when every vertex
    is covered). With ``all_neighborhoods``, one search runs
    from every vertex's closed neighborhood and the distinct non-empty
    fixed points are kept. Duplicate communities are dropped; overlap
    between distinct communities is preserved as-is.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges; reference model is undefined")
    if seed_strategy not in (SEED_MAX_DEGREE, SEED_ALL_NEIGHBORHOODS):
        raise ValueError(f"unknown seed strategy {seed_strategy!r}")

    communities: list[VertexSet] = []
    seen: set[VertexSet] = set()
    seed_log: list[SeedRecord] = []

    if seed_strategy == SEED_MAX_DEGREE:
        uncovered = np.ones(g.n, dtype=bool)
        while uncovered.any():
            anchor = _max_degree_anchor(g, uncovered)
            seed = _closed_neighborhood(g, anchor)
            outcome = community_search(g, seed, alpha)
            accepted = outcome.termination == TERM_FIXED_POINT and bool(outcome.community)
            forced = False
            if accepted:
                if outcome.community not in seen:
                    seen.add(outcome.community)
                    communities.append(outcome.community)
                removed = [v for v in outcome.community if uncovered[v]]
                uncovered[list(outcome.community)] = False
                if not removed:
                    # a fixed point disjoint from the uncovered set would
                    # reselect the same anchor forever; retire the anchor
                    # so the loop always makes progress
                    uncovered[anchor] = False
                    forced = True
            elif outcome.termination != TERM_EMPTY:
                # a cycling or capped search yields no community, but only an
                # empty search (and its retry) may end extraction; retire
                # the anchor and keep extracting
                uncovered[anchor] = False
                forced = True
            seed_log.append(_record(anchor, seed, outcome, accepted, forced))
            if outcome.termination != TERM_EMPTY:
                continue
            # the anchor's neighborhood can dilute a block the anchor lies
            # in so far that the first step keeps too few members to hold
            # on; retry once from the vertices that rank highest against it.
            # Only a new community with an uncovered member counts: one
            # already known would retire just the anchor, and extraction
            # would then run on through every remaining vertex
            retry_seed = select_by_rank(g, seed, len(seed))
            retry = community_search(g, retry_seed, alpha)
            found = retry.community
            accepted = (
                retry.termination == TERM_FIXED_POINT
                and bool(found)
                and found not in seen
                and bool(uncovered[list(found)].any())
            )
            seed_log.append(_record(anchor, retry_seed, retry, accepted, fallback=True))
            if not accepted:
                break
            seen.add(found)
            communities.append(found)
            uncovered[list(found)] = False
    else:
        for u in range(g.n):
            seed = _closed_neighborhood(g, u)
            outcome = community_search(g, seed, alpha)
            accepted = outcome.termination == TERM_FIXED_POINT and bool(outcome.community)
            if accepted and outcome.community not in seen:
                seen.add(outcome.community)
                communities.append(outcome.community)
            seed_log.append(_record(u, seed, outcome, accepted))

    background = background_of(g.n, communities)
    return DetectionResult(
        communities=communities,
        background=background,
        alpha=alpha,
        seed_log=seed_log,
    )


def background_of(n: int, communities: Sequence[Iterable[int]]) -> VertexSet:
    """Vertices of ``[0, n)`` that belong to no community."""
    covered = np.zeros(n, dtype=bool)
    for c in communities:
        covered[as_id_array(c, n)] = True
    return frozenset(np.flatnonzero(~covered).tolist())


def summarize(g: MultiGraph, result: DetectionResult) -> SummaryStats:
    """Compute headline statistics for a detection result."""
    sizes = np.array([len(c) for c in result.communities], dtype=np.float64)
    k = len(result.communities)
    membership = np.zeros(g.n, dtype=np.int64)
    for c in result.communities:
        membership[list(c)] += 1
    covered = membership > 0
    n_background = len(result.background)

    if k == 0:
        mean_size = None
        size_stddev = None
    else:
        mean_size = float(sizes.mean())
        size_stddev = float(sizes.std(ddof=1)) if k >= 2 else 0.0
    mean_membership = float(membership[covered].mean()) if covered.any() else None
    mean_degree_community = float(g.degrees[covered].mean()) if covered.any() else None
    if n_background:
        bg = np.fromiter(result.background, dtype=np.int64, count=n_background)
        mean_degree_background = float(g.degrees[bg].mean())
    else:
        mean_degree_background = None
    background_proportion = n_background / g.n if g.n else 0.0

    return SummaryStats(
        community_count=k,
        mean_size=mean_size,
        size_stddev=size_stddev,
        mean_membership=mean_membership,
        mean_degree_community=mean_degree_community,
        mean_degree_background=mean_degree_background,
        background_proportion=background_proportion,
    )


def write_communities(
    communities: Sequence[Iterable[int]],
    background: Iterable[int],
    labels: Sequence[str] | None = None,
) -> str:
    """Serialize a detection result or ground truth to the community format.

    One community per line (members space-separated, ascending), in the
    given order, then a final ``background:`` line. Vertex labels default
    to the numeric ids.
    """
    name = str if labels is None else labels.__getitem__
    lines = [" ".join(map(name, sorted(c))) for c in communities]
    lines.append("background: " + " ".join(map(name, sorted(background))))
    return "".join(line.rstrip() + "\n" for line in lines)


def read_communities(text: str) -> tuple[list[list[str]], list[str]]:
    """Parse the community file format back into label lists.

    Returns (communities, background) as lists of label tokens; the final
    line must start with ``background:``.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[-1].startswith("background:"):
        raise ValueError("community file must end with a 'background:' line")
    communities = [ln.split() for ln in lines[:-1]]
    background = lines[-1][len("background:"):].split()
    return communities, background
