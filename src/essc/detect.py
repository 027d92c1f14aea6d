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

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGraphError
from .graph import MultiGraph, VertexSet, as_id_array
# community_search runs the array form of the step, `_select`; bh_select,
# its public form, stays importable here because perfbench/tracing.py
# patches this name
from .significance import _check_alpha, _select, bh_select, select_by_rank  # noqa: F401

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


def _closed_neighborhood(g: MultiGraph, u: int) -> VertexSet:
    return frozenset(g.neighbors(u).tolist()) | {u}


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
    the smaller id); the retry counts only if it reaches a fixed point
    that holds an uncovered vertex, and its seed-log record is marked
    ``fallback``. A first search that ends other than empty and covers no
    new vertex retires its anchor (``forced_progress``). The loop stops at
    the first search whose fallback also yields nothing new, or when every
    vertex is covered or retired. With ``all_neighborhoods``, one search
    runs from every vertex's closed neighborhood and the distinct fixed
    points are kept. Duplicate communities are dropped; overlap
    between distinct communities is preserved as-is.
    """
    _check_alpha(alpha)
    if g.edge_count == 0:
        raise DegenerateGraphError("graph has no edges; reference model is undefined")
    if seed_strategy not in (SEED_MAX_DEGREE, SEED_ALL_NEIGHBORHOODS):
        raise ValueError(f"unknown seed strategy {seed_strategy!r}")

    # the distinct communities in the order found (a dict keeps it)
    communities: dict[VertexSet, None] = {}
    seed_log: list[SeedRecord] = []

    if seed_strategy == SEED_MAX_DEGREE:
        uncovered = np.ones(g.n, dtype=bool)

        def search(anchor: int, seed: VertexSet, fallback: bool) -> SeedRecord:
            outcome = community_search(g, seed, alpha)
            members = list(outcome.community)
            fresh = bool(uncovered[members].any())
            # a first search keeps any fixed point; a retry only one with an
            # uncovered member (so a new one: every kept community is
            # covered), since a known one would retire just the anchor and
            # extraction would then run on through every remaining vertex
            accepted = outcome.termination == TERM_FIXED_POINT and (fresh or not fallback)
            if accepted:
                communities.setdefault(outcome.community)
                uncovered[members] = False
            # only an empty search and its retry may end extraction; any other
            # first search that covers nothing new retires its anchor, which
            # would otherwise be reselected forever
            forced = not fallback and outcome.termination != TERM_EMPTY and not (accepted and fresh)
            if forced:
                uncovered[anchor] = False
            record = SeedRecord(anchor, len(seed), outcome.termination, outcome.iterations,
                                len(members), accepted, forced, fallback)
            seed_log.append(record)
            return record

        while uncovered.any():
            # ties break toward the smallest id (argmax returns the first)
            anchor = int(np.argmax(np.where(uncovered, g.degrees, -1)))
            seed = _closed_neighborhood(g, anchor)
            if search(anchor, seed, fallback=False).termination != TERM_EMPTY:
                continue
            # the anchor's neighborhood can dilute a block the anchor lies
            # in so far that the first step keeps too few members to hold
            # on; retry once from the vertices that rank highest against it
            if not search(anchor, select_by_rank(g, seed, len(seed)), fallback=True).accepted:
                break
    else:
        for u in range(g.n):
            seed = _closed_neighborhood(g, u)
            outcome = community_search(g, seed, alpha)
            accepted = outcome.termination == TERM_FIXED_POINT
            if accepted:
                communities.setdefault(outcome.community)
            seed_log.append(SeedRecord(u, len(seed), outcome.termination, outcome.iterations,
                                       len(outcome.community), accepted))

    return DetectionResult(
        communities=list(communities),
        background=background_of(g.n, communities),
        alpha=alpha,
        seed_log=seed_log,
    )


def background_of(n: int, communities: Iterable[Iterable[int]]) -> VertexSet:
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

    Returns (communities, background) as lists of label tokens. The file
    has exactly one line starting with ``background:``, the last, no
    label is both in a community and in the background, and no line
    repeats a label. A label may sit in several community lines (overlap).
    Lines end at ``\n`` alone.
    """
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[-1].startswith("background:"):
        raise ValueError("community file must end with a 'background:' line")
    if any(ln.startswith("background:") for ln in lines[:-1]):
        raise ValueError("community file has more than one 'background:' line")
    communities = [ln.split() for ln in lines[:-1]]
    background = lines[-1][len("background:"):].split()
    shared = set(background).intersection(t for c in communities for t in c)
    if shared:
        raise ValueError(f"label {min(shared)!r} is both in a community and in the background")
    for line in (*communities, background):
        if len(set(line)) < len(line):
            repeated = next(t for t, k in Counter(line).items() if k > 1)
            raise ValueError(f"label {repeated!r} is repeated on one line")
    return communities, background
