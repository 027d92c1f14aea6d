"""Undirected multigraph with degree bookkeeping and edge-list I/O.

Vertices are dense integer ids ``0..n-1``. Edges form a multiset of
unordered pairs; self-loops are allowed and contribute 2 to their
endpoint's degree. The CSR adjacency (one row per vertex) is the only
edge store: rows are symmetric, each row's columns are strictly
increasing, and a self-loop entry holds twice its multiplicity. Boundary
counts against a vertex set are read from the members' rows alone.
Instances are immutable after construction.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EdgeListParseError

VertexSet = frozenset[int]


def as_id_array(members: Iterable[int], n: int) -> np.ndarray:
    """The distinct ids of `members` as an ascending int64 array,
    validated as integers in ``[0, n)``.

    Ids must be integers (`operator.index`); a float raises TypeError
    rather than being truncated.
    """
    ids = np.unique(np.fromiter(map(operator.index, members), dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"vertex id {bad} out of range for graph with n={n}")
    return ids


def _int_array(values, name: str) -> np.ndarray:
    """`values` as an int64 array; like `as_id_array`, a non-integer array
    raises TypeError rather than being truncated. An empty one is valid."""
    a = np.asarray(values)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"{name} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


class MultiGraph:
    """Immutable undirected multigraph over vertices ``0..n-1``.

    `degrees[u]` counts edge endpoints at `u` (a self-loop counts 2);
    `edge_count` counts edges with multiplicity (a self-loop counts 1).
    """

    __slots__ = ("n", "edge_count", "degrees", "labels", "_indptr", "_indices", "_data")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        labels: Sequence[str] | None = None,
    ):
        # the CSR arrays must already be canonical: symmetric rows, columns
        # strictly increasing within a row, a loop entry holding 2x its
        # multiplicity (so row sums are degrees). Use the classmethods to build.
        self.n = operator.index(n)
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self.degrees = np.diff(np.concatenate([[0], np.cumsum(data)])[indptr])
        self.edge_count = int(data.sum()) // 2
        if labels is not None:
            if len(labels) != self.n:
                raise ValueError("labels must have one entry per vertex")
            self.labels = [str(x) for x in labels]
        else:
            self.labels = [str(i) for i in range(self.n)]

    @classmethod
    def from_pair_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        mult: np.ndarray | None = None,
        labels: Sequence[str] | None = None,
    ) -> "MultiGraph":
        """Build from parallel endpoint arrays, accumulating multiplicity."""
        n = operator.index(n)
        u, v = _int_array(u, "endpoints"), _int_array(v, "endpoints")
        mult = np.ones(u.size, dtype=np.int64) if mult is None else _int_array(mult, "multiplicities")
        if not u.shape == v.shape == mult.shape:
            raise ValueError("endpoint and multiplicity arrays must have equal length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("vertex id out of range")
        if np.any(mult < 1):
            raise ValueError("multiplicity must be >= 1")
        # both orientations of every edge; a loop's two land on one entry
        keys, slot = np.unique(np.concatenate([u * n + v, v * n + u]), return_inverse=True)
        data = np.bincount(slot, weights=np.concatenate([mult, mult]), minlength=keys.size)
        # float64 sums of non-negative integers are exact below 2**53 and
        # round to at least 2**53 above it, so this tests the exact total
        if data.sum() >= 2**53:
            raise ValueError("total degree 2|E| must be below 2**53 to be counted exactly")
        rows, cols = np.divmod(keys, n)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return cls(n, indptr, cols, data.astype(np.int64), labels)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple],
        labels: Sequence[str] | None = None,
    ) -> "MultiGraph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, multiplicity)``."""
        us, vs, ms = [], [], []
        for e in edges:
            a, b, m = e if len(e) == 3 else (*e, 1)
            us.append(a)
            vs.append(b)
            ms.append(m)
        return cls.from_pair_arrays(n, us, vs, ms, labels)

    def degree(self, u: int) -> int:
        u = operator.index(u)
        if u < 0 or u >= self.n:
            raise ValueError(f"vertex id {u} out of range")
        return int(self.degrees[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Distinct neighbors of `u` (includes `u` itself if it has a loop)."""
        u = operator.index(u)
        if u < 0 or u >= self.n:
            raise ValueError(f"vertex id {u} out of range")
        return self._indices[self._indptr[u]:self._indptr[u + 1]]

    def boundary_counts(self, members: Iterable[int]) -> np.ndarray:
        """Boundary count against the set for every vertex at once."""
        return self._boundary_dense(as_id_array(members, self.n)).astype(np.int64)

    def _boundary_dense(self, ids: np.ndarray) -> np.ndarray:
        starts = self._indptr[ids]
        lengths = self._indptr[ids + 1] - starts
        # entry j of the gathered rows is entry starts[r] + j - offsets[r]
        offsets = np.cumsum(lengths) - lengths
        entries = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
        return np.bincount(self._indices[entries], weights=self._data[entries], minlength=self.n)

    def volume(self, members: Iterable[int]) -> int:
        """Sum of member degrees."""
        return int(self.degrees[as_id_array(members, self.n)].sum())

    def _rows(self) -> np.ndarray:
        """The row of every adjacency entry."""
        return np.repeat(np.arange(self.n), np.diff(self._indptr))

    def edge_classes(self) -> Iterator[tuple[int, int, int]]:
        """Distinct edges as ``(u, v, multiplicity)``, sorted by ``(u, v)``."""
        rows = self._rows()
        upper = self._indices >= rows
        u, v, m = rows[upper], self._indices[upper], self._data[upper]
        m = np.where(u == v, m // 2, m)
        return zip(u.tolist(), v.tolist(), m.tolist())

    def simplified(self) -> "MultiGraph":
        """Copy with multi-edges collapsed to single edges and loops dropped."""
        rows = self._rows()
        upper = self._indices > rows
        return MultiGraph.from_pair_arrays(self.n, rows[upper], self._indices[upper], labels=self.labels)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={self.edge_count})"


def parse_edge_list(text: str) -> MultiGraph:
    """Parse an edge list with one edge per line.

    Each non-comment line holds two whitespace-separated vertex labels and
    an optional integer multiplicity (default 1). Labels are arbitrary
    strings mapped to dense ids in first-seen order; repeated lines
    accumulate multiplicity. Lines starting with '#' and blank lines are
    skipped, so no label may start with '#': such a label in the second
    column raises EdgeListParseError.
    """
    id_of: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    ms: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(lineno, f"expected 2 or 3 tokens, got {len(tokens)}")
        mult = 1
        if len(tokens) == 3:
            try:
                mult = int(tokens[2])
            except ValueError:
                raise EdgeListParseError(lineno, f"multiplicity {tokens[2]!r} is not an integer") from None
            if not 1 <= mult < 2**53:
                raise EdgeListParseError(lineno, f"multiplicity must lie in [1, 2**53), got {mult}")
        us.append(id_of.setdefault(tokens[0], len(id_of)))
        # a first-column label cannot start with '#' (the line is a
        # comment), so only a new second-column label needs the check
        v = id_of.get(tokens[1])
        if v is None:
            if tokens[1].startswith("#"):
                raise EdgeListParseError(lineno, f"label {tokens[1]!r} starts with the comment mark '#'")
            v = id_of[tokens[1]] = len(id_of)
        vs.append(v)
        ms.append(mult)

    labels = list(id_of)
    return MultiGraph.from_pair_arrays(
        len(labels),
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        np.asarray(ms, dtype=np.int64),
        labels,
    )


def write_edge_list(g: MultiGraph) -> str:
    """Serialize as ``label_u label_v multiplicity`` lines sorted by id pair.

    Isolated vertices carry no edges and are not representable in this
    format.
    """
    labels = g.labels
    return "".join(f"{labels[u]} {labels[v]} {m}\n" for u, v, m in g.edge_classes())
