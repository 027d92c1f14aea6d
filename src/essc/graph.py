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
import scipy.sparse

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
    `labels[u]` is the `str` of the label given for `u`, by default `u`.
    """

    __slots__ = ("n", "edge_count", "degrees", "labels", "_indptr", "_indices", "_data")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        labels: Sequence[str | int] | None = None,
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
        labels: Sequence[str | int] | None = None,
    ) -> "MultiGraph":
        """Build from parallel endpoint arrays, accumulating multiplicity.

        Both orientations of every edge go into one COO matrix, whose
        `tocsr` counts entries into rows, sorts each row and sums repeated
        entries, so a loop's two orientations land on one entry holding
        twice its multiplicity.
        """
        n = operator.index(n)
        u, v = _int_array(u, "endpoints"), _int_array(v, "endpoints")
        mult = np.ones(u.size, dtype=np.int64) if mult is None else _int_array(mult, "multiplicities")
        if not u.shape == v.shape == mult.shape:
            raise ValueError("endpoint and multiplicity arrays must have equal length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("vertex id out of range")
        if np.any(mult < 1):
            raise ValueError("multiplicity must be >= 1")
        # float64 sums of non-negative integers are exact below 2**53 and
        # round to at least 2**53 above it, so this tests the exact total;
        # below it the int64 sums of the build cannot overflow
        if 2.0 * mult.sum(dtype=np.float64) >= 2**53:
            raise ValueError("total degree 2|E| must be below 2**53 to be counted exactly")
        adj = scipy.sparse.coo_array(
            (np.concatenate([mult, mult]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        ).tocsr()
        return cls(n, adj.indptr.astype(np.int64), adj.indices.astype(np.int64), adj.data, labels)

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

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct edges as parallel ``u, v, multiplicity`` arrays with
        ``u <= v``, sorted by ``(u, v)``."""
        rows = self._rows()
        upper = self._indices >= rows
        u, v, m = rows[upper], self._indices[upper], self._data[upper]
        return u, v, np.where(u == v, m // 2, m)

    def edge_classes(self) -> Iterator[tuple[int, int, int]]:
        """Distinct edges as ``(u, v, multiplicity)``, sorted by ``(u, v)``."""
        return zip(*(a.tolist() for a in self._edge_arrays()))

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
    an optional multiplicity, ASCII digits with an optional sign (default
    1). Labels are arbitrary strings mapped to dense ids in first-seen
    order; repeated lines accumulate multiplicity. Lines starting with '#'
    and blank lines are skipped. No label may start with '#' or with
    'background:', the mark of a community file's background line: such a
    label raises EdgeListParseError.

    A file of ``a b m`` lines with canonical decimal tokens, which is what
    `write_edge_list` gives for integer labels, is read in bulk; any other
    file is read line by line. Both give the same graph and labels.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


# bytes per slice of the bulk reader: bounds the temporary masks
_SLICE = 1 << 20
_DIGITS = 18  # 10**18 - 1 < 2**63, so every canonical token fits int64


def _parse_canonical(text: str) -> MultiGraph | None:
    """`parse_edge_list` for a file whose every line, the last included,
    is ``a b m`` and a newline, with single spaces and each token a
    canonical decimal (ASCII digits, no leading zero but in ``0`` itself,
    at most 18 digits), and ``1 <= m < 2**53``. Returns None for any
    other text, which `_parse_lines` then reads.

    A canonical token is its integer's `str`, so labels can be numbered
    as integers without merging two strings (``7`` and ``007``) that
    `int` reads alike. `_number` gives them ids in first-seen order by
    direct addressing, first replacing each label by its rank among the
    distinct labels when the largest is not below the number of label
    tokens. The graph keeps each label as its integer's `str`.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    blocks = []
    start = 0
    while start < len(text):
        # a canonical line is under 60 bytes, so a slice holds a line end
        end = text.rfind("\n", start, start + _SLICE) + 1
        if end == 0:
            return None
        block = _canonical_rows(text[start:end].encode("ascii"))
        if block is None:
            return None
        blocks.append(block)
        start = end
    # first-seen order over a0 b0 a1 b1 ..., as the line loop numbers them;
    # each `del` frees an array before the next large one, as the build's
    # own peak comes on top of what is held when it starts
    ends = np.concatenate([block[:, :2] for block in blocks]).ravel()
    mult = np.concatenate([block[:, 2] for block in blocks])
    del blocks
    if mult.min() < 1 or mult.max() >= 2**53:
        return None
    ids, values = _number(ends)
    del ends
    ids = ids.reshape(-1, 2)
    return MultiGraph.from_pair_arrays(values.size, ids[:, 0], ids[:, 1], mult, values.tolist())


def _number(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the non-negative `ends` in first-seen order, and the distinct
    values in that order, through tables indexed by value; values not all
    below ``ends.size`` are first replaced by their rank among the distinct
    values, so that no table is larger than `ends`."""
    keys = ends
    if ends.max() >= ends.size:
        keys = np.unique(ends, return_inverse=True)[1]
    pos = np.arange(keys.size)
    first = np.full(int(keys.max()) + 1, keys.size, dtype=np.int64)
    # ufunc.at applies every repeated index; a fancy assignment would
    # leave it unspecified which of the repeated writes wins
    np.minimum.at(first, keys, pos)
    seen = first[keys] == pos
    first[keys[seen]] = np.arange(np.count_nonzero(seen))  # now the id of each key
    return first[keys], ends[seen]


def _canonical_rows(block: bytes) -> np.ndarray | None:
    """The ``(lines, 3)`` int64 values of `block`, whole ``a b m`` lines
    of canonical decimals, or None if it is not in that form."""
    b = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((b - ord("0")) >= 10)  # uint8 wraps below '0'
    if seps.size % 3:
        return None
    kinds = b[seps].reshape(-1, 3)
    if not ((kinds[:, :2] == ord(" ")).all() and (kinds[:, 2] == ord("\n")).all()):
        return None
    starts = np.concatenate([[0], seps[:-1] + 1])
    lengths = seps - starts
    if lengths.min() < 1 or lengths.max() > _DIGITS:
        return None
    if np.any((b[starts] == ord("0")) & (lengths > 1)):
        return None
    # the separator ' ' matches any run of whitespace, newlines included
    return np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, 3)


def _parse_lines(text: str) -> MultiGraph:
    """`parse_edge_list` line by line: the general path, and the one that
    raises EdgeListParseError with the line number."""
    id_of: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    ms: list[int] = []

    # lines end at "\n" alone; `split` drops the "\r" of a CRLF line end
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(lineno, f"expected 2 or 3 tokens, got {len(tokens)}")
        # a first-column label starting with '#' makes the line a comment,
        # so for it only the 'background:' mark can apply
        for label in tokens[:2]:
            if label.startswith(("#", "background:")):
                mark = "the comment mark '#'" if label[0] == "#" else "'background:', reserved by the community file"
                raise EdgeListParseError(lineno, f"label {label!r} starts with {mark}")
        mult = 1
        if len(tokens) == 3:
            try:
                # `int` also reads '1_0' and non-ASCII digits
                if not tokens[2].isascii() or "_" in tokens[2]:
                    raise ValueError
                mult = int(tokens[2])
            except ValueError:
                raise EdgeListParseError(lineno, f"multiplicity {tokens[2]!r} is not an integer") from None
            if not 1 <= mult < 2**53:
                raise EdgeListParseError(lineno, f"multiplicity must lie in [1, 2**53), got {mult}")
        us.append(id_of.setdefault(tokens[0], len(id_of)))
        vs.append(id_of.setdefault(tokens[1], len(id_of)))
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
    format. A graph whose labels are canonical decimals, such as the
    default ids, gives a file that `parse_edge_list` reads in bulk.
    """
    u, v, m = g._edge_arrays()
    # each cell carries the separator after it; one string per label and
    # per distinct multiplicity, of which most graphs have a handful
    mults, slot = np.unique(m, return_inverse=True)
    ends = np.array([f"{x}\n" for x in mults.tolist()], dtype=object)
    labels = np.array([f"{x} " for x in g.labels], dtype=object)
    cells = np.empty((u.size, 3), dtype=object)
    cells[:, 0] = labels[u]
    cells[:, 1] = labels[v]
    cells[:, 2] = ends[slot]
    return "".join(cells.ravel().tolist())
