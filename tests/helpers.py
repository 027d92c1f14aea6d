"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from math import comb

import numpy as np

from essc.errors import GenerationError
from essc.graph import MultiGraph


def two_cliques(k: int = 10) -> MultiGraph:
    """Two disjoint k-cliques on vertices 0..k-1 and k..2k-1."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, j) for i in range(k, 2 * k) for j in range(i + 1, 2 * k)]
    return MultiGraph.from_edges(2 * k, edges)


def triangle() -> MultiGraph:
    return MultiGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def random_multigraph(rng: np.random.Generator, n: int, m: int) -> MultiGraph:
    """Random multigraph with m edges, self-loops and repeats allowed."""
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return MultiGraph.from_pair_arrays(n, u, v)


def csr_by_sort(n: int, u: np.ndarray, v: np.ndarray, mult: np.ndarray):
    """CSR ``indptr, indices, data`` of the multigraph with edges
    ``(u[i], v[i])`` of multiplicity ``mult[i]``, by sorting the keys
    ``row * n + col`` of both orientations and summing repeated keys in
    float64. The naive build, kept as the oracle for
    `MultiGraph.from_pair_arrays`; exact while 2|E| < 2**53."""
    keys, slot = np.unique(np.concatenate([u * n + v, v * n + u]), return_inverse=True)
    data = np.bincount(slot, weights=np.concatenate([mult, mult]), minlength=keys.size)
    rows, cols = np.divmod(keys, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols, data.astype(np.int64)


def random_simple_gnp(rng: np.random.Generator, n: int, p: float) -> MultiGraph:
    mask = rng.random((n, n)) < p
    us, vs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if mask[i, j]:
                us.append(i)
                vs.append(j)
    return MultiGraph.from_pair_arrays(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))


def boundary_count(g: MultiGraph, u: int, members) -> int:
    """Edges between `u` and the set, with multiplicity, summed over
    `edge_classes()`; a self-loop at `u` counts 2 when `u` is a member."""
    inside = set(members)
    return sum(
        m * ((a == u and b in inside) + (b == u and a in inside))
        for a, b, m in g.edge_classes()
    )


def survival_exact(k: int, p: float, x: int) -> Fraction:
    """P(Bin(k, p) >= x) in exact rational arithmetic (p taken as the
    exact binary64 rational a/d, so every term is an integer over d**k)."""
    if x <= 0:
        return Fraction(1)
    if x > k:
        return Fraction(0)
    a, d = Fraction(p).as_integer_ratio()
    total = sum(comb(k, j) * a ** j * (d - a) ** (k - j) for j in range(x, k + 1))
    return Fraction(total, d ** k)


def boundary_law_exact(degrees, u: int, b) -> dict[int, Fraction]:
    """Exact law of the edge count between `u` and set `b` under uniform
    stub pairing, by enumerating every perfect matching of the stubs.

    A self-loop at `u` counts 2 when `u` is in `b`. Meant for at most 10
    stubs (945 matchings).
    """
    owner = [v for v, d in enumerate(degrees) for _ in range(d)]
    if len(owner) > 10:
        raise ValueError("too many stubs to enumerate")
    members = set(b)
    tally: dict[int, int] = {}

    def pair(rest: list[int], count: int) -> None:
        if not rest:
            tally[count] = tally.get(count, 0) + 1
            return
        s, others = owner[rest[0]], rest[1:]
        for i, j in enumerate(others):
            t = owner[j]
            gain = (s == u and t in members) + (t == u and s in members)
            pair(others[:i] + others[i + 1:], count + gain)

    pair(list(range(len(owner))), 0)
    total = sum(tally.values())
    return {c: Fraction(w, total) for c, w in sorted(tally.items())}


def survival_reference(k: int, p: float, x: int, digits: int = 60) -> Decimal:
    """High-precision P(Bin(k, p) >= x) via a Decimal term recurrence.

    Sums the shorter, numerically safe side: the upper tail directly when
    x is above the mean (terms decay, early stop), else one minus the
    lower tail. Accurate to far better than 1e-30 for the sizes used in
    the tests; independent of scipy.
    """
    if x <= 0:
        return Decimal(1)
    if x > k:
        return Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.Emax = 10 ** 9
        ctx.Emin = -(10 ** 9)
        pd = Decimal(p)
        qd = 1 - pd
        if pd == 0:
            return Decimal(0)
        if qd == 0:
            return Decimal(1)
        mean = pd * k
        if Decimal(x) > mean:
            term = Decimal(comb(k, x)) * pd ** x * qd ** (k - x)
            total = term
            j = x
            cutoff = Decimal(10) ** (-(digits - 10))
            while j < k:
                term = term * (k - j) * pd / ((j + 1) * qd)
                j += 1
                total += term
                if term < total * cutoff:
                    break
            return +total
        term = qd ** k
        total = term
        for j in range(x - 1):
            term = term * (k - j) * pd / ((j + 1) * qd)
            total += term
        return +(1 - total)


def bh_bruteforce(pvalues, alpha: float) -> frozenset[int]:
    """Reference FDR selection: test the threshold inequality at every k."""
    p = list(map(float, pvalues))
    n = len(p)
    order = sorted(range(n), key=lambda i: (p[i], i))
    best = 0
    for k in range(1, n + 1):
        if p[order[k - 1]] <= (k / n) * alpha:
            best = k
    return frozenset(order[:best])


def flatten_to_partition(communities, background, n: int) -> list[set[int]]:
    """Detection output as a partition: first-containment assignment plus
    one background block."""
    assigned: dict[int, int] = {}
    for ci, c in enumerate(communities):
        for v in c:
            assigned.setdefault(v, ci)
    blocks: list[set[int]] = [set() for _ in range(len(communities))]
    for v, ci in assigned.items():
        blocks[ci].add(v)
    blocks = [b for b in blocks if b]
    rest = set(range(n)) - set(assigned)
    if rest:
        blocks.append(rest)
    return blocks


# The draw-by-draw loops that essc.bench replaced with block and cached
# draws, kept as the oracles that must make the same draws in the same
# order and return the same values.


def bernoulli_indices_loop(space: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of successes among `space` independent Bernoulli(p) slots."""
    if space <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(space, dtype=np.int64)
    out: list[int] = []
    logq = math.log1p(-p)
    t = -1
    while True:
        t += 1 + int(math.log1p(-rng.random()) / logq)
        if t >= space:
            return np.array(out, dtype=np.int64)
        out.append(t)


def sample_community_sizes_loop(slots: int, tau2: float, s1: int, s2: int, rng) -> list[int]:
    """Power-law community sizes covering exactly `slots` membership seats."""
    support = np.arange(s1, s2 + 1, dtype=np.int64)
    w = support.astype(np.float64) ** (-float(tau2))
    w /= w.sum()
    sizes: list[int] = []
    total = 0
    while total < slots:
        s = int(rng.choice(support, p=w))
        if total + s <= slots:
            sizes.append(s)
            total += s
            continue
        deficit = slots - total
        if deficit >= s1:
            sizes.append(deficit)
        else:
            # spread the leftover seats over communities with room
            while deficit > 0:
                progressed = False
                for i in range(len(sizes)):
                    if deficit == 0:
                        break
                    if sizes[i] < s2:
                        sizes[i] += 1
                        deficit -= 1
                        progressed = True
                if not progressed:
                    raise GenerationError(
                        f"cannot cover {slots} membership seats with sizes in [{s1}, {s2}]"
                    )
        total = slots
    return sizes


def assign_memberships_loop(
    sizes: list[int],
    internal: np.ndarray,
    doubles: np.ndarray,
    rng,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Random community assignment honoring capacities.

    Prefers communities large enough to host a member's internal degree;
    falls back to any community with free seats (the wiring step then
    uses multi-edges). Doubly-assigned vertices go first so two distinct
    communities with capacity are still available. Returns (m1, m2) with
    -1 for absent second memberships, or None if the pass wedged.
    """
    n = len(internal)
    capacity = np.array(sizes, dtype=np.int64)
    size_arr = np.array(sizes, dtype=np.int64)
    m1 = np.full(n, -1, dtype=np.int64)
    m2 = np.full(n, -1, dtype=np.int64)

    is_double = np.zeros(n, dtype=bool)
    is_double[doubles] = True
    order = np.concatenate([
        rng.permutation(doubles),
        rng.permutation(np.nonzero(~is_double)[0]),
    ]).astype(np.int64)

    for v in order:
        need = int(internal[v])
        if is_double[v]:
            open_c = np.nonzero(capacity > 0)[0]
            if len(open_c) < 2:
                return None
            half = need - need // 2
            fit = open_c[size_arr[open_c] > half]
            pool = fit if len(fit) >= 2 else open_c
            pick = rng.choice(pool, size=2, replace=False)
            m1[v], m2[v] = int(pick[0]), int(pick[1])
            capacity[pick[0]] -= 1
            capacity[pick[1]] -= 1
        else:
            open_c = np.nonzero(capacity > 0)[0]
            if len(open_c) < 1:
                return None
            fit = open_c[size_arr[open_c] > need]
            pool = fit if len(fit) >= 1 else open_c
            c = int(rng.choice(pool))
            m1[v] = c
            capacity[c] -= 1
    return m1, m2
