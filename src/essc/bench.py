"""Random-graph benchmark generators with planted ground truth.

Families provided:

- ``er``: Erdos-Renyi G(n, p) with p chosen for a target mean degree;
  truth is all background.
- ``config``: uniform stub pairing against a fixed degree sequence
  (power-law sampled for the CLI); truth is all background.
- ``sbm_single``: a two-block model with one denser block planted in a
  uniform background.
- ``lfr``: power-law degrees and community sizes with a per-vertex
  internal/external degree split, wired by stub matching.
- ``lfr_bg``: the ``lfr`` construction on a random pi-fraction of the
  vertices, plus background vertices connected uniformly to everyone.

All generators are deterministic given their seed; one generator call
consumes a single RNG stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import GenerationError, ParameterError
from .graph import MultiGraph, VertexSet, _int_array

# the fields each benchmark kind requires besides n; a spec leaves every
# other field but rng_seed unset
FIELDS = {
    "er": ("dbar",),
    "config": ("dbar", "tau1"),
    "sbm_single": ("pi", "kappa", "theta"),
    "lfr": ("dbar", "tau1", "tau2", "mu", "s1", "s2", "rho"),
    "lfr_bg": ("dbar", "tau1", "tau2", "mu", "s1", "s2", "pi"),
}

_REWIRE_PASSES = 100
_SELF_PAIR_PASSES = 20
_ASSIGN_ATTEMPTS = 100
_SKIP_BLOCK = 1 << 16  # most skips drawn at once, to bound the block's memory


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parameter bundle for one benchmark family.

    Fields must be set exactly when `FIELDS` lists them for `kind`, and
    `n`, `s1` and `s2` must be integers (a float raises TypeError);
    `validate` enforces that.
    """

    kind: str
    n: int
    dbar: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    mu: float | None = None
    s1: int | None = None
    s2: int | None = None
    rho: float | None = None
    pi: float | None = None
    kappa: float | None = None
    theta: float | None = None
    rng_seed: int | None = None

    def validate(self) -> None:
        if self.kind not in FIELDS:
            raise ParameterError(f"unknown benchmark kind {self.kind!r}")
        if operator.index(self.n) < 0:
            raise ParameterError("n must be >= 0")
        required = FIELDS[self.kind]
        for name in ("dbar", "tau1", "tau2", "mu", "s1", "s2", "rho", "pi", "kappa", "theta"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ParameterError(f"{self.kind} spec requires {name}")
            if name not in required and value is not None:
                raise ParameterError(f"{name} is not a parameter of kind {self.kind}")
            if value is not None:
                _require_finite(**{name: value})
        if self.pi is not None and not 0.0 < self.pi < 1.0:
            raise ParameterError("pi must lie in (0, 1)")
        if self.mu is not None and not 0.0 < self.mu < 1.0:
            raise ParameterError("mu must lie in (0, 1)")
        if self.rho is not None and not 0.0 <= self.rho < 1.0:
            raise ParameterError("rho must lie in [0, 1)")
        if self.s1 is not None and not 1 <= operator.index(self.s1) <= operator.index(self.s2):
            raise ParameterError("community size range requires 1 <= s1 <= s2")


@dataclass(frozen=True)
class GroundTruth:
    """Planted communities plus the vertices left outside all of them."""

    communities: list[VertexSet]
    background: VertexSet


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _unrank_pairs(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i, j), i < j < n."""
    # the discriminant is exact in int64 up to n of about 1.5e9; its float
    # root can land one row too far (seen at row ends from n = 2e8), and one
    # correction step each way repairs a miss of one row in either direction
    # (exact at row boundaries checked up to n = 1e9)
    disc = (2 * n - 1) ** 2 - 8 * t
    i = ((2 * n - 1 - np.sqrt(disc)) // 2).astype(np.int64)
    i += (i + 1) * (2 * n - i - 2) // 2 <= t
    i -= i * (2 * n - i - 1) // 2 > t
    return i, t - i * (2 * n - i - 1) // 2 + i + 1


def _bernoulli_indices(space: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of successes among `space` independent Bernoulli(p) slots.

    One ``rng.random()`` draw per success plus one that overshoots, each
    turned into a geometric skip. The draws come in blocks; the generator
    is then reset and advanced by exactly the draws used, so the indices
    and the stream match drawing them one at a time.
    """
    if space <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(space, dtype=np.int64)
    logq = math.log1p(-p)
    found = []
    t = -1
    while True:
        expect = (space - 1 - t) * p
        k = min(int(expect + 4.0 * math.sqrt(expect)) + 16, _SKIP_BLOCK)
        state = rng.bit_generator.state
        u = rng.random(k)
        # math.log1p per draw: numpy's vectorised log1p may differ in the last bit
        skip = np.fromiter(map(math.log1p, (-u).tolist()), np.float64, k) / logq
        # a skip that reaches `space` ends the loop wherever it lands, so
        # clamping it at 2 * space (past `space` even after float rounding)
        # keeps the int64 cast and the sum up to the first overshoot in range
        pos = t + np.cumsum(1 + np.minimum(skip, 2.0 * space).astype(np.int64))
        past = pos >= space
        if past.any():
            j = int(past.argmax())
            found.append(pos[:j])
            rng.bit_generator.state = state
            rng.random(j + 1)
            return np.concatenate(found)
        found.append(pos)
        t = int(pos[-1])


def _bernoulli_pairs(
    a: np.ndarray, b: np.ndarray | None, p: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the pairs kept, each independently with probability p.

    The pairs are those within `a` when `b` is None, else those across
    `a` x `b`.
    """
    if b is None:
        i, j = _unrank_pairs(_bernoulli_indices(len(a) * (len(a) - 1) // 2, p, rng), len(a))
        return a[i], a[j]
    t = _bernoulli_indices(len(a) * len(b), p, rng)
    return a[t // len(b)], b[t % len(b)]


def _from_parts(n: int, parts: Iterable[tuple[np.ndarray, np.ndarray]]) -> MultiGraph:
    us, vs = zip(*parts)
    return MultiGraph.from_pair_arrays(n, np.concatenate(us), np.concatenate(vs))


def gen_erdos_renyi(n: int, dbar: float, rng_seed=None) -> tuple[MultiGraph, GroundTruth]:
    """Erdos-Renyi graph where each pair is linked with probability dbar/(n-1).

    Ground truth: no communities, every vertex background.
    """
    n = operator.index(n)
    _require_finite(dbar=dbar)
    if n < 0:
        raise ParameterError("n must be >= 0")
    if dbar < 0:
        raise ParameterError("dbar must be >= 0")
    if n > 1 and dbar > n - 1:
        raise ParameterError(f"dbar={dbar} exceeds n-1={n - 1}")
    rng = _rng(rng_seed)
    p = dbar / (n - 1) if n > 1 else 0.0
    g = MultiGraph.from_pair_arrays(n, *_bernoulli_pairs(np.arange(n), None, p, rng))
    return g, GroundTruth(communities=[], background=frozenset(range(n)))


def _degree_sequence(degrees) -> np.ndarray:
    """`degrees` as an int64 array, checked as a degree sequence: integers
    (a float raises TypeError), none negative, with an even sum."""
    degrees = _int_array(degrees, "degrees")
    if degrees.size and degrees.min() < 0:
        raise ParameterError("degrees must be >= 0")
    if int(degrees.sum()) % 2 != 0:
        raise ParameterError("degree sum must be even")
    return degrees


def pair_stubs(degrees: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform stub pairing: the sampling core of `gen_configuration`.

    Returns endpoint arrays of the matched edges; self-loops and
    multi-edges are kept. A negative degree or an odd degree sum raises
    ParameterError.
    """
    degrees = _degree_sequence(degrees)
    return _pair_up(np.repeat(np.arange(len(degrees), dtype=np.int64), degrees), rng)


def _pair_up(owners: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uniform perfect matching of an even number of stubs, given as the
    owner of each stub."""
    perm = rng.permutation(owners)
    return perm[0::2], perm[1::2]


def gen_configuration(degrees: Sequence[int] | np.ndarray, rng_seed=None) -> MultiGraph:
    """Uniform random multigraph with exactly the given degree sequence."""
    a, b = pair_stubs(degrees, _rng(rng_seed))
    return MultiGraph.from_pair_arrays(len(degrees), a, b)


def _powerlaw_mean_table(tau: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    # suffix sums give the truncated-distribution mean for every d_min at once;
    # a weight that underflows to 0 leaves 0 / 0, a NaN mean, for the d_min
    # above it
    support = np.arange(1, d_max + 1, dtype=np.float64)
    w = support ** (-float(tau))
    sw = np.cumsum(w[::-1])[::-1]
    sdw = np.cumsum((support * w)[::-1])[::-1]
    with np.errstate(invalid="ignore"):
        return support, sdw / sw


def sample_powerlaw_degrees(
    n: int, tau: float, dbar: float, rng_seed=None, d_max: int | None = None
) -> np.ndarray:
    """Degree sequence from a truncated discrete power law P(d) ~ d^-tau.

    The support is [d_min, d_max] with d_max defaulting to
    min(n - 1, 10 * dbar); the lower cutoff d_min is chosen so the
    distribution mean is as close as possible to dbar. An odd total is
    fixed by incrementing the smallest-degree vertex.
    """
    n = operator.index(n)
    _require_finite(tau=tau, dbar=dbar)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if tau <= 1.0:
        raise ParameterError("tau must be > 1")
    if dbar < 1.0:
        raise ParameterError("dbar must be >= 1")
    if d_max is None:
        d_max = min(n - 1, int(round(10 * dbar)))
    else:
        d_max = min(n - 1, operator.index(d_max))
    if d_max < 1:
        raise ParameterError(f"no feasible degree support for n={n}, dbar={dbar}")
    support, means = _powerlaw_mean_table(tau, d_max)
    if not np.isfinite(means).all():
        raise ParameterError(f"tau={tau} underflows the degree weights on [1, {d_max}]")
    if dbar > d_max or dbar < means[0] - 0.5:
        raise ParameterError(
            f"mean degree {dbar} unreachable on support [1, {d_max}] with tau={tau}"
        )
    d_min = int(np.argmin(np.abs(means - dbar))) + 1
    rng = _rng(rng_seed)
    sub = np.arange(d_min, d_max + 1, dtype=np.int64)
    w = sub.astype(np.float64) ** (-float(tau))
    degrees = rng.choice(sub, size=n, p=w / w.sum())
    if int(degrees.sum()) % 2 != 0:
        degrees[int(np.argmin(degrees))] += 1
    return degrees.astype(np.int64)


def single_embedded_theta(n: int, pi: float, kappa: float, dbar: float) -> float:
    """Base edge probability theta giving expected mean degree dbar."""
    if operator.index(n) < 2:
        raise ParameterError("n must be >= 2")
    return dbar / ((n - 1) * (1.0 + (kappa - 1.0) * pi * pi))


def gen_single_embedded(
    n: int, pi: float, kappa: float, theta: float, rng_seed=None
) -> tuple[MultiGraph, GroundTruth]:
    """Two-block model with one embedded community in a uniform background.

    Vertices land in the community block with probability pi; pairs
    inside it are linked with probability theta * kappa and every other
    pair with probability theta. Ground truth: the community block,
    background the rest.
    """
    n = operator.index(n)
    _require_finite(pi=pi, kappa=kappa, theta=theta)
    if not 0.0 < pi < 1.0:
        raise ParameterError("pi must lie in (0, 1)")
    if kappa < 1.0:
        # kappa = 1 is admitted as the degenerate uniform (no-contrast) case
        raise ParameterError("kappa must be >= 1")
    if theta <= 0.0 or theta * kappa > 1.0:
        raise ParameterError("theta must satisfy 0 < theta * kappa <= 1")
    rng = _rng(rng_seed)
    in_comm = rng.random(n) < pi
    c1 = np.nonzero(in_comm)[0]
    c2 = np.nonzero(~in_comm)[0]
    g = _from_parts(n, [
        _bernoulli_pairs(c1, None, theta * kappa, rng),
        _bernoulli_pairs(c1, c2, theta, rng),
        _bernoulli_pairs(c2, None, theta, rng),
    ])
    return g, GroundTruth(communities=[frozenset(c1.tolist())], background=frozenset(c2.tolist()))


def _sample_community_sizes(slots: int, tau2: float, s1: int, s2: int, rng) -> list[int]:
    """Power-law community sizes covering exactly `slots` membership seats."""
    support = np.arange(s1, s2 + 1, dtype=np.int64)
    w = support.astype(np.float64) ** (-float(tau2))
    total_w = w.sum()
    if not 0.0 < total_w < math.inf:
        raise ParameterError(f"tau2={tau2} leaves no usable size weights on [{s1}, {s2}]")
    w /= total_w
    # the cdf and the one uniform draw of Generator.choice(support, p=w)
    cdf = w.cumsum()
    cdf /= cdf[-1]
    sizes: list[int] = []
    total = 0
    while total < slots:
        s = int(support[cdf.searchsorted(rng.random(), side="right")])
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


def _assign_memberships(
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
    size_arr = np.array(sizes, dtype=np.int64)
    capacity = list(sizes)
    open_c = np.flatnonzero(size_arr > 0)
    # need -> the communities a single member draws from; stale once one fills
    pools: dict[int, np.ndarray] = {}
    need = internal.tolist()
    m1 = [-1] * n
    m2 = [-1] * n

    is_double = np.zeros(n, dtype=bool)
    is_double[doubles] = True
    first = rng.permutation(doubles).tolist()
    rest = rng.permutation(np.nonzero(~is_double)[0]).tolist()

    def seat(c: int) -> None:
        nonlocal open_c
        capacity[c] -= 1
        if capacity[c] == 0:
            open_c = open_c[open_c != c]
            pools.clear()

    for v in first:
        if len(open_c) < 2:
            return None
        half = need[v] - need[v] // 2
        fit = open_c[size_arr[open_c] > half]
        pick = rng.choice(fit if len(fit) >= 2 else open_c, size=2, replace=False)
        m1[v], m2[v] = int(pick[0]), int(pick[1])
        seat(m1[v])
        seat(m2[v])
    for v in rest:
        if len(open_c) < 1:
            return None
        pool = pools.get(need[v])
        if pool is None:
            fit = open_c[size_arr[open_c] > need[v]]
            pool = pools[need[v]] = fit if len(fit) >= 1 else open_c
        # the one draw Generator.choice(pool) makes
        m1[v] = int(pool[rng.integers(0, len(pool))])
        seat(m1[v])
    return np.array(m1, dtype=np.int64), np.array(m2, dtype=np.int64)


def _rewire(a: np.ndarray, b: np.ndarray, collides, passes: int, rng) -> int:
    """Swap the `b` ends of colliding pairs with random partners, in place.

    Runs at most `passes` passes and returns the number of pairs for
    which ``collides(a, b)`` still holds.
    """
    for _ in range(passes):
        bad = np.flatnonzero(collides(a, b))
        if bad.size == 0:
            return 0
        partners = rng.integers(0, len(a), size=bad.size)
        for i, j in zip(bad, partners):
            b[i], b[j] = b[j], b[i]
    return int(collides(a, b).sum())


def _lfr_edges(spec: BenchmarkSpec, rng) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Endpoint arrays of an ``lfr`` graph and its communities' members."""
    n = spec.n
    # upper degree limit: internal degrees must stay hostable by the largest
    # community, else no community-sized wiring exists; the lower limit then
    # follows from the mean constraint
    fit_cap = int((spec.s2 - 1) / (1.0 - spec.mu))
    degrees = sample_powerlaw_degrees(n, spec.tau1, spec.dbar, rng, d_max=fit_cap)
    internal = np.rint((1.0 - spec.mu) * degrees).astype(np.int64)
    n_double = int(round(spec.rho * n))
    doubles = np.sort(rng.choice(n, size=n_double, replace=False)) if n_double else \
        np.zeros(0, dtype=np.int64)
    slots = n + n_double
    sizes = _sample_community_sizes(slots, spec.tau2, spec.s1, spec.s2, rng)

    assignment = None
    for _ in range(_ASSIGN_ATTEMPTS):
        assignment = _assign_memberships(sizes, internal, doubles, rng)
        if assignment is not None:
            break
    if assignment is None:
        raise GenerationError(
            f"could not assign {n} vertices to {len(sizes)} communities in "
            f"{_ASSIGN_ATTEMPTS} attempts"
        )
    m1, m2 = assignment

    # one seat per (vertex, community), grouped by community with members
    # ascending; a doubly-assigned vertex splits its internal degree
    double = m2 >= 0
    half = internal // 2
    comm = np.concatenate([m1, m2[double]])
    vert = np.concatenate([np.arange(n), np.flatnonzero(double)])
    share = np.concatenate([np.where(double, internal - half, internal), half[double]])
    order = np.lexsort((vert, comm))
    vert, share = vert[order], share[order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(comm, minlength=len(sizes)))])
    members = [vert[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    shares = [share[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    external = degrees - internal
    edges = []
    for who, seats in zip(members, shares):
        if seats.sum() % 2 == 1:
            # move one stub of the largest share (smallest id on ties) to the
            # external pool to make the count even
            j = int(np.argmax(seats))
            seats[j] -= 1
            external[who[j]] += 1
        a, b = _pair_up(np.repeat(who, seats), rng)
        _rewire(a, b, np.equal, _SELF_PAIR_PASSES, rng)  # loops left over are legal
        edges.append((a, b))

    def within_community(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        bad = a == b
        bad |= m1[a] == m1[b]
        bad |= (m2[b] >= 0) & (m1[a] == m2[b])
        bad |= (m2[a] >= 0) & (m2[a] == m1[b])
        bad |= (m2[a] >= 0) & (m2[a] == m2[b])
        return bad

    a, b = _pair_up(np.repeat(np.arange(n, dtype=np.int64), external), rng)
    remaining = _rewire(a, b, within_community, _REWIRE_PASSES, rng)
    if remaining:
        raise GenerationError(
            f"external wiring kept {remaining} within-community pairs after "
            f"{_REWIRE_PASSES} rewiring passes ({len(a)} edges total)"
        )
    edges.append((a, b))
    us, vs = zip(*edges)
    return np.concatenate(us), np.concatenate(vs), members


def gen_lfr(spec: BenchmarkSpec) -> tuple[MultiGraph, GroundTruth]:
    """Power-law benchmark graph with planted communities.

    Construction: sample degrees (exponent tau1, mean dbar) and community
    sizes (exponent tau2 on [s1, s2]); assign vertices to communities,
    with a rho fraction belonging to exactly two; split each vertex's
    degree into an internal share (1 - mu) and external share mu, the
    external share counted outside all of the vertex's communities; wire
    internal stubs within each community and external stubs globally,
    rejecting external pairs that land inside a community.
    """
    spec.validate()
    if spec.kind != "lfr":
        raise ParameterError(f"expected an lfr spec, got kind {spec.kind!r}")
    rng = _rng(spec.rng_seed)
    us, vs, members = _lfr_edges(spec, rng)
    g = MultiGraph.from_pair_arrays(spec.n, us, vs)
    return g, GroundTruth(
        communities=[frozenset(m.tolist()) for m in members], background=frozenset()
    )


def gen_lfr_background(spec: BenchmarkSpec) -> tuple[MultiGraph, GroundTruth]:
    """Planted communities on a pi-fraction of vertices, background elsewhere.

    Community-block vertices are wired by the ``lfr`` construction with
    size and mean degree scaled by pi; every background vertex connects
    to every other vertex independently with probability dbar / n, so the
    whole network keeps mean degree dbar.
    """
    spec.validate()
    if spec.kind != "lfr_bg":
        raise ParameterError(f"expected an lfr_bg spec, got kind {spec.kind!r}")
    rng = _rng(spec.rng_seed)
    n = spec.n
    p2 = spec.dbar / n if n else 0.0
    if p2 > 1.0:
        raise ParameterError("dbar must not exceed n")

    in_block = rng.random(n) < spec.pi
    c1 = np.flatnonzero(in_block)
    c2 = np.flatnonzero(~in_block)

    parts = []
    communities: list[VertexSet] = []
    if len(c1):
        if len(c1) < spec.s1:
            raise GenerationError(
                f"community block has {len(c1)} vertices, fewer than s1={spec.s1}"
            )
        sub = replace(
            spec,
            kind="lfr",
            n=int(len(c1)),
            dbar=spec.dbar * spec.pi,
            rho=0.0,
            pi=None,
            rng_seed=None,
        )
        sub_u, sub_v, members = _lfr_edges(sub, rng)
        parts.append((c1[sub_u], c1[sub_v]))
        communities = [frozenset(c1[m].tolist()) for m in members]
    parts.append(_bernoulli_pairs(c2, None, p2, rng))
    parts.append(_bernoulli_pairs(c2, c1, p2, rng))
    g = _from_parts(n, parts)
    return g, GroundTruth(communities=communities, background=frozenset(c2.tolist()))


def generate(spec: BenchmarkSpec) -> tuple[MultiGraph, GroundTruth]:
    """Dispatch a spec to its generator."""
    spec.validate()
    if spec.kind == "er":
        return gen_erdos_renyi(spec.n, spec.dbar, spec.rng_seed)
    if spec.kind == "config":
        rng = _rng(spec.rng_seed)
        degrees = sample_powerlaw_degrees(spec.n, spec.tau1, spec.dbar, rng)
        g = gen_configuration(degrees, rng)
        return g, GroundTruth(communities=[], background=frozenset(range(spec.n)))
    if spec.kind == "sbm_single":
        return gen_single_embedded(spec.n, spec.pi, spec.kappa, spec.theta, spec.rng_seed)
    if spec.kind == "lfr":
        return gen_lfr(spec)
    return gen_lfr_background(spec)
