"""Fixed-point search, the extraction loop, and result summaries."""

import hashlib
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from essc.bench import (
    BenchmarkSpec,
    gen_erdos_renyi,
    gen_single_embedded,
    generate,
    single_embedded_theta,
)
from essc.detect import (
    SEED_ALL_NEIGHBORHOODS,
    SEED_MAX_DEGREE,
    TERM_CYCLE,
    TERM_EMPTY,
    TERM_FIXED_POINT,
    TERM_ITERATION_CAP,
    DetectionResult,
    _closed_neighborhood,
    background_of,
    community_search,
    essc,
    read_communities,
    summarize,
    write_communities,
)
from essc.errors import DegenerateGraphError
from essc.graph import MultiGraph, write_edge_list
from essc.metrics import jaccard
from essc.significance import bh_select

import helpers
from helpers import essc_reference, random_multigraph, random_simple_gnp, two_cliques


def test_community_search_finds_clique():
    g = two_cliques(10)
    seed = frozenset({0}) | {int(v) for v in g.neighbors(0)}
    out = community_search(g, seed, 0.05)
    assert out.termination == TERM_FIXED_POINT
    assert out.community == frozenset(range(10))
    assert out.iterations <= 2
    assert out.trace[0] == len(seed)


def test_community_search_sheds_outsiders_to_fixed_point():
    g = two_cliques(10)
    out = community_search(g, frozenset(range(10)) | {12}, 0.05)
    assert out.termination == TERM_FIXED_POINT
    assert out.community == frozenset(range(10))
    assert bh_select(g, out.community, 0.05) == out.community


def test_community_search_rejects_bad_inputs():
    g = two_cliques(4)
    with pytest.raises(ValueError):
        community_search(g, set(), 0.05)
    with pytest.raises(DegenerateGraphError):
        community_search(MultiGraph.from_edges(3, []), {0}, 0.05)


def test_iteration_cap_retires_the_anchor(monkeypatch):
    # two 10-cliques joined by the edge (0, 10): the anchor 0's neighborhood
    # holds the outsider 10, so the first update moves (it drops 10)
    edges = [(i, j) for c in (0, 10) for i in range(c, c + 10) for j in range(i + 1, c + 10)]
    g = MultiGraph.from_edges(20, edges + [(0, 10)])
    monkeypatch.setattr("essc.detect.MAX_ITER", 1)
    monkeypatch.setattr(helpers, "MAX_ITER", 1)
    out = community_search(g, frozenset(range(11)), 0.05)
    assert out.termination == TERM_ITERATION_CAP
    assert out.iterations == 1 and out.trace == [11, 10]
    result = essc(g, 0.05)
    first = result.seed_log[0]
    assert first.anchor == 0 and first.termination == TERM_ITERATION_CAP
    assert first.forced_progress and not first.accepted
    assert result.communities == [frozenset(range(10)), frozenset(range(10, 20))]
    assert result == essc_reference(g, 0.05)


def _reference_cases():
    """About 100 small graphs with an alpha each: uniform multigraphs with
    loops and repeated edges, and planted Poisson blocks."""
    rng = np.random.default_rng(2013)
    for i in range(100):
        n = int(rng.integers(6, 60))
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.3, 0.6]))
        if i % 2:
            yield random_multigraph(rng, n, int(rng.integers(n, 4 * n))), alpha
            continue
        blocks = rng.integers(0, int(rng.integers(1, 5)), size=n)
        u, v = np.triu_indices(n, 1)
        same = blocks[u] == blocks[v]
        counts = rng.poisson(np.where(same, rng.uniform(0.3, 0.9), rng.uniform(0.01, 0.1)))
        edges = counts > 0
        yield MultiGraph.from_pair_arrays(n, u[edges], v[edges], counts[edges]), alpha


@pytest.mark.parametrize("strategy", [SEED_MAX_DEGREE, SEED_ALL_NEIGHBORHOODS])
def test_essc_matches_the_naive_reference(strategy, monkeypatch):
    searches = []

    def bounded_search(g, seed, alpha):
        # each round of extraction covers or retires a vertex, or ends it,
        # in at most two searches; a fault here would otherwise hang
        searches.append(seed)
        assert len(searches) <= 2 * g.n
        return community_search(g, seed, alpha)

    monkeypatch.setattr("essc.detect.community_search", bounded_search)
    reached = Counter()
    for g, alpha in _reference_cases():
        searches.clear()
        result = essc(g, alpha, strategy)
        assert result == essc_reference(g, alpha, strategy)
        for record in result.seed_log:
            reached[record.termination] += 1
            reached["forced_progress"] += record.forced_progress
            reached["fallback accepted" if record.accepted else "fallback"] += record.fallback
    # the graphs reach every path of the loop but the iteration cap, which
    # no graph this small was seen to reach in 100 updates; the test above
    # reaches it with the cap lowered
    assert reached[TERM_ITERATION_CAP] == 0
    assert reached[TERM_CYCLE] and reached[TERM_EMPTY] and reached[TERM_FIXED_POINT]
    if strategy == SEED_MAX_DEGREE:
        assert reached["forced_progress"] and reached["fallback"] and reached["fallback accepted"]


def test_community_search_usually_empty_on_noise():
    empties = 0
    for seed in range(30):
        g, _ = gen_erdos_renyi(200, 10, 60_000 + seed)
        anchor = int(np.argmax(g.degrees))
        seed_set = frozenset({anchor}) | {int(v) for v in g.neighbors(anchor)}
        out = community_search(g, seed_set, 0.05)
        empties += out.termination == TERM_EMPTY
    assert empties >= 28


def test_max_degree_seed_star():
    g = MultiGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    first = essc(g).seed_log[0]
    assert (first.anchor, first.seed_size) == (0, 5)


def test_max_degree_seed_tie_breaks_to_smallest_id():
    edges = [(2, 0), (2, 1), (2, 3), (5, 6), (5, 7), (5, 8)]
    g = MultiGraph.from_edges(10, edges)
    first = essc(g).seed_log[0]
    assert (first.anchor, first.seed_size) == (2, 4)


def test_closed_neighborhood_of_isolated_vertex():
    g = MultiGraph.from_edges(8, [(0, 1)])
    assert _closed_neighborhood(g, 7) == frozenset({7})


def test_essc_two_cliques():
    g = two_cliques(10)
    result = essc(g, alpha=0.05)
    assert [sorted(c) for c in result.communities] == [list(range(10)), list(range(10, 20))]
    assert result.background == frozenset()
    assert all(rec.accepted for rec in result.seed_log)


def test_essc_is_deterministic():
    g, _ = gen_single_embedded(300, 0.15, 10, 0.05, 99)
    a = essc(g, 0.05)
    b = essc(g, 0.05)
    assert a.communities == b.communities
    assert a.background == b.background
    assert a.seed_log == b.seed_log


def test_essc_validates_inputs():
    g = two_cliques(4)
    with pytest.raises(ValueError):
        essc(g, alpha=1.5)
    with pytest.raises(ValueError):
        essc(g, seed_strategy="bogus")
    with pytest.raises(DegenerateGraphError):
        essc(MultiGraph.from_edges(5, []))


def test_essc_recovers_planted_community():
    for seed in (40_000, 40_001, 40_002):
        g, truth = gen_single_embedded(500, 0.1, 10, 0.05, seed)
        result = essc(g, 0.05)
        assert len(result.communities) == 1
        assert jaccard(result.communities[0], truth.communities[0]) >= 0.95


def test_essc_background_consistency():
    g, _ = gen_single_embedded(500, 0.1, 10, 0.05, 40_003)
    result = essc(g, 0.05)
    assert result.communities
    assert background_of(g.n, result.communities) == result.background
    for c in result.communities:
        assert bh_select(g, c, result.alpha) == c


def test_essc_all_neighborhoods_superset_of_max_degree():
    # two equal cliques: both strategies find both communities
    g = two_cliques(9)
    md = essc(g, 0.05, seed_strategy="max_degree")
    an = essc(g, 0.05, seed_strategy="all_neighborhoods")
    assert set(md.communities) <= set(an.communities)
    assert set(an.communities) == {frozenset(range(9)), frozenset(range(9, 18))}

    # a denser structureless cluster holds the max degree, so max-degree
    # seeding stops empty while per-vertex seeding still finds the cliques
    rng = np.random.default_rng(41)
    noise = random_simple_gnp(rng, 60, 0.5)
    edges = list(noise.edge_classes())
    k = 8
    for base in (60, 60 + k):
        edges += [(i, j, 1) for i in range(base, base + k) for j in range(i + 1, base + k)]
    g2 = MultiGraph.from_edges(60 + 2 * k, edges)
    md2 = essc(g2, 0.05, seed_strategy="max_degree")
    an2 = essc(g2, 0.05, seed_strategy="all_neighborhoods")
    assert set(md2.communities) <= set(an2.communities)
    assert frozenset(range(60, 68)) in an2.communities
    assert frozenset(range(68, 76)) in an2.communities


def test_essc_fallback_recovers_block_after_empty_search():
    # the anchor lies in the planted block, but its closed neighborhood
    # dilutes the block so far that the first search empties out; the
    # rank-seeded retry from the same anchor recovers the block
    theta = single_embedded_theta(1000, 0.2, 10, 40)
    g, truth = gen_single_embedded(1000, 0.2, 10, theta, 51_000)
    result = essc(g, 0.05)
    first, retry = result.seed_log[:2]
    assert first.termination == TERM_EMPTY and not first.fallback
    assert retry.fallback and retry.accepted and retry.anchor == first.anchor
    assert retry.termination == TERM_FIXED_POINT
    assert jaccard(result.communities[0], truth.communities[0]) >= 0.95
    # extraction stops at the first empty search whose retry finds nothing new
    last = result.seed_log[-1]
    assert last.fallback and not last.accepted
    assert result.seed_log[-2].termination == TERM_EMPTY


_LFR = dict(n=1000, dbar=40, tau1=2.0, tau2=1.0, s1=20, s2=100, rng_seed=7)

# sha256 of (write_communities text, repr(seed_log), write_edge_list text)
# for each run; any change to the generated graph, its serialization, the
# order of the communities, their members or the seed log shows here
_GOLDEN = [
    (BenchmarkSpec(kind="lfr", mu=0.3, rho=0.0, **_LFR), "max_degree",
     "01ec27a945ca1c60f82876b3cdf79f39193d625cf7943edab64559632bd20f6b",
     "6a35eb7514b627aff58459e2058f0ba018ba2e4f586a3444416694e79698f48d",
     "028c0bc08d090e29aad2d552de7753f406e7a31a94ce7e316f1d709a68485f1a"),
    (BenchmarkSpec(kind="lfr", mu=0.3, rho=0.0, **_LFR), "all_neighborhoods",
     "81a5e695610b65ff22e6d5b834d991136dfb93f06c82777764e7470a1bb58c67",
     "fdfc8cb7b26fe66f7549d46adbfbbb676075c2033fcec1e12caca7d9665a1df1",
     "028c0bc08d090e29aad2d552de7753f406e7a31a94ce7e316f1d709a68485f1a"),
    (BenchmarkSpec(kind="lfr_bg", mu=0.1, pi=0.5, **_LFR), "max_degree",
     "e97b7de9ac276648f3cf821c33d92143e1e1bafef8d48ffb69d4c1ebf81540c0",
     "ccad01addc1d84b0d1bee64294a9f7be2a6ad2189716a33b525f26d233500af9",
     "33fb8b2db61ea29bfc8ec0fc5305000fee2b195d3bfae3d7c22f4da804bc65f3"),
    # a c3 graph whose first search empties out and whose retry is accepted
    (BenchmarkSpec(kind="sbm_single", n=1000, pi=0.04, kappa=10,
                   theta=single_embedded_theta(1000, 0.04, 10, 40), rng_seed=43_001),
     "max_degree",
     "342327115b24f3541a9fca7725f95f00cc0a479da60875460ba058f7b751fecf",
     "abb19164fe1faaca28ff139928578ca5829fe2a626da8246d4fa3d14d84872ca",
     "50a22493455bc0e19b6b4dfcc8b4aef00f2532be1c9eb4e35d0a073a812d155b"),
    # one fixed point that is accepted but covers nothing new (so forced),
    # 8 forced cycles, and a fallback rejected at a fixed point
    (BenchmarkSpec(kind="lfr", mu=0.6, rho=0.0, **{**_LFR, "rng_seed": 0}), "max_degree",
     "24ced784399666b673e91118963389cd5e0a5267a403d47763caa5613c7c3e97",
     "e7d67d7b0927aa4e733dd9c8012af9d6ae05f1ca7edc922130dee8afe682dcf3",
     "9855598f956c104f5f7bea9f35ea6182125b6754c5ba319bdde1f1451f516757"),
    # 57 forced cycles and a fallback that ends in a cycle
    (BenchmarkSpec(kind="lfr", mu=0.6, rho=0.0, **{**_LFR, "rng_seed": 4}), "max_degree",
     "8cf41c27a1f16a68c286bd00da8734aa40040dc7d04ff2ce41fa9b96b633b62b",
     "e12f696665232170ef3152ea413ffa48714b4c02b85438b785e89b37ab04bc5f",
     "686a1cbaaba39e43c2f512980264497412756c804eb74c715999e111fe48252c"),
]


@pytest.mark.parametrize("spec, strategy, communities_sha, seed_log_sha, edges_sha", _GOLDEN)
def test_essc_output_is_pinned(spec, strategy, communities_sha, seed_log_sha, edges_sha):
    g, _ = generate(spec)
    assert hashlib.sha256(write_edge_list(g).encode()).hexdigest() == edges_sha
    result = essc(g, 0.05, seed_strategy=strategy)
    text = write_communities(result.communities, result.background)
    assert hashlib.sha256(text.encode()).hexdigest() == communities_sha
    assert hashlib.sha256(repr(result.seed_log).encode()).hexdigest() == seed_log_sha
    if spec.kind == "sbm_single":
        assert any(rec.fallback and rec.accepted for rec in result.seed_log)


@lru_cache(maxsize=None)
def _flutter_graph(rng_seed):
    return generate(BenchmarkSpec(kind="lfr", mu=0.5, rho=0.0, **{**_LFR, "rng_seed": rng_seed}))[0]


def _members(c):
    # a small set spelled out, a large one by the sha256 of its sorted ids
    ids = sorted(c)
    return tuple(ids) if len(ids) <= 10 else hashlib.sha256(" ".join(map(str, ids)).encode()).hexdigest()


# searches from one anchor's closed neighborhood on mu=0.5 LFR graphs, where
# threshold flutter traps the orbit in short cycles: (graph seed, anchor,
# termination, iterations, returned set, trace)
_FLUTTER = [
    # {341} <-> {91}; the intersection is empty and the union {91, 341} maps
    # back to {341}, so the pick breaks the size tie toward the smaller ids
    (0, 111, TERM_CYCLE, 5, (91,), [16, 2, 1, 1, 2, 1]),
    # {944} <-> {103}; the union escape empties out
    (0, 449, TERM_EMPTY, 5, (), [17, 2, 1, 1, 2, 0]),
    # {226} <-> {719, 721}; the union maps back to {226}, the smaller set
    (4, 879, TERM_CYCLE, 5, (226,), [16, 2, 1, 2, 3, 1]),
    # a cycle entered after four shrinking steps: {556} <-> {798}
    (4, 972, TERM_CYCLE, 7, (556,), [17, 5, 3, 4, 2, 1, 1, 1]),
    # escapes that lead on to a community
    (0, 146, TERM_FIXED_POINT, 10,
     "d1b806c77be57386d4b5de20a563371cfd50b26551e5f9a69e8d6952fae7f89d",
     [16, 2, 3, 2, 5, 20, 57, 83, 87, 88, 88]),
    (4, 565, TERM_FIXED_POINT, 14,
     "8efc946c2a7c2cde7861a30a7219048df1d3a31b3db24078eaec7b3d23e4d0c7",
     [18, 4, 4, 3, 3, 4, 7, 13, 31, 64, 90, 93, 93, 92, 92]),
    # four escapes in one search
    (4, 993, TERM_FIXED_POINT, 19,
     "afb8d549b39cbca2463b5fb42490e956161bcbd65e428ef63383b09b9543346a",
     [19, 2, 3, 4, 1, 3, 4, 3, 4, 2, 1, 6, 8, 16, 35, 70, 89, 94, 95, 95]),
]


@pytest.mark.parametrize("rng_seed, anchor, termination, iterations, members, trace", _FLUTTER)
def test_cycle_escapes_and_pick_are_pinned(rng_seed, anchor, termination, iterations, members, trace):
    g = _flutter_graph(rng_seed)
    out = community_search(g, _closed_neighborhood(g, anchor), 0.05)
    assert (out.termination, out.iterations, out.trace) == (termination, iterations, trace)
    assert _members(out.community) == members


def test_essc_extraction_count_is_bounded():
    # every extraction covers or retires at least one vertex
    for seed in (40_000, 40_001):
        g, _ = gen_single_embedded(500, 0.1, 10, 0.05, seed)
        result = essc(g, 0.05)
        assert len(result.seed_log) <= g.n


def test_background_of_examples():
    assert background_of(5, [{0, 1}, {1, 2}]) == frozenset({3, 4})
    assert background_of(5, []) == frozenset(range(5))
    assert background_of(5, [{0, 1, 2, 3, 4}]) == frozenset()
    with pytest.raises(ValueError):
        background_of(3, [{5}])


def test_summarize_two_cliques():
    g = two_cliques(10)
    stats = summarize(g, essc(g, 0.05))
    assert stats.community_count == 2
    assert stats.mean_size == 10.0
    assert stats.size_stddev == 0.0
    assert stats.mean_membership == 1.0
    assert stats.mean_degree_community == 9.0
    assert stats.mean_degree_background is None
    assert stats.background_proportion == 0.0


def test_summarize_empty_result():
    g, _ = gen_erdos_renyi(100, 5, 1)
    result = DetectionResult(communities=[], background=frozenset(range(100)), alpha=0.05)
    stats = summarize(g, result)
    assert stats.community_count == 0
    assert stats.mean_size is None
    assert stats.mean_degree_community is None
    assert stats.background_proportion == 1.0


def test_summarize_overlapping_membership():
    g = MultiGraph.from_edges(20, [(i, i + 1) for i in range(19)])
    result = DetectionResult(
        communities=[frozenset(range(10)), frozenset(range(5, 15))],
        background=frozenset(range(15, 20)),
        alpha=0.05,
    )
    stats = summarize(g, result)
    assert stats.mean_membership == pytest.approx(20 / 15)
    assert stats.background_proportion == pytest.approx(0.25)


def test_community_file_round_trip():
    text = write_communities([{2, 0}, {1}], {3, 4}, labels=["a", "b", "c", "d", "e"])
    assert text == "a c\nb\nbackground: d e\n"
    comms, bg = read_communities(text)
    assert comms == [["a", "c"], ["b"]]
    assert bg == ["d", "e"]


def test_community_file_empty_background():
    text = write_communities([{0}], set())
    assert text.endswith("background:\n")
    comms, bg = read_communities(text)
    assert comms == [["0"]] and bg == []
    with pytest.raises(ValueError):
        read_communities("0 1\n")


@pytest.mark.parametrize("text,message", [
    pytest.param("0 1\nbackground: 2\n3 4\nbackground: 5\n", "more than one", id="background-not-last"),
    pytest.param("0 1 1\nbackground: 1 2 3\n", "'1' is both", id="label-in-both"),
    pytest.param("0 1 0\nbackground: 2\n", "'0' is repeated", id="repeat-in-community"),
    pytest.param("0 1\nbackground: 2 3 2\n", "'2' is repeated", id="repeat-in-background"),
])
def test_read_communities_rejects_malformed_files(text, message):
    with pytest.raises(ValueError, match=message):
        read_communities(text)


def test_read_communities_keeps_a_label_in_two_communities():
    assert read_communities("0 1\n1 2\nbackground: 3\n") == ([["0", "1"], ["1", "2"]], ["3"])


@pytest.mark.parametrize("text,want", [
    # U+2028 is a line boundary to `str.splitlines` but not in this format
    pytest.param("0 1\u20282\nbackground: 3\n", ([["0", "1", "2"]], ["3"]), id="line-separator"),
    pytest.param("0 1\r\nbackground: 3\r\n", ([["0", "1"]], ["3"]), id="crlf"),
])
def test_read_communities_ends_lines_at_newline_only(text, want):
    assert read_communities(text) == want
