"""Block probabilities, binomial tails, and FDR selection."""

import tracemalloc
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import binom

from essc.errors import DegenerateGraphError
from essc.graph import MultiGraph
from essc.significance import (
    _binomial_survival_batch,
    _may_pass,
    _ranked,
    bh_select,
    binomial_survival,
    block_probability,
    connection_pvalue,
    pvalue_table,
    select_by_fdr,
    select_by_rank,
)

from helpers import (
    bh_bruteforce,
    random_multigraph,
    random_simple_gnp,
    survival_exact,
    triangle,
    two_cliques,
)


def test_block_probability_examples():
    g = triangle()
    assert block_probability(g, {0, 1, 2}) == 1.0
    assert block_probability(g, {0}) == pytest.approx(1 / 3)
    assert block_probability(g, set()) == 0.0


def test_block_probability_rejects_edgeless():
    g = MultiGraph.from_edges(4, [])
    with pytest.raises(DegenerateGraphError):
        block_probability(g, {0})


def test_binomial_survival_trivial_cases():
    assert binomial_survival(17, 0.3, 0) == 1.0
    assert binomial_survival(5, 0.5, 6) == 0.0
    assert binomial_survival(5, 0.5, 4) == pytest.approx(6 / 32, abs=1e-15)
    assert binomial_survival(0, 0.9, 0) == 1.0
    assert binomial_survival(10, 0.0, 1) == 0.0
    assert binomial_survival(10, 1.0, 10) == 1.0


def test_binomial_survival_domain_errors():
    with pytest.raises(ValueError):
        binomial_survival(5, 1.5, 2)
    with pytest.raises(ValueError):
        binomial_survival(-1, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_survival(5, 0.5, -2)


_P_GRID = [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]


def test_binomial_survival_matches_exact_small_k():
    for k in range(0, 31):
        for p in _P_GRID:
            for x in range(0, k + 2):
                exact = float(survival_exact(k, p, x))
                assert abs(binomial_survival(k, p, x) - exact) <= 1e-12


def test_binomial_survival_batch_matches_exact():
    rng = np.random.default_rng(5)
    ks = rng.integers(0, 400, size=200)
    for p in (0.02, 0.3, 0.77):
        xs = np.minimum(rng.integers(0, 401, size=200), ks + 1)
        got = _binomial_survival_batch(ks, p, xs)
        for k, x, val in zip(ks, xs, got):
            exact = float(survival_exact(int(k), p, int(x)))
            assert abs(val - exact) <= 1e-12


def test_survival_exact_equals_rational_term_sum():
    for k, p, x in ((0, 0.3, 0), (7, 0.1, 3), (30, 0.999, 29), (45, 0.77, 12), (120, 0.02, 5)):
        pf = Fraction(p)
        direct = sum(
            (comb(k, j) * pf ** j * (1 - pf) ** (k - j) for j in range(x, k + 1)),
            start=Fraction(0),
        )
        assert survival_exact(k, p, x) == direct


def test_binomial_survival_monotone_in_threshold():
    for k, p in ((12, 0.25), (200, 0.6), (3000, 0.01)):
        values = [binomial_survival(k, p, x) for x in range(0, k + 2, max(1, k // 50))]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_binomial_survival_complements_cdf():
    rng = np.random.default_rng(9)
    for _ in range(60):
        k = int(rng.integers(0, 2000))
        p = float(rng.random())
        x = int(rng.integers(0, k + 2))
        total = binomial_survival(k, p, x) + float(binom.cdf(x - 1, k, p))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_connection_pvalue_two_cliques():
    g = two_cliques(10)
    clique_a = frozenset(range(10))
    assert connection_pvalue(g, 0, clique_a) == pytest.approx(1 / 512, abs=1e-15)
    assert connection_pvalue(g, 15, clique_a) == 1.0


def test_connection_pvalue_isolated_vertex():
    g = MultiGraph.from_edges(4, [(0, 1), (1, 2)])
    assert connection_pvalue(g, 3, {0, 1}) == 1.0


def test_connection_pvalue_is_the_table_entry():
    # loops and multi-edges included; the explanation of one vertex must
    # agree exactly with the p-value the selection step ranks it by
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = random_multigraph(rng, n, int(rng.integers(1, 4 * n)))
        members = {int(v) for v in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
        table = pvalue_table(g, members).pvalues
        for u in range(n):
            assert connection_pvalue(g, u, members) == table[u]
        vertices, ranked = _ranked(g, members)
        assert np.array_equal(table[vertices], ranked)
        assert np.all(np.delete(table, vertices) == 1.0)


def test_edgeless_graph_rejected_everywhere():
    g = MultiGraph.from_edges(3, [])
    with pytest.raises(DegenerateGraphError):
        connection_pvalue(g, 0, {1})
    with pytest.raises(DegenerateGraphError):
        pvalue_table(g, {1})
    with pytest.raises(DegenerateGraphError):
        bh_select(g, {1}, 0.05)


def test_pvalue_table_invariants():
    g = two_cliques(6)
    tbl = pvalue_table(g, frozenset(range(6)))
    assert 0.0 <= tbl.block_probability <= 1.0
    assert np.all(tbl.pvalues >= 0.0) and np.all(tbl.pvalues <= 1.0)
    assert np.all(tbl.pvalues[tbl.boundary_counts == 0] == 1.0)
    assert len(tbl) == g.n


def test_select_by_fdr_threshold_example():
    picked = select_by_fdr([0.001, 0.002, 0.01, 0.2, 0.9], 0.05)
    assert picked == frozenset({0, 1, 2})


def test_select_by_fdr_empty_and_errors():
    assert select_by_fdr([1.0, 1.0, 1.0], 0.05) == frozenset()
    assert select_by_fdr([], 0.5) == frozenset()
    with pytest.raises(ValueError):
        select_by_fdr([0.1], 0.0)
    with pytest.raises(ValueError):
        select_by_fdr([0.1], 1.0)


def test_select_by_fdr_ties_enter_together():
    # thresholds grow with k, so equal p-values never straddle the cut
    picked = select_by_fdr([0.9, 0.02, 0.02, 0.9], 0.05)
    assert picked == frozenset({1, 2})


def test_bh_select_recovers_clique():
    g = two_cliques(10)
    clique_a = frozenset(range(10))
    assert bh_select(g, clique_a, 0.05) == clique_a


def test_bh_select_disconnected_candidate_is_empty():
    g = MultiGraph.from_edges(12, [(i, j) for i in range(10) for j in range(i + 1, 10)] + [(10, 11)])
    assert bh_select(g, {10, 11}, 0.05) == frozenset()


def test_bh_select_invariant_under_relabeling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_simple_gnp(rng, 18, 0.3)
        if g.edge_count == 0:
            continue
        members = {int(v) for v in rng.choice(18, size=5, replace=False)}
        perm = rng.permutation(18)
        relabeled = MultiGraph.from_pair_arrays(
            18,
            perm[np.array([u for u, v, m in g.edge_classes() for _ in range(m)])],
            perm[np.array([v for u, v, m in g.edge_classes() for _ in range(m)])],
        )
        base = bh_select(g, members, 0.07)
        mapped = bh_select(relabeled, {int(perm[v]) for v in members}, 0.07)
        tbl = pvalue_table(g, members)
        distinct = len(np.unique(tbl.pvalues)) == g.n
        if distinct:
            assert mapped == frozenset(int(perm[v]) for v in base)


def test_bh_select_agrees_with_bruteforce_scan():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(3, 40))
        g = random_simple_gnp(rng, n, float(rng.uniform(0.05, 0.6)))
        if g.edge_count == 0:
            continue
        size = int(rng.integers(1, n))
        members = {int(v) for v in rng.choice(n, size=size, replace=False)}
        alpha = float(rng.uniform(0.01, 0.95))
        expected = bh_bruteforce(pvalue_table(g, members).pvalues, alpha)
        assert bh_select(g, members, alpha) == expected
    # multigraphs with loops, members up to the whole vertex set, so every
    # vertex can have an edge into B (K = n, the widest pre-filter)
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(2, 40))
        g = random_multigraph(rng, n, int(rng.integers(1, 6 * n)))
        size = int(rng.integers(1, n + 1))
        members = {int(v) for v in rng.choice(n, size=size, replace=False)}
        alpha = float(rng.uniform(0.01, 0.95))
        expected = bh_bruteforce(pvalue_table(g, members).pvalues, alpha)
        assert bh_select(g, members, alpha) == expected


def test_bh_select_agrees_with_bruteforce_scan_around_a_hub():
    # a hub with multi-edges to every other vertex has a degree in the
    # thousands, and a planted group makes some steps select something
    rng = np.random.default_rng(43)
    selected = 0
    for _ in range(60):
        n = int(rng.integers(20, 200))
        base = random_multigraph(rng, n, int(rng.integers(n, 6 * n)))
        u, v, m = (np.array(col) for col in zip(*base.edge_classes()))
        group = rng.choice(np.arange(1, n), size=int(rng.integers(3, 12)), replace=False)
        gu, gv = np.triu_indices(group.size, 1)
        others = np.arange(1, n)
        g = MultiGraph.from_pair_arrays(
            n,
            np.concatenate([u, np.zeros(n - 1, dtype=np.int64), group[gu]]),
            np.concatenate([v, others, group[gv]]),
            np.concatenate([m, rng.integers(1, 60, size=n - 1), rng.integers(1, 4, size=gu.size)]),
        )
        assert g.degree(0) >= n - 1
        for members in (
            {int(x) for x in group[: int(rng.integers(1, group.size + 1))]},
            {0} | {int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False)},
        ):
            alpha = float(rng.uniform(0.01, 0.95))
            expected = bh_bruteforce(pvalue_table(g, members).pvalues, alpha)
            assert bh_select(g, members, alpha) == expected
            selected += bool(expected)
    assert selected >= 20


def test_bh_select_agrees_with_bruteforce_past_the_screened_degrees():
    # two edges of multiplicity about 1e5 and 1e8-1e9 give one endpoint
    # pair a degree the screen handles and one far above it; the step must
    # still match the brute force, and nothing it allocates grows with the
    # largest degree
    rng = np.random.default_rng(47)
    selected = 0
    tracemalloc.start()
    try:
        for _ in range(20):
            n = int(rng.integers(20, 100))
            base = random_multigraph(rng, n, int(rng.integers(n, 4 * n)))
            u, v, m = (np.array(col) for col in zip(*base.edge_classes()))
            heavy = rng.choice(n, size=4, replace=False)
            weights = np.rint(10 ** np.array([rng.uniform(5, 5.9), rng.uniform(8, 9)]))
            g = MultiGraph.from_pair_arrays(
                n,
                np.concatenate([u, heavy[:2]]),
                np.concatenate([v, heavy[2:]]),
                np.concatenate([m, weights.astype(np.int64)]),
            )
            assert g.degrees.max() > 10**8
            rest = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)}
            for members in ({int(heavy[0]), int(heavy[1])} | rest, rest):
                alpha = float(rng.uniform(0.01, 0.95))
                expected = bh_bruteforce(pvalue_table(g, members).pvalues, alpha)
                assert bh_select(g, members, alpha) == expected
                selected += bool(expected)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert selected >= 10
    # a table up to the largest degree would take 8 bytes per degree
    assert peak < 64 * 2**20


def test_bh_select_rejects_bad_alpha_before_any_work():
    g = two_cliques(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, float("nan"), 1.0, 2.0, -0.5):
            with pytest.raises(ValueError, match="alpha must lie in"):
                bh_select(g, {0, 1}, alpha)


def test_tail_screen_drops_only_vertices_that_fail_the_cut():
    # the step drops a vertex without its tail when the point mass
    # P(X = x) alone exceeds the cut; the tail it would have computed must
    # then exceed the cut too, at every k up to 1e6 and p near 0 and 1
    rng = np.random.default_rng(37)
    dropped = 0
    for _ in range(300):
        near_0, near_1 = 10 ** -rng.uniform(1, 9), 1 - 10 ** -rng.uniform(1, 9)
        p = float(rng.choice([near_0, near_1, rng.uniform(0.01, 0.99)]))
        k = np.unique(np.rint(10 ** rng.uniform(0, 6, size=100)).astype(np.int64))
        # x = k, or a count near the mean k * p
        near_mean = np.rint(k * p + rng.normal(0, 3, size=k.size) * np.sqrt(k * p * (1 - p) + 1))
        x = np.where(rng.random(k.size) < 0.3, k, np.clip(near_mean, 1, k).astype(np.int64))
        cut = float(rng.uniform(0.01, 0.95) * 10 ** -rng.uniform(0, 6))
        drop = ~_may_pass(k, x, p, cut)
        assert np.all(_binomial_survival_batch(k[drop], p, x[drop]) > cut)
        dropped += int(drop.sum())
    assert dropped >= 1000
    # x = k, where the tail is the point mass p^k itself, with the cut
    # within a relative 1e-5 of it: only the margin keeps these right
    borderline = 0
    for _ in range(2000):
        k = np.array([int(np.rint(10 ** rng.uniform(0, 6)))])
        cut = float(rng.uniform(0.01, 0.95) * 10 ** -rng.uniform(0, 6))
        p = float(np.exp((np.log(cut) + rng.uniform(-1e-5, 1e-5)) / k[0]))
        if not _may_pass(k, k, p, cut)[0]:
            assert _binomial_survival_batch(k, p, k)[0] > cut
            borderline += 1
    assert borderline >= 500
    # nothing is screened at p = 1, at p = 0 or on NaN
    k = np.array([5, 10])
    for p in (1.0, 0.0, float("nan")):
        assert _may_pass(k, np.array([1, 10]), p, 0.5).all()
    # nor past degree 1e6, where the margin is not shown to hold: a mass
    # near 1e-3 exceeds the cut at both degrees
    k = np.array([10**6, 10**6 + 1])
    assert _may_pass(k, k // 2, 0.5, 1e-6).tolist() == [False, True]


def test_select_by_rank_orders_by_pvalue_then_id():
    rng = np.random.default_rng(29)
    for _ in range(30):
        g = random_simple_gnp(rng, 20, 0.3)
        if g.edge_count == 0:
            continue
        members = {int(v) for v in rng.choice(20, size=6, replace=False)}
        pv = pvalue_table(g, members).pvalues
        for k in (0, 1, 6, 20):
            expected = sorted(range(20), key=lambda v: (pv[v], v))[:k]
            assert select_by_rank(g, members, k) == frozenset(expected)
        # the BH cut keeps a prefix of the same order
        selected = bh_select(g, members, 0.2)
        assert select_by_rank(g, members, len(selected)) == selected


def test_select_by_rank_rejects_k_outside_range():
    g = two_cliques(4)
    assert len(select_by_rank(g, {0, 1}, g.n)) == g.n
    for k in (-1, g.n + 1):
        with pytest.raises(ValueError):
            select_by_rank(g, {0, 1}, k)
