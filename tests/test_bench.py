"""Benchmark generators: parameters, structure, and reproducibility."""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from essc import bench
from essc.bench import (
    BenchmarkSpec,
    gen_configuration,
    gen_erdos_renyi,
    gen_lfr,
    gen_lfr_background,
    gen_single_embedded,
    generate,
    pair_stubs,
    sample_powerlaw_degrees,
    single_embedded_theta,
)
from essc.detect import write_communities
from essc.errors import GenerationError, ParameterError
from essc.graph import write_edge_list

from helpers import (
    assign_memberships_loop,
    bernoulli_indices_loop,
    boundary_count,
    sample_community_sizes_loop,
)


def test_spec_validation():
    BenchmarkSpec(kind="er", n=10, dbar=3.0).validate()
    with pytest.raises(ParameterError):
        BenchmarkSpec(kind="nope", n=10).validate()
    with pytest.raises(ParameterError):
        BenchmarkSpec(kind="er", n=10).validate()  # dbar missing
    with pytest.raises(ParameterError):
        BenchmarkSpec(kind="er", n=10, dbar=3.0, mu=0.5).validate()  # irrelevant
    with pytest.raises(ParameterError):
        BenchmarkSpec(
            kind="lfr", n=10, dbar=3.0, tau1=2, tau2=1, mu=1.5, s1=2, s2=5, rho=0.0
        ).validate()
    lfr = dict(kind="lfr", n=100, dbar=3.0, tau1=2, tau2=1, mu=0.2, s1=2, s2=5, rho=0.0)
    for fields, message in (
        (dict(kind="er", n=-1, dbar=3.0), "n must"),
        (dict(lfr, kind="lfr_bg", rho=None, pi=1.5), "pi must"),
        (dict(lfr, rho=1.0), "rho must"),
        (dict(lfr, s1=50, s2=40), "s1 <= s2"),
    ):
        with pytest.raises(ParameterError, match=message):
            BenchmarkSpec(**fields).validate()


def test_float_counts_are_rejected_before_any_draw():
    # a float n, s1 or s2 raises rather than reaching the generators, where
    # s1=20.5 and s2=100.5 used to yield a graph
    lfr = dict(kind="lfr", n=1000, dbar=20.0, tau1=2.0, tau2=1.0, mu=0.2, s1=20, s2=100,
               rho=0.0, rng_seed=1)
    for fields in (dict(lfr, n=1000.5), dict(lfr, s1=20.5), dict(lfr, s2=100.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            generate(BenchmarkSpec(**fields))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        single_embedded_theta(300.5, 0.2, 5.0, 8.0)
    calls = [
        lambda rng: gen_erdos_renyi(20.5, 3.0, rng),
        lambda rng: gen_single_embedded(300.5, 0.2, 5.0, 0.01, rng),
        lambda rng: sample_powerlaw_degrees(300.5, 2.0, 5.0, rng),
    ]
    for call in calls:
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(rng)
        assert rng.bit_generator.state == before


def test_non_finite_parameters_are_rejected_before_any_draw():
    nan, inf = float("nan"), float("inf")
    lfr = dict(n=400, dbar=12.0, tau1=2.0, tau2=1.0, mu=0.2, s1=10, s2=40)
    specs = [
        dict(kind="er", n=50, dbar=nan),
        dict(kind="config", n=50, dbar=nan, tau1=2.0),
        dict(kind="config", n=50, dbar=5.0, tau1=nan),
        dict(kind="sbm_single", n=50, pi=0.2, kappa=nan, theta=0.05),
        dict(kind="sbm_single", n=50, pi=0.2, kappa=4.0, theta=inf),
        dict(kind="lfr", rho=0.0, **dict(lfr, dbar=nan)),
        dict(kind="lfr", rho=0.0, **dict(lfr, tau2=-inf)),
        dict(kind="lfr_bg", pi=0.5, **dict(lfr, dbar=nan)),
    ]
    for fields in specs:
        with pytest.raises(ParameterError, match="finite"):
            generate(BenchmarkSpec(rng_seed=1, **fields))
    calls = [
        lambda rng: gen_erdos_renyi(50, nan, rng),
        lambda rng: gen_erdos_renyi(1, inf, rng),
        lambda rng: gen_single_embedded(50, 0.2, 4.0, nan, rng),
        lambda rng: gen_single_embedded(50, 0.2, nan, 0.05, rng),
        lambda rng: gen_single_embedded(50, nan, 4.0, 0.05, rng),
        lambda rng: sample_powerlaw_degrees(50, 2.0, nan, rng),
        lambda rng: sample_powerlaw_degrees(0, 2.0, nan, rng),
        lambda rng: sample_powerlaw_degrees(50, inf, 5.0, rng),
    ]
    for call in calls:
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ParameterError, match="finite"):
            call(rng)
        assert rng.bit_generator.state == before


def test_powerlaw_weights_that_underflow_are_rejected_before_any_draw():
    # 10 ** -1e4 and 20 ** -400 underflow to 0, so the truncated mean for a
    # lower cutoff above them is 0 / 0; mean 2 is reachable at d_min = 2
    for n, tau, dbar in ((100, 1e4, 1.0), (100, 400.0, 2.0)):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="underflows"):
                sample_powerlaw_degrees(n, tau, dbar, rng)
        assert rng.bit_generator.state == before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="underflows"):
            generate(BenchmarkSpec(kind="config", n=100, dbar=5.0, tau1=1e4, rng_seed=1))


def test_community_size_weights_must_not_vanish():
    # 20 ** -1e4 underflows every weight to 0
    with pytest.raises(ParameterError, match="tau2"):
        bench._sample_community_sizes(100, 1e4, 20, 40, np.random.default_rng(1))


def test_pair_unranking_is_a_bijection():
    from essc.bench import _unrank_pairs

    for n in (2, 3, 5, 11, 40):
        i, j = _unrank_pairs(np.arange(n * (n - 1) // 2), n)
        assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(n), 2))
    # the first and last index of random rows, where a float root could slip;
    # at n = 1e9 the float root misses by one row at most last indices
    rng = np.random.default_rng(3)
    for n in (10**7, 10**9):
        rows = rng.integers(0, n - 1, size=2000)
        first = rows * (2 * n - rows - 1) // 2
        for t, j_want in ((first, rows + 1), (first + n - rows - 2, np.full_like(rows, n - 1))):
            i, j = _unrank_pairs(t, n)
            assert np.array_equal(i, rows) and np.array_equal(j, j_want)


def test_erdos_renyi_edges_and_truth():
    g, truth = gen_erdos_renyi(0, 0, 1)
    assert g.n == 0 and g.edge_count == 0

    g, truth = gen_erdos_renyi(1000, 0, 1)
    assert g.edge_count == 0

    g, truth = gen_erdos_renyi(1000, 10, 1)
    assert 9 <= g.degrees.mean() <= 11
    assert truth.communities == [] and len(truth.background) == 1000

    with pytest.raises(ParameterError):
        gen_erdos_renyi(100, 120, 1)
    with pytest.raises(ParameterError, match="n must"):
        gen_erdos_renyi(-1, 1.0)
    with pytest.raises(ParameterError, match="dbar must"):
        gen_erdos_renyi(10, -1.0)

    # dbar = n - 1 links every pair: K5
    g, _ = gen_erdos_renyi(5, 4.0, 1)
    assert g.edge_count == 10 and g.degrees.tolist() == [4] * 5


def test_erdos_renyi_edge_count_concentrates():
    n, dbar = 600, 8
    p = dbar / (n - 1)
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    for seed in range(5):
        g, _ = gen_erdos_renyi(n, dbar, 70_000 + seed)
        assert abs(g.edge_count - mean) < 4 * sigma


def test_configuration_forced_cases():
    g = gen_configuration([1, 1], 3)
    assert g.edge_count == 1 and g.degrees.tolist() == [1, 1]

    g = gen_configuration([2], 3)
    assert g.edge_count == 1
    assert g.degree(0) == 2
    assert boundary_count(g, 0, {0}) == 2


def test_configuration_preserves_degrees():
    rng = np.random.default_rng(13)
    assert gen_configuration([3, 3, 2, 2], 5).degrees.tolist() == [3, 3, 2, 2]
    for _ in range(20):
        degrees = rng.integers(0, 9, size=int(rng.integers(2, 40)))
        if degrees.sum() % 2 == 1:
            degrees[0] += 1
        g = gen_configuration(degrees, rng)
        assert g.degrees.tolist() == degrees.tolist()
    with pytest.raises(ParameterError):
        gen_configuration([1, 1, 1], 2)


@pytest.mark.parametrize(
    "call",
    [
        # truncation would wire the degrees [1, 1, 0] and [1, 1], and cap
        # the degrees at 5
        lambda: gen_configuration([1.9, 1.9, 0.5], 1),
        lambda: pair_stubs([1.5, 1.5], np.random.default_rng(1)),
        lambda: sample_powerlaw_degrees(10, 2.0, 3.0, 1, d_max=5.7),
    ],
)
def test_degree_input_must_be_integers(call):
    with pytest.raises(TypeError):
        call()


def test_pair_stubs_checks_the_degree_sequence():
    rng = np.random.default_rng(1)
    for degrees in ([2, -1, 1], [1, 1, 1]):
        with pytest.raises(ParameterError):
            pair_stubs(degrees, rng)


def test_pair_stubs_matches_graph_counts():
    degrees = sample_powerlaw_degrees(50, 2.0, 6, 1)
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    a, b = pair_stubs(degrees, rng1)
    g = gen_configuration(degrees, rng2)
    members = set(range(10, 30))
    in_b = np.zeros(len(degrees), dtype=bool)
    in_b[list(members)] = True
    for u in (0, 5, 12):
        fast = int(((a == u) & in_b[b]).sum() + ((b == u) & in_b[a]).sum())
        assert fast == boundary_count(g, u, members)


def test_powerlaw_degrees_basics():
    assert sample_powerlaw_degrees(0, 2.0, 10, 1).size == 0
    d = sample_powerlaw_degrees(2000, 2.0, 30, 7)
    assert 27 <= d.mean() <= 33
    assert d.sum() % 2 == 0
    assert d.min() >= 1 and d.max() <= min(1999, 300)
    with pytest.raises(ParameterError):
        sample_powerlaw_degrees(100, 2.0, 100, 1)
    with pytest.raises(ParameterError):
        sample_powerlaw_degrees(100, 0.9, 5, 1)
    with pytest.raises(ParameterError, match="dbar must"):
        sample_powerlaw_degrees(10, 2.0, 0.5)
    with pytest.raises(ParameterError, match="no feasible degree support"):
        sample_powerlaw_degrees(1, 2.0, 1.0)


def test_single_embedded_parameters():
    with pytest.raises(ParameterError):
        gen_single_embedded(100, 0.1, 10, 0.15, 1)  # theta*kappa = 1.5
    with pytest.raises(ParameterError):
        gen_single_embedded(100, 0.0, 10, 0.01, 1)
    with pytest.raises(ParameterError):
        gen_single_embedded(100, 0.1, 0.9, 0.01, 1)
    with pytest.raises(ParameterError, match="n must"):
        single_embedded_theta(1, 0.1, 10, 5)


def test_single_embedded_unit_contrast_is_uniform():
    # kappa = 1 removes the block contrast entirely
    g, truth = gen_single_embedded(2000, 0.5, 1.0, 0.01, 17)
    inside = set(truth.communities[0])
    within1 = within2 = cross = 0
    for u, v, m in g.edge_classes():
        if u in inside and v in inside:
            within1 += m
        elif u not in inside and v not in inside:
            within2 += m
        else:
            cross += m
    n1, n2 = len(inside), g.n - len(inside)
    d1 = within1 / (n1 * (n1 - 1) / 2)
    d2 = within2 / (n2 * (n2 - 1) / 2)
    dc = cross / (n1 * n2)
    for a, b in ((d1, d2), (d1, dc), (d2, dc)):
        assert abs(a - b) / b < 0.10


def test_single_embedded_density_contrast():
    theta = single_embedded_theta(2000, 0.1, 10, 30)
    g, truth = gen_single_embedded(2000, 0.1, 10, theta, 3)
    c1 = sorted(truth.communities[0])
    inside = set(c1)
    within = sum(m for u, v, m in g.edge_classes() if u in inside and v in inside)
    cross = sum(m for u, v, m in g.edge_classes() if (u in inside) != (v in inside))
    n1 = len(c1)
    n2 = g.n - n1
    density_in = within / (n1 * (n1 - 1) / 2)
    density_cross = cross / (n1 * n2)
    assert abs(density_in / density_cross - 10) / 10 < 0.15
    assert 27 <= g.degrees.mean() <= 33


def test_single_embedded_empty_block_degenerates_to_noise():
    # pi small enough that no vertex lands in the community block
    for seed in range(50):
        g, truth = gen_single_embedded(300, 1e-5, 10, 0.02, seed)
        if not truth.communities[0]:
            assert truth.background == frozenset(range(300))
            return
    pytest.fail("no realization with an empty block found")


_LFR = BenchmarkSpec(
    kind="lfr", n=2000, dbar=30, tau1=2.0, tau2=1.0, mu=0.1, s1=20, s2=100,
    rho=0.0, rng_seed=11,
)


def _membership_index(truth, n):
    member_of = [set() for _ in range(n)]
    for ci, c in enumerate(truth.communities):
        for v in c:
            member_of[v].add(ci)
    return member_of


def _internal_fraction(g, truth):
    member_of = _membership_index(truth, g.n)
    internal = np.zeros(g.n)
    for u, v, m in g.edge_classes():
        if u == v:
            internal[u] += 2 * m
        elif member_of[u] & member_of[v]:
            internal[u] += m
            internal[v] += m
    degs = np.maximum(g.degrees, 1)
    return internal / degs


def test_lfr_partitions_without_overlap():
    g, truth = gen_lfr(_LFR)
    counts = np.zeros(g.n, dtype=int)
    for c in truth.communities:
        counts[list(c)] += 1
    assert np.all(counts == 1)
    assert truth.background == frozenset()


def test_lfr_realizes_mixing_parameter():
    g, truth = gen_lfr(_LFR)
    frac = _internal_fraction(g, truth)
    assert 0.85 <= frac.mean() <= 0.95


def test_lfr_sizes_within_range():
    for seed in (11, 12, 13):
        g, truth = gen_lfr(dataclasses.replace(_LFR, rng_seed=seed))
        for c in truth.communities:
            assert _LFR.s1 * 0.9 <= len(c) <= _LFR.s2 * 1.1


def test_lfr_overlap_fraction():
    spec = BenchmarkSpec(
        kind="lfr", n=1000, dbar=20, tau1=2.0, tau2=1.0, mu=0.2, s1=15, s2=60,
        rho=0.2, rng_seed=4,
    )
    g, truth = gen_lfr(spec)
    counts = np.zeros(g.n, dtype=int)
    for c in truth.communities:
        counts[list(c)] += 1
    assert int((counts == 2).sum()) == 200
    assert np.all(counts >= 1)
    frac = _internal_fraction(g, truth)
    assert 0.72 <= frac.mean() <= 0.88  # target 1 - mu = 0.8


def test_lfr_mean_degree_tracks_dbar():
    g, _ = gen_lfr(_LFR)
    assert 27 <= g.degrees.mean() <= 33


_LFR_BG = BenchmarkSpec(
    kind="lfr_bg", n=2000, dbar=30, tau1=2.0, tau2=1.0, mu=0.2, s1=20, s2=100,
    pi=0.5, rng_seed=5,
)


def test_lfr_background_degree_audit():
    g, truth = gen_lfr_background(_LFR_BG)
    assert 27 <= g.degrees.mean() <= 33
    covered = set().union(*truth.communities) if truth.communities else set()
    assert covered.isdisjoint(truth.background)
    assert covered | truth.background == set(range(g.n))
    # background vertices link with probability dbar / n
    with pytest.raises(ParameterError, match="dbar must not exceed n"):
        gen_lfr_background(dataclasses.replace(_LFR_BG, n=10, dbar=20))
    # seed 1 puts 6 of the 400 vertices in the block
    small = dataclasses.replace(_LFR_BG, n=400, dbar=12, s1=10, s2=40, pi=0.02, rng_seed=1)
    with pytest.raises(GenerationError, match="6 vertices, fewer than s1=10"):
        gen_lfr_background(small)


def test_lfr_background_nearly_all_block_reduces_to_lfr():
    spec = BenchmarkSpec(
        kind="lfr_bg", n=800, dbar=20, tau1=2.0, tau2=1.0, mu=0.2, s1=15, s2=60,
        pi=0.999, rng_seed=8,
    )
    g, truth = gen_lfr_background(spec)
    assert len(truth.background) <= 5
    counts = np.zeros(g.n, dtype=int)
    for c in truth.communities:
        counts[list(c)] += 1
    assert np.all(counts[sorted(set(range(g.n)) - truth.background)] == 1)


def test_generators_are_reproducible():
    specs = [
        BenchmarkSpec(kind="er", n=200, dbar=6, rng_seed=21),
        BenchmarkSpec(kind="config", n=200, dbar=8, tau1=2.0, rng_seed=21),
        BenchmarkSpec(kind="sbm_single", n=200, pi=0.2, kappa=5, theta=0.02, rng_seed=21),
        BenchmarkSpec(kind="lfr", n=400, dbar=12, tau1=2.0, tau2=1.0, mu=0.2,
                      s1=10, s2=40, rho=0.1, rng_seed=21),
        BenchmarkSpec(kind="lfr_bg", n=400, dbar=12, tau1=2.0, tau2=1.0, mu=0.2,
                      s1=10, s2=40, pi=0.6, rng_seed=21),
    ]
    for spec in specs:
        g1, t1 = generate(spec)
        g2, t2 = generate(spec)
        assert write_edge_list(g1) == write_edge_list(g2)
        assert t1.communities == t2.communities
        assert t1.background == t2.background


def test_generate_dispatch_covers_all_kinds():
    for spec in (
        BenchmarkSpec(kind="er", n=50, dbar=4, rng_seed=1),
        BenchmarkSpec(kind="config", n=50, dbar=5, tau1=2.0, rng_seed=1),
        BenchmarkSpec(kind="sbm_single", n=50, pi=0.3, kappa=4, theta=0.05, rng_seed=1),
    ):
        g, truth = generate(spec)
        assert g.n == 50
        assert set().union(truth.background, *([set()] + truth.communities)) == set(range(50))
    with pytest.raises(ParameterError, match="expected an lfr spec"):
        gen_lfr(BenchmarkSpec(kind="er", n=50, dbar=4, rng_seed=1))
    with pytest.raises(ParameterError, match="expected an lfr_bg spec"):
        gen_lfr_background(_LFR)


_SMALL = dict(dbar=12, tau1=2.0, tau2=1.0, s1=10, s2=40)

# sha256 of write_edge_list(g) + write_communities(truth) for every kind,
# two seeds each; any change to a generated graph, to the RNG draws that
# made it or to its truth shows here
_GENERATOR_PINS = [
    (dict(kind="er", n=0, dbar=0.0), 1,
     "a2149d6c30f3dfe7fa6351e3bae9da315f829d6a55ec3bc151e72d82d3fe3acb"),
    (dict(kind="er", n=0, dbar=0.0), 2,
     "a2149d6c30f3dfe7fa6351e3bae9da315f829d6a55ec3bc151e72d82d3fe3acb"),
    (dict(kind="er", n=1, dbar=0.0), 1,
     "4b2101d08db8f947fbae07b179efe4ffb73a0a2ae9d758eec6ea88b445d9af39"),
    (dict(kind="er", n=1, dbar=0.0), 2,
     "4b2101d08db8f947fbae07b179efe4ffb73a0a2ae9d758eec6ea88b445d9af39"),
    (dict(kind="er", n=300, dbar=6.0), 1,
     "883698c8e58be5a747de94ed91a7717b1ca072becd5b4aa7cfed96b197d0d1ce"),
    (dict(kind="er", n=300, dbar=6.0), 2,
     "ed2dfbab469a9a04263bc8d389b6d686550bd669992ad48a0c18b1fc7ccc24c6"),
    (dict(kind="config", n=300, dbar=8.0, tau1=2.0), 1,
     "7280b81354e43a10a3a4fd2b54f17dbb4782bd9c511388b84270011023eb6d36"),
    (dict(kind="config", n=300, dbar=8.0, tau1=2.0), 2,
     "2a56847c13cb6b3c7a21104af6e0c356f2b01dd8716418b9a7fb80fe1b3e5892"),
    (dict(kind="sbm_single", n=300, pi=0.2, kappa=5.0, theta=0.03), 1,
     "23aef9594e3903158cc4ed1d740a09b5f7dd82540aca18973323b624f03d9361"),
    (dict(kind="sbm_single", n=300, pi=0.2, kappa=5.0, theta=0.03), 2,
     "b0007c5cdf2ffcd486966618b0024a3b18d0a4cb59e62b61df0e5e26e8b59653"),
    (dict(kind="sbm_single", n=300, pi=0.3, kappa=1.0, theta=0.02), 1,
     "babc53dcf31d34ca4176c2150dee24c0ad69e0903aea9399ad1dc6136d3b2181"),
    (dict(kind="sbm_single", n=300, pi=0.3, kappa=1.0, theta=0.02), 2,
     "e29694407d3111634ffdc918d4645fc7f24e48648be159e278b98bafae273902"),
    (dict(kind="lfr", n=400, mu=0.2, rho=0.0, **_SMALL), 1,
     "7828cbcf1ed0dd91b2850bdfe7b8540c26c360224e1db497a27dd8d1d315db22"),
    (dict(kind="lfr", n=400, mu=0.2, rho=0.0, **_SMALL), 2,
     "93d8441e8b3b1158e2c13d5ec0d09b03833604a0188db4fb36d2ec92ef842395"),
    (dict(kind="lfr", n=400, mu=0.2, rho=0.1, **_SMALL), 1,
     "23dcc300fc6dee9abb59987ff9d39ad6ec59dae96b06091b1fd0af68aac8de2c"),
    (dict(kind="lfr", n=400, mu=0.2, rho=0.1, **_SMALL), 2,
     "70db36cd3c9d7fc56179096eb7e0bf4983311120b756fe96923ec2727ca5cf4f"),
    (dict(kind="lfr", n=0, mu=0.2, rho=0.0, **_SMALL), 1,
     "a2149d6c30f3dfe7fa6351e3bae9da315f829d6a55ec3bc151e72d82d3fe3acb"),
    (dict(kind="lfr", n=0, mu=0.2, rho=0.0, **_SMALL), 2,
     "a2149d6c30f3dfe7fa6351e3bae9da315f829d6a55ec3bc151e72d82d3fe3acb"),
    (dict(kind="lfr_bg", n=400, mu=0.2, pi=0.5, **_SMALL), 1,
     "560a84e83e647f4b9db95f8e6fff4b08b75311100978766e67d145902ead4ae7"),
    (dict(kind="lfr_bg", n=400, mu=0.2, pi=0.5, **_SMALL), 2,
     "71930e541a7c443ac9e0b1f864b66b54bea009532dd50489707927013cb643e6"),
    (dict(kind="lfr_bg", n=400, mu=0.2, pi=0.98, **_SMALL), 1,
     "df8cebf1fbac7859675037e5eb403b7795bec9948f936c7450c90b5e5f98f0be"),
    (dict(kind="lfr_bg", n=400, mu=0.2, pi=0.98, **_SMALL), 2,
     "bc881e2e2658ebc25669f9d0e8466dcad00be3725926055e9eff4d0bf71996ba"),
]

# one seed each at n=1e4: the perfbench lfr-10k spec, the same with a rho
# share of doubly-assigned vertices, lfr_bg and sbm_single at scale
_10K = dict(n=10_000, dbar=40.0, tau1=2.0, tau2=1.0, mu=0.3, s1=20, s2=100)
_GENERATOR_PINS += [
    (dict(kind="lfr", rho=0.0, **_10K), 1,
     "da653ba289460a1aa1f5f32eaa832bb2481dccd0173deb89ccafb681e274937a"),
    (dict(kind="lfr", rho=0.1, **_10K), 1,
     "f57c76dbec8fc20d777bc7a78823dbd01da52d334f548ac30b39eb9960975e51"),
    (dict(kind="lfr_bg", pi=0.5, **_10K), 1,
     "d60f3513413754eaa2a57db3dfeaea498c7aaefa350566a2b95c7abff227e98a"),
    (dict(kind="sbm_single", n=10_000, pi=0.1, kappa=10.0,
          theta=single_embedded_theta(10_000, 0.1, 10.0, 40.0)), 1,
     "8d1dd58e9fa5c49b2fb459ef4fea6d24ee2b3fa8062ce63b9b3590f981218336"),
]


@pytest.mark.parametrize("fields, seed, sha", _GENERATOR_PINS)
def test_generator_output_is_pinned(fields, seed, sha):
    g, truth = generate(BenchmarkSpec(rng_seed=seed, **fields))
    text = write_edge_list(g) + write_communities(truth.communities, truth.background)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# The three draw-ordered loops of the generators against their draw-by-draw
# versions in helpers.py: same values, and the generator left in the same
# state, on random inputs and on the edge cases of each fast path.

def _rngs(seed, mt=False):
    make = (lambda: np.random.Generator(np.random.MT19937(seed))) if mt else \
        (lambda: np.random.default_rng(seed))
    return make(), make()


def _state(x):
    """A bit generator's state with its arrays (MT19937's key) as lists."""
    if isinstance(x, dict):
        return {k: _state(v) for k, v in x.items()}
    return x.tolist() if isinstance(x, np.ndarray) else x


def _assert_same_draws(fast, loop, args, seed, mt=False):
    r1, r2 = _rngs(seed, mt)
    got, want = fast(*args, r1), loop(*args, r2)
    assert _state(r1.bit_generator.state) == _state(r2.bit_generator.state)
    return got, want


def _bernoulli_cases():
    rng = np.random.default_rng(2024)
    cases = [
        (10, 1e-300), (10**12, 1e-300), (1, 0.5), (1, 1e-9), (1, 1 - 1e-12),
        (50, 1 - 1e-12), (200, 0.999), (200, 0.5), (10**12, 2e-11),
        (499_500, 0.3),  # about 150k successes: three capped blocks
    ]
    for _ in range(40):
        cases.append((int(rng.integers(1, 20_000)), float(10 ** rng.uniform(-5, -0.01))))
    return cases


@pytest.mark.parametrize("mt", [False, True])
def test_bernoulli_indices_match_the_draw_by_draw_loop(mt):
    for i, (space, p) in enumerate(_bernoulli_cases()):
        got, want = _assert_same_draws(
            bench._bernoulli_indices, bernoulli_indices_loop, (space, p), i, mt
        )
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (space, p)


def test_bernoulli_indices_short_blocks_continue(monkeypatch):
    # blocks far shorter than the successes force every block boundary case
    for block in (1, 2, 3, 7):
        monkeypatch.setattr(bench, "_SKIP_BLOCK", block)
        for i, (space, p) in enumerate([(1, 0.5), (30, 0.9), (500, 0.2), (2000, 0.01)]):
            got, want = _assert_same_draws(
                bench._bernoulli_indices, bernoulli_indices_loop, (space, p), 100 + i
            )
            assert np.array_equal(got, want), (block, space, p)


def test_community_sizes_match_the_draw_by_draw_loop():
    rng = np.random.default_rng(99)
    cases = [(0, 1.0, 5, 9), (1, 1.0, 1, 1), (7, 2.0, 3, 5), (1000, 1.0, 20, 100)]
    for _ in range(60):
        s1 = int(rng.integers(1, 30))
        cases.append((int(rng.integers(1, 3000)), float(rng.choice([-1.0, 0.0, 1.0, 2.0, 3.5])),
                      s1, s1 + int(rng.integers(0, 80))))
    for i, args in enumerate(cases):
        got, want = _assert_same_draws(
            bench._sample_community_sizes, sample_community_sizes_loop, args, i, mt=i % 2 == 1
        )
        assert got == want, args
    # seats that no size mix can cover
    for sample in (bench._sample_community_sizes, sample_community_sizes_loop):
        with pytest.raises(GenerationError):
            sample(15, 1.0, 10, 10, np.random.default_rng(0))


def _membership_cases():
    rng = np.random.default_rng(5)
    cases = [
        # wedged: one community cannot host a double member
        ([3], np.array([2, 2]), np.array([0])),
        # wedged later: the second double finds every community full
        ([1, 1, 1], np.array([1, 1, 1]), np.array([0, 1])),
        # need above every size: single members fall back to any open community
        ([4, 3, 5], np.full(12, 50), np.zeros(0, dtype=np.int64)),
        # doubles with fewer than two fitting communities use every open one
        ([30, 3, 3, 4], np.r_[np.full(5, 20), np.full(30, 1)], np.arange(5)),
        # small communities fill mid-run, so cached pools go stale
        ([1, 2, 1, 3, 2, 5, 1, 4], np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2]),
         np.array([3, 9])),
    ]
    for _ in range(60):
        n = int(rng.integers(1, 300))
        doubles = np.sort(rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False))
        seats = n + len(doubles)
        cuts = np.sort(rng.choice(np.arange(1, seats), size=min(seats - 1, int(rng.integers(0, 40))),
                                  replace=False)) if seats > 1 else np.zeros(0, dtype=np.int64)
        sizes = np.diff(np.r_[0, cuts, seats]).tolist()
        internal = rng.integers(0, max(sizes) + 3, size=n)
        cases.append((sizes, internal, doubles.astype(np.int64)))
    return cases


@pytest.mark.parametrize("mt", [False, True])
def test_memberships_match_the_draw_by_draw_loop(mt):
    wedged = 0
    for i, (sizes, internal, doubles) in enumerate(_membership_cases()):
        args = (sizes, internal, doubles)
        got, want = _assert_same_draws(
            bench._assign_memberships, assign_memberships_loop, args, i, mt
        )
        if want is None:
            wedged += 1
            assert got is None
            continue
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), i
    assert wedged >= 2
